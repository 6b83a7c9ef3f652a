package redist

import (
	"fmt"

	"parafile/internal/core"
	"parafile/internal/falls"
)

// project.go implements the intersection projection of §7: re-express
// the bytes common to two partition elements in the linear space of
// one of them, using the element's mapping function. The projection is
// what view setting stores at the compute node (PROJ_V) and ships to
// the I/O node (PROJ_S) in the Clusterfile case study.

// Projection is a periodic subset of one partition element's linear
// space. Set describes one intersection period; Period is the number
// of element bytes spanned by one intersection period; Bytes is the
// number of selected bytes per period.
type Projection struct {
	Set    falls.Set
	Period int64
	Bytes  int64
}

// Project computes PROJ_e(I): the intersection re-expressed in the
// linear space of the element served by mapper m, which must be one of
// the two elements that produced the intersection.
func Project(i *Intersection, m *core.Mapper) (*Projection, error) {
	if i == nil || m == nil {
		return nil, fmt.Errorf("redist: nil intersection or mapper")
	}
	zs := m.File().Pattern.Size()
	if i.Period%zs != 0 {
		return nil, fmt.Errorf("redist: intersection period %d not a multiple of pattern size %d",
			i.Period, zs)
	}
	period := i.Period / zs * m.ElementSize()
	proj := &Projection{Period: period, Bytes: i.Set.Size()}
	if i.Empty() {
		return proj, nil
	}
	// Contiguous runs of common bytes map to contiguous runs of the
	// element's linear space (the mapping enumerates the element's
	// bytes in file order), so mapping each leaf segment's start
	// suffices. Map yields true element offsets, which for a non-zero
	// alignment base land in [bias, bias+period) where bias counts the
	// element bytes preceding the base; segments are re-based so that
	// the one-period set can be re-phased below.
	bias, err := m.MapNext(i.Base)
	if err != nil {
		return nil, err
	}
	var segs []falls.LineSegment
	var mapErr error
	i.Set.Walk(func(seg falls.LineSegment) bool {
		v, err := m.Map(i.Base + seg.L)
		if err != nil {
			mapErr = fmt.Errorf("redist: projecting segment %v: %w", seg, err)
			return false
		}
		segs = append(segs, falls.LineSegment{L: v - bias, R: v - bias + seg.Len() - 1})
		return true
	})
	if mapErr != nil {
		return nil, mapErr
	}
	proj.Set = rotateToPhase(falls.LeavesToSet(segs), period, bias)
	if err := proj.Set.Validate(); err != nil {
		return nil, fmt.Errorf("redist: projection invalid: %w", err)
	}
	if proj.Set.Size() != proj.Bytes {
		return nil, fmt.Errorf("redist: projection size %d != intersection size %d",
			proj.Set.Size(), proj.Bytes)
	}
	return proj, nil
}

// rotateToPhase re-expresses a one-period selection counted from the
// alignment base (coordinates in [0, period), where coordinate 0 is
// the bias-th element byte) as the equivalent periodic set in the
// element's true phase: x selected iff (x - bias) mod period was.
func rotateToPhase(s falls.Set, period, bias int64) falls.Set {
	if len(s) == 0 || falls.Mod64(bias, period) == 0 {
		return s
	}
	return falls.Rotate(s, period, -bias)
}

// Empty reports whether the projection selects no bytes.
func (p *Projection) Empty() bool { return p.Bytes == 0 }

// WalkRange walks the projection's selected element bytes within the
// inclusive element-space window [lo, hi], handling the periodic
// repetition beyond the first period. The walk ends for good the first
// time fn returns false: callers stop on errors and may have released
// what fn writes into.
func (p *Projection) WalkRange(lo, hi int64, fn func(seg falls.LineSegment) bool) {
	if p.Empty() || hi < lo {
		return
	}
	for k := floorDiv(lo, p.Period); k*p.Period <= hi; k++ {
		if k < 0 {
			continue
		}
		base := k * p.Period
		stop := false
		p.Set.Walk(func(seg falls.LineSegment) bool {
			abs := falls.LineSegment{L: seg.L + base, R: seg.R + base}
			if abs.R < lo {
				return true
			}
			if abs.L > hi || !fn(falls.LineSegment{L: max64(abs.L, lo), R: min64(abs.R, hi)}) {
				stop = true
				return false
			}
			return true
		})
		if stop {
			return
		}
	}
}

// BytesIn counts the selected bytes within the element-space window
// [lo, hi].
func (p *Projection) BytesIn(lo, hi int64) int64 {
	var n int64
	p.WalkRange(lo, hi, func(seg falls.LineSegment) bool {
		n += seg.Len()
		return true
	})
	return n
}

// SegmentsIn counts the selected segments within [lo, hi] — the
// fragmentation measure that drives gather/scatter cost.
func (p *Projection) SegmentsIn(lo, hi int64) int64 {
	var n int64
	p.WalkRange(lo, hi, func(seg falls.LineSegment) bool {
		n++
		return true
	})
	return n
}

// IsContiguous reports whether the projection's bytes within [lo, hi]
// form one gap-free run covering the whole window — the §8.1 test for
// the zero-copy write path.
func (p *Projection) IsContiguous(lo, hi int64) bool {
	if hi < lo {
		return true
	}
	next := lo
	ok := true
	p.WalkRange(lo, hi, func(seg falls.LineSegment) bool {
		if seg.L != next {
			ok = false
			return false
		}
		next = seg.R + 1
		return true
	})
	return ok && next == hi+1
}
