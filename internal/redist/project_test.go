package redist

import (
	"math/rand"
	"sort"
	"testing"

	"parafile/internal/core"
	"parafile/internal/falls"
	"parafile/internal/part"
)

// TestFigure4Projections reproduces §7's projection example:
// PROJ_V(V∩S) = (0,0,4,2) and PROJ_S(V∩S) = (0,0,4,2) — element
// offsets {0, 4} on both sides.
func TestFigure4Projections(t *testing.T) {
	fv := fileAround(t, fig4V(), 32, 0)
	fs := fileAround(t, fig4S(), 32, 0)
	inter, err := IntersectElements(fv, 0, fs, 0)
	if err != nil {
		t.Fatal(err)
	}
	mv := core.MustMapper(fv, 0)
	ms := core.MustMapper(fs, 0)
	pv, err := Project(inter, mv)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := Project(inter, ms)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{0, 4}
	for name, p := range map[string]*Projection{"PROJ_V": pv, "PROJ_S": ps} {
		got := p.Set.Offsets()
		if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
			t.Errorf("%s offsets = %v, want %v", name, got, want)
		}
		if len(p.Set) != 1 {
			t.Errorf("%s not compact: %v", name, p.Set)
		}
		if p.Bytes != 2 {
			t.Errorf("%s bytes = %d, want 2", name, p.Bytes)
		}
	}
	// V and S have 8 bytes per 32-byte pattern, so one intersection
	// period spans 8 element bytes on each side.
	if pv.Period != 8 || ps.Period != 8 {
		t.Errorf("projection periods = %d, %d; want 8, 8", pv.Period, ps.Period)
	}
}

// TestPropertyProjectionOracle: the projection equals the sorted MAP
// values of the intersection bytes, on random partition pairs.
func TestPropertyProjectionOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	for iter := 0; iter < 120; iter++ {
		z1 := int64(8 * (1 + rng.Intn(6)))
		z2 := int64(8 * (1 + rng.Intn(6)))
		f1 := fileAround(t, randSetIn(rng, z1), z1, rng.Int63n(4))
		f2 := fileAround(t, randSetIn(rng, z2), z2, rng.Int63n(4))
		inter, err := IntersectElements(f1, 0, f2, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, side := range []*part.File{f1, f2} {
			m := core.MustMapper(side, 0)
			proj, err := Project(inter, m)
			if err != nil {
				t.Fatal(err)
			}
			// The projection is the one-period representation in the
			// element's true phase: the mapped offsets of one
			// intersection period, reduced modulo the projection
			// period.
			var want []int64
			for _, o := range inter.Set.Offsets() {
				v, err := m.Map(inter.Base + o)
				if err != nil {
					t.Fatalf("mapping intersection byte %d: %v", o, err)
				}
				want = append(want, falls.Mod64(v, proj.Period))
			}
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			got := proj.Set.Offsets()
			if len(got) != len(want) {
				t.Fatalf("projection = %v, want %v", got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("projection = %v, want %v", got, want)
				}
			}
		}
	}
}

// TestProjectionPeriodicWalk: WalkRange repeats the projection pattern
// across periods and clips at the window.
func TestProjectionPeriodicWalk(t *testing.T) {
	fv := fileAround(t, fig4V(), 32, 0)
	fs := fileAround(t, fig4S(), 32, 0)
	inter, _ := IntersectElements(fv, 0, fs, 0)
	pv, err := Project(inter, core.MustMapper(fv, 0))
	if err != nil {
		t.Fatal(err)
	}
	// One period selects {0,4} of every 8 element bytes; three periods
	// select {0,4,8,12,16,20}.
	var got []int64
	pv.WalkRange(0, 23, func(seg falls.LineSegment) bool {
		for x := seg.L; x <= seg.R; x++ {
			got = append(got, x)
		}
		return true
	})
	want := []int64{0, 4, 8, 12, 16, 20}
	if len(got) != len(want) {
		t.Fatalf("periodic walk = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("periodic walk = %v, want %v", got, want)
		}
	}
	// Clipped window.
	if n := pv.BytesIn(4, 12); n != 3 { // bytes 4, 8, 12
		t.Errorf("BytesIn(4,12) = %d, want 3", n)
	}
	if n := pv.SegmentsIn(0, 23); n != 6 {
		t.Errorf("SegmentsIn = %d, want 6", n)
	}
}

// TestProjectionWalkStopsAtFalse: once fn returns false the walk is
// over, in this period and every later one. Scatter/gather callers
// stop on an error and may already have released the buffer fn fills.
func TestProjectionWalkStopsAtFalse(t *testing.T) {
	// Bytes {0,1} and {4,5} of every 8: two segments per period, six
	// periods in the window.
	p := &Projection{Set: falls.Set{falls.MustLeaf(0, 1, 4, 2)}, Period: 8, Bytes: 4}
	for stopAt := 1; stopAt <= 4; stopAt++ {
		calls := 0
		p.WalkRange(0, 47, func(falls.LineSegment) bool {
			calls++
			return calls < stopAt
		})
		if calls != stopAt {
			t.Fatalf("fn returned false on call %d, but was called %d times", stopAt, calls)
		}
	}
}

// TestProjectionContiguity: identical partitions project each element
// onto itself contiguously; mismatched ones do not.
func TestProjectionContiguity(t *testing.T) {
	rows, _ := part.RowBlocks(8, 8, 4)
	cols, _ := part.ColBlocks(8, 8, 4)
	fr := part.MustFile(0, rows)
	fr2 := part.MustFile(0, rows)
	fc := part.MustFile(0, cols)

	// Perfect match: element 1 of rows vs element 1 of rows.
	inter, _ := IntersectElements(fr, 1, fr2, 1)
	proj, err := Project(inter, core.MustMapper(fr, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !proj.IsContiguous(0, 15) {
		t.Error("perfect-match projection should be contiguous over the whole element")
	}

	// Poor match: rows element 1 vs columns element 0 — fragments.
	inter, _ = IntersectElements(fr, 1, fc, 0)
	proj, err = Project(inter, core.MustMapper(fr, 1))
	if err != nil {
		t.Fatal(err)
	}
	if proj.IsContiguous(0, 15) {
		t.Error("row/column projection should be fragmented")
	}
	if got := proj.SegmentsIn(0, 15); got != 2 {
		t.Errorf("row view ∩ column subfile: %d segments per element, want 2 (one per row)", got)
	}
}

func TestProjectionEmptyIntersection(t *testing.T) {
	rows, _ := part.RowBlocks(8, 8, 4)
	f1 := part.MustFile(0, rows)
	f2 := part.MustFile(0, rows)
	inter, _ := IntersectElements(f1, 0, f2, 3)
	proj, err := Project(inter, core.MustMapper(f1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !proj.Empty() {
		t.Error("projection of empty intersection should be empty")
	}
	if proj.BytesIn(0, 100) != 0 {
		t.Error("empty projection selects bytes")
	}
	if !proj.IsContiguous(5, 4) {
		t.Error("empty window should count as contiguous")
	}
}

func TestProjectValidation(t *testing.T) {
	fv := fileAround(t, fig4V(), 32, 0)
	if _, err := Project(nil, core.MustMapper(fv, 0)); err == nil {
		t.Error("nil intersection accepted")
	}
	inter, _ := IntersectElements(fv, 0, fv, 0)
	if _, err := Project(inter, nil); err == nil {
		t.Error("nil mapper accepted")
	}
}
