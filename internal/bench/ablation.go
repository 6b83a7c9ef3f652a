package bench

import (
	"fmt"
	"strings"
	"time"

	"parafile/internal/obs"
	"parafile/internal/part"
	"parafile/internal/redist"
)

// ablation.go measures the plan-compilation fast paths in isolation:
// sequential vs parallel pairwise compilation, cold vs warm plan-cache
// lookups, and the segment reduction of the run-coalescing pass. The
// configurations are the §8.2 redistribution pairs — each physical
// layout (c, b, r) against the row-block target the benchmark's views
// use — so the numbers line up with Tables 1/2.

// PlanAblationRow is one (size, layout) configuration of the plan
// compilation ablation.
type PlanAblationRow struct {
	Size int64
	Phys string
	// SeqUs / ParUs are the wall times of one sequential and one
	// parallel plan compilation (Workers = 1 vs Workers).
	SeqUs, ParUs float64
	// Workers is the worker count of the parallel compilation.
	Workers int
	// ColdUs / WarmUs are the wall times of a cache miss (compile +
	// insert) and a cache hit on the same pair.
	ColdUs, WarmUs float64
	// SegsRaw / SegsCoalesced are the total copy runs per period across
	// all transfers, without and with the coalescing pass.
	SegsRaw, SegsCoalesced int64
}

// planPair builds the redistribution pair of one ablation
// configuration: the physical layout as source, row blocks as
// destination.
func planPair(phys string, n int64) (*part.File, *part.File, error) {
	pp, err := LayoutPattern(phys, n)
	if err != nil {
		return nil, nil, err
	}
	rp, err := LayoutPattern("r", n)
	if err != nil {
		return nil, nil, err
	}
	return part.MustFile(0, pp), part.MustFile(0, rp), nil
}

// RunPlanAblationObs measures every (size, layout) configuration. A
// workers value < 1 selects the CompilePlan default (GOMAXPROCS).
// Every compile records into reg (compile latency histogram, seq/par
// counters, segment counts) and parents its wall-clock span under
// trace; the per-configuration plan cache reports its hit/miss
// counters into reg too. Both may be nil.
func RunPlanAblationObs(sizes []int64, workers int, reg *obs.Registry, trace *obs.Span) ([]PlanAblationRow, error) {
	var rows []PlanAblationRow
	for _, n := range sizes {
		for _, phys := range Layouts {
			src, dst, err := planPair(phys, n)
			if err != nil {
				return nil, err
			}
			row := PlanAblationRow{Size: n, Phys: phys, Workers: workers}
			span := trace.StartChild(fmt.Sprintf("ablation %s/%d", phys, n))

			t0 := time.Now()
			seq, err := redist.CompilePlan(src, dst,
				redist.CompileOptions{Workers: 1, Metrics: reg, Trace: span})
			if err != nil {
				return nil, err
			}
			row.SeqUs = float64(time.Since(t0).Nanoseconds()) / us

			t0 = time.Now()
			if _, err := redist.CompilePlan(src, dst,
				redist.CompileOptions{Workers: workers, Metrics: reg, Trace: span}); err != nil {
				return nil, err
			}
			row.ParUs = float64(time.Since(t0).Nanoseconds()) / us

			raw, err := redist.CompilePlan(src, dst,
				redist.CompileOptions{Workers: 1, NoCoalesce: true, Metrics: reg, Trace: span})
			if err != nil {
				return nil, err
			}
			row.SegsRaw = raw.SegmentsPerPeriod()
			row.SegsCoalesced = seq.SegmentsPerPeriod()

			cache := redist.NewPlanCache(redist.DefaultCacheCapacity,
				redist.CompileOptions{Workers: workers, Trace: span})
			cache.Instrument(reg)
			t0 = time.Now()
			if _, _, err := cache.GetOrCompile(src, dst); err != nil {
				return nil, err
			}
			row.ColdUs = float64(time.Since(t0).Nanoseconds()) / us
			t0 = time.Now()
			if _, hit, err := cache.GetOrCompile(src, dst); err != nil {
				return nil, err
			} else if !hit {
				return nil, fmt.Errorf("bench: warm lookup missed the plan cache")
			}
			row.WarmUs = float64(time.Since(t0).Nanoseconds()) / us
			span.End()

			rows = append(rows, row)
		}
	}
	return rows, nil
}

// FormatPlanAblation renders the ablation table.
func FormatPlanAblation(rows []PlanAblationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Plan compilation ablation (layout -> r redistribution pairs; wall µs on this host)\n")
	fmt.Fprintf(&b, "%-6s %-4s %10s %10s %8s %10s %10s %10s %10s\n",
		"Size", "Ph.", "seq", "par", "workers", "cold", "warm", "segs", "coalesced")
	for _, r := range rows {
		w := fmt.Sprintf("%d", r.Workers)
		if r.Workers < 1 {
			w = "auto"
		}
		fmt.Fprintf(&b, "%-6d %-4s %10.0f %10.0f %8s %10.0f %10.2f %10d %10d\n",
			r.Size, r.Phys, r.SeqUs, r.ParUs, w, r.ColdUs, r.WarmUs, r.SegsRaw, r.SegsCoalesced)
	}
	return b.String()
}
