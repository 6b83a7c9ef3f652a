// Command perfbench is parafile's end-to-end benchmark. It runs one
// named workload as a closed loop — one client goroutine issuing one
// collective operation at a time, on one P (benchProcs) — through the
// public API: clusterfile
// over the rpc transport to in-process daemons on loopback, or meta.FS
// for the rebalance workload. It checks every byte it reads back and
// prints the run's metrics; the last line of standard output is the
// result object.
//
//	go run . -workload stripe-rw -seed 1 -seconds 10 -trace 0
//
// With -trace 0 the result carries the end-to-end metrics; with
// -trace 1 the run is instrumented from the outside (see trace.go) and
// the result carries the per-layer metrics, while the full record
// keeps the traced end-to-end metrics for the tracing-overhead
// comparison (compare.py overhead).
//
// run.py starts it with GODEBUG=madvdontneed=0, so the runtime returns
// freed heap pages with MADV_FREE rather than MADV_DONTNEED. The
// benchmark's heap turns over its headroom every cycle; with
// MADV_DONTNEED each turn faulted the pages back in (about 190k minor
// faults per 5 s of ckpt-nm against 75k, the first population of the
// heap), and on a VM whose freed pages the host reclaims, the cost of
// those faults follows the host's memory load rather than the program.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// workload is one named input set of the benchmark.
type workload interface {
	params() map[string]any
	// prepare generates inputs and oracles from the seed (untimed).
	prepare(seed uint64) error
	// setup brings the system up to the first timed op: daemons up,
	// files created, connections warm, views set.
	setup(ctx context.Context) error
	// cycle runs one closed-loop cycle of timed ops and their oracles.
	cycle(ctx context.Context, k int, m *meter) error
	// direct times the layers under the workload (traced runs only).
	direct(ctx context.Context) error
	teardown() error
}

var workloadNames = []string{"stripe-rw", "ckpt-nm", "rebalance"}

func newWorkload(name string, lt *layerTrace) (workload, error) {
	switch name {
	case "stripe-rw":
		return newStripeRW(lt)
	case "ckpt-nm":
		return newCkptNM(lt)
	case "rebalance":
		return newRebalance(lt), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// A run measures in processesPerRun fresh processes, one after
// another, each for an equal share of -seconds, and pools their
// samples. The processes differ: ckpt-nm's restart latencies fall into
// two modes about 30 ms apart, and the share in the slow one changes
// from process to process, so one process's median is a draw from
// either mode (a 21% spread over ten one-process runs, 6% pooled over
// three). Traced runs measure in one process, which owns the layer
// record.
const processesPerRun = 3

// setupsPerProcess is how many times each process sets the workload
// up; setup_s is the median over all of a run's set-ups.
const setupsPerProcess = 2

// The timed loop runs until it holds its share of -seconds in clean
// cycles, or for loopCap times that share in all. A cycle is disturbed
// when the hypervisor stole more than disturbedSteal of the machine's
// CPU time during it: on a shared host, steal swings between runs from
// about 1% to 30% and slows every op with it, so cycles measured under
// it would make the run's figures a measure of the neighbours.
const (
	loopCap        = 1.15
	disturbedSteal = 0.10
)

// minCleanCycles is the number of undisturbed cycles from which a run
// reports them alone.
const minCleanCycles = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type env struct {
	GOMAXPROCS int            `json:"gomaxprocs"`
	NProc      int            `json:"nproc"`
	GoVersion  string         `json:"go_version"`
	Commit     string         `json:"commit"`
	Seed       uint64         `json:"seed"`
	Workload   string         `json:"workload"`
	Seconds    int            `json:"seconds"`
	Trace      bool           `json:"trace"`
	Processes  int            `json:"processes"`
	GODEBUG    string         `json:"godebug"`
	Params     map[string]any `json:"params"`
}

// measurement is what measuring processes report: their cycles'
// samples, filed clean or disturbed, their set-up times and failures.
type measurement struct {
	Clean, Disturbed    *samples
	SetupS              []float64
	Attempted, Failed   int
	Problems            []string
	LoopS               float64
	StealTicks, CPUTick uint64
	RSSPeakMB           float64
}

func newMeasurement() *measurement {
	return &measurement{Clean: newSamples(), Disturbed: newSamples()}
}

func (ms *measurement) add(o *measurement) {
	ms.Clean.add(o.Clean)
	ms.Disturbed.add(o.Disturbed)
	ms.SetupS = append(ms.SetupS, o.SetupS...)
	ms.Attempted += o.Attempted
	ms.Failed += o.Failed
	ms.Problems = append(ms.Problems, o.Problems...)
	ms.LoopS += o.LoopS
	ms.StealTicks += o.StealTicks
	ms.CPUTick += o.CPUTick
	ms.RSSPeakMB = max(ms.RSSPeakMB, o.RSSPeakMB)
}

func (ms *measurement) fail(msg string) {
	ms.Failed++
	ms.Problems = append(ms.Problems, msg)
}

// kept returns the samples the run reports: the undisturbed cycles
// when there are enough of them, else every cycle.
func (ms *measurement) kept() (s *samples, cleanOnly bool) {
	if ms.Clean.Cycles >= minCleanCycles {
		return ms.Clean, true
	}
	all := newSamples()
	all.add(ms.Clean)
	all.add(ms.Disturbed)
	return all, false
}

// record is the full result of one run, kept for compare.py.
type record struct {
	Schema    string            `json:"schema"`
	Env       env               `json:"env"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	FailRatio float64           `json:"fail_ratio"`
	Problems  []string          `json:"problems,omitempty"`
	E2E       map[string]metric `json:"e2e"`
	Samples   map[string]int    `json:"samples"`
	Tail      map[string]metric `json:"tail"`
	// Quartiles holds each op kind's latency q1/median/q3 (ms), to
	// judge the spread inside a run.
	Quartiles map[string][3]float64 `json:"quartiles_ms"`
	Layers    map[string]metric     `json:"layers,omitempty"`
	// Cycles are filed clean or disturbed by the host's CPU steal
	// during them; the metrics come from the clean ones when there are
	// at least minCleanCycles (CleanOnly).
	CleanCycles     int       `json:"cycles_clean"`
	DisturbedCycles int       `json:"cycles_disturbed"`
	CleanOnly       bool      `json:"clean_cycles_only"`
	StealShare      float64   `json:"host_steal_share"`
	LoopS           float64   `json:"loop_s"`
	SetupS          []float64 `json:"setup_s_reps"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// benchProcs is the benchmark's GOMAXPROCS unless the GOMAXPROCS
// environment variable sets one. Every workload is serial — one client
// goroutine driving a single-threaded event kernel — so a second P
// adds only cross-CPU wake-ups, and on a shared VM waking an idle vCPU
// waits on the host: at GOMAXPROCS=2 the host stole 13-30% of CPU time
// from the runs against 1-3% at 1, with no op faster.
const benchProcs = 1

func main() {
	if os.Getenv("GOMAXPROCS") == "" {
		runtime.GOMAXPROCS(benchProcs)
	}
	name := flag.String("workload", "", "workload name: stripe-rw, ckpt-nm or rebalance")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "length of the timed loop")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer measurement")
	commit := flag.String("commit", "unknown", "source identity recorded in the env block")
	recordDir := flag.String("record-dir", "", "directory to keep the full record in")
	share := flag.Duration("measure", 0, "measure for this long in this process and print the raw measurement (used by the run's parent)")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench -workload <name> -seed <n> -seconds <s> -trace <0|1>")
		os.Exit(2)
	}
	if *share > 0 {
		os.Exit(measureChild(*name, *seed, *share))
	}
	code, err := run(*name, *seed, *seconds, *trace == 1, *commit, *recordDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

// measureChild is a measuring process: it prints its raw measurement
// as JSON on standard output.
func measureChild(name string, seed uint64, share time.Duration) int {
	w, err := newWorkload(name, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	ms, err := measure(context.Background(), w, nil, seed, share)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(ms); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// measureChildren runs the measuring processes one after another and
// pools what they report. A process that dies counts as a failed op.
func measureChildren(name string, seed uint64, seconds int) (*measurement, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	share := time.Duration(seconds) * time.Second / processesPerRun
	all := newMeasurement()
	for i := 0; i < processesPerRun; i++ {
		cmd := exec.Command(self, "-workload", name, "-seed", fmt.Sprint(seed), "-measure", share.String())
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			all.Attempted++
			all.fail(fmt.Sprintf("measuring process %d: %v", i, err))
			continue
		}
		ms := newMeasurement()
		if err := json.Unmarshal(out, ms); err != nil {
			return nil, fmt.Errorf("measuring process %d: %w", i, err)
		}
		all.add(ms)
	}
	return all, nil
}

// measure prepares the inputs, sets the workload up setupsPerProcess
// times, runs the timed loop for share of clean cycles (at most
// loopCap × share), takes the direct layer measurements when traced,
// and tears down. Only a failed set-up is returned as an error; every
// other failure is recorded in the measurement.
func measure(ctx context.Context, w workload, lt *layerTrace, seed uint64, share time.Duration) (*measurement, error) {
	ms := newMeasurement()
	if err := w.prepare(seed); err != nil {
		return nil, err
	}
	for i := 0; i < setupsPerProcess; i++ {
		// Every set-up starts from a collected heap, so the previous
		// one's garbage is not charged to it.
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(ctx); err != nil {
			return nil, errors.Join(fmt.Errorf("setup: %w", err), w.teardown())
		}
		ms.SetupS = append(ms.SetupS, time.Since(t0).Seconds())
		if i < setupsPerProcess-1 {
			if err := w.teardown(); err != nil {
				return nil, fmt.Errorf("teardown: %w", err)
			}
		}
	}

	m := newMeter(lt)
	runtime.GC()
	lt.startRun()
	loopStart := time.Now()
	limit := loopStart.Add(time.Duration(loopCap * float64(share)))
	var clean time.Duration
	steal0, total0, _ := hostSteal()
	for k := 0; ; k++ {
		s0, t0, ok0 := hostSteal()
		c0 := time.Now()
		// Every cycle starts from a collected heap, outside its ops. A
		// ckpt-nm cycle allocates about the heap's headroom, so left to
		// itself the collector lands in one op or another as the heap's
		// phase drifts, and a run's medians depend on where it landed;
		// collecting first halved the 10-run spread of restart_p50_ms
		// and rebalance_p50_ms there. The collections a cycle's own
		// allocation triggers still run inside its ops, at the same
		// point every cycle.
		lt.collect()
		err := w.cycle(ctx, k, m)
		if err != nil && m.failed == 0 {
			m.fail(err.Error())
		}
		d := time.Since(c0)
		s1, t1, ok1 := hostSteal()
		disturbed := ok0 && ok1 && t1 > t0 && float64(s1-s0) > disturbedSteal*float64(t1-t0)
		m.endCycle(disturbed)
		if !disturbed {
			clean += d
		}
		if err != nil || clean >= share || time.Now().After(limit) {
			break
		}
	}
	if steal1, total1, ok := hostSteal(); ok && total1 > total0 {
		ms.StealTicks, ms.CPUTick = steal1-steal0, total1-total0
	}
	ms.LoopS = time.Since(loopStart).Seconds()
	if lt != nil && m.failed == 0 {
		if err := w.direct(ctx); err != nil {
			m.fail("direct layer measurement: " + err.Error())
		}
	}
	if err := w.teardown(); err != nil {
		m.fail("teardown: " + err.Error())
	}
	ms.Clean, ms.Disturbed = m.clean, m.disturbed
	ms.Attempted, ms.Failed, ms.Problems = m.attempted, m.failed, m.problems
	ms.RSSPeakMB = peakRSSMB()
	return ms, nil
}

func run(name string, seed uint64, seconds int, traced bool, commit, recordDir string) (int, error) {
	var lt *layerTrace
	if traced {
		lt = newLayerTrace()
	}
	w, err := newWorkload(name, lt)
	if err != nil {
		return 2, err
	}
	procs := processesPerRun
	var ms *measurement
	if traced {
		procs = 1
		ms, err = measure(context.Background(), w, lt, seed, time.Duration(seconds)*time.Second)
	} else {
		ms, err = measureChildren(name, seed, seconds)
	}
	if err != nil {
		return 1, err
	}

	rec := &record{
		Schema: "perfbench/2",
		Env: env{
			GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
			GoVersion: runtime.Version(), Commit: commit, Seed: seed,
			Workload: name, Seconds: seconds, Trace: traced, Processes: procs,
			GODEBUG: os.Getenv("GODEBUG"),
			Params:  w.params(),
		},
		SetupS: ms.SetupS,
		LoopS:  ms.LoopS,
	}
	if ms.CPUTick > 0 {
		rec.StealShare = float64(ms.StealTicks) / float64(ms.CPUTick)
	}
	kept, cleanOnly := ms.kept()
	rec.CleanCycles, rec.DisturbedCycles, rec.CleanOnly = ms.Clean.Cycles, ms.Disturbed.Cycles, cleanOnly
	rec.E2E, rec.Samples, rec.Tail = endToEnd(kept, ms.SetupS, ms.RSSPeakMB)
	rec.Quartiles = map[string][3]float64{}
	for _, kind := range opKinds {
		ds := kept.Durs[kind]
		rec.Quartiles[kind] = [3]float64{quantile(ds, 0.25), quantile(ds, 0.5), quantile(ds, 0.75)}
	}
	if lt != nil {
		rec.Layers = lt.layerMetrics()
	}
	rec.Attempted, rec.Failed = ms.Attempted, ms.Failed
	if len(ms.Problems) > 16 {
		ms.Problems = ms.Problems[:16]
	}
	rec.Problems = ms.Problems
	if rec.Attempted == 0 {
		rec.Attempted = 1
		rec.Failed = 1
	}
	rec.FailRatio = float64(rec.Failed) / float64(rec.Attempted)
	rec.Correct = rec.Failed == 0

	printReport(rec)
	if err := saveRecord(recordDir, rec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: keeping record:", err)
	}
	res := result{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: rec.E2E}
	if traced {
		res.Metrics = rec.Layers
	}
	line, err := json.Marshal(res)
	if err != nil {
		return 1, err
	}
	fmt.Println(string(line))
	if !rec.Correct {
		return 1, errors.New("run failed; see problems above")
	}
	return 0, nil
}

// tailMin is the sample count from which a run reports p90: at least
// ten samples lie beyond it.
const tailMin = 100

// endToEnd derives the end-to-end metrics from the kept samples.
func endToEnd(m *samples, setups []float64, rssMB float64) (e2e map[string]metric, samples map[string]int, tail map[string]metric) {
	e2e = map[string]metric{}
	samples = map[string]int{}
	tail = map[string]metric{}
	e2e["setup_s"] = metric{median(setups), "s"}
	for _, kind := range opKinds {
		ds := m.Durs[kind]
		samples[kind] = len(ds)
		e2e[kind+"_p50_ms"] = metric{quantile(ds, 0.5), "ms"}
		if len(ds) >= tailMin {
			tail[kind+"_p90_ms"] = metric{quantile(ds, 0.9), "ms"}
		}
		if kind != opRestart {
			e2e[kind+"_MBps"] = metric{mbps(m.Bytes[kind], ds), "MB/s"}
		}
	}
	gb := float64(m.UserBytes) / (1 << 30)
	cpu := 0.0
	if gb > 0 {
		cpu = m.CPU.Seconds() / gb
	}
	e2e["cpu_s_per_GB"] = metric{cpu, "s/GB"}
	e2e["rss_peak_MB"] = metric{rssMB, "MB"}
	return e2e, samples, tail
}

func printReport(rec *record) {
	mode := "untraced"
	if rec.Env.Trace {
		mode = "traced"
	}
	fmt.Printf("perfbench %s seed=%d %s: %d+%d clean+disturbed cycles in %.1fs (host steal %.1f%%), %d ops attempted, %d failed\n",
		rec.Env.Workload, rec.Env.Seed, mode, rec.CleanCycles, rec.DisturbedCycles, rec.LoopS,
		100*rec.StealShare, rec.Attempted, rec.Failed)
	for _, p := range rec.Problems {
		fmt.Printf("  problem: %s\n", p)
	}
	printMetrics := func(title string, ms map[string]metric) {
		names := make([]string, 0, len(ms))
		for n := range ms {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Println(title)
		for _, n := range names {
			fmt.Printf("  %-34s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
		}
	}
	printMetrics("end-to-end:", rec.E2E)
	fmt.Printf("samples: %v\n", rec.Samples)
	if len(rec.Tail) > 0 {
		printMetrics("tail (runs with >= 100 samples):", rec.Tail)
	}
	if rec.Layers != nil {
		printMetrics("per-layer:", rec.Layers)
	}
}

// saveRecord keeps the full record as one JSON file for compare.py.
func saveRecord(dir string, rec *record) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	mode := 0
	if rec.Env.Trace {
		mode = 1
	}
	name := fmt.Sprintf("%s-t%d-s%d-%d.json", rec.Env.Workload, mode, rec.Env.Seed, time.Now().UnixNano())
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}
