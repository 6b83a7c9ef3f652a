package main

import (
	"bufio"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Op kinds. Every timed operation of every workload is one of these;
// the end-to-end metrics are named after them.
const (
	opWrite     = "write"
	opRead      = "read"
	opRestart   = "restart"
	opRebalance = "rebalance"
)

var opKinds = []string{opWrite, opRead, opRestart, opRebalance}

// samples holds the latency samples and CPU cost of a set of cycles.
// It travels as JSON from a measuring process to the parent.
type samples struct {
	Durs      map[string][]time.Duration
	Bytes     map[string]int64 // user bytes of each op kind
	CPU       time.Duration    // process CPU inside outermost timed ops
	UserBytes int64            // user bytes of outermost timed ops
	Cycles    int
}

func newSamples() *samples {
	return &samples{Durs: map[string][]time.Duration{}, Bytes: map[string]int64{}}
}

func (s *samples) add(o *samples) {
	for k, v := range o.Durs {
		s.Durs[k] = append(s.Durs[k], v...)
	}
	for k, v := range o.Bytes {
		s.Bytes[k] += v
	}
	s.CPU += o.CPU
	s.UserBytes += o.UserBytes
	s.Cycles += o.Cycles
}

// meter times the closed loop's operations. An operation may run
// inside another (the read phase of a restart): each records its own
// latency sample, but CPU time and user bytes for cpu_s_per_GB are
// counted at the outermost level only, so nothing is counted twice.
// Samples are kept per cycle, and endCycle files the cycle as clean or
// disturbed (see hostSteal).
type meter struct {
	cur, clean, disturbed *samples
	attempted             int
	failed                int
	problems              []string
	depth                 int
	lt                    *layerTrace // nil when untraced
}

func newMeter(lt *layerTrace) *meter {
	return &meter{cur: newSamples(), clean: newSamples(), disturbed: newSamples(), lt: lt}
}

// op runs fn as one timed operation of the given kind. fn returns the
// user bytes the operation moved. A failed operation records no
// latency sample and counts against fail_ratio.
func (m *meter) op(kind string, fn func() (int64, error)) error {
	m.attempted++
	m.depth++
	outer := m.depth == 1
	var c0 time.Duration
	if outer {
		c0 = cpuTime()
	}
	fr := m.lt.begin(kind)
	t0 := time.Now()
	n, err := fn()
	d := time.Since(t0)
	m.lt.end(fr, d, n, err == nil)
	if outer {
		m.cur.CPU += cpuTime() - c0
	}
	m.depth--
	if err != nil {
		m.fail(kind + ": " + err.Error())
		return err
	}
	m.cur.Durs[kind] = append(m.cur.Durs[kind], d)
	m.cur.Bytes[kind] += n
	if outer {
		m.cur.UserBytes += n
	}
	return nil
}

// endCycle files the current cycle's samples.
func (m *meter) endCycle(disturbed bool) {
	m.cur.Cycles = 1
	if disturbed {
		m.disturbed.add(m.cur)
	} else {
		m.clean.add(m.cur)
	}
	m.cur = newSamples()
}

// check records an oracle verdict made outside the timed region. A
// mismatch counts as a failed operation.
func (m *meter) check(ok bool, what string) {
	if !ok {
		m.fail("oracle: " + what)
	}
}

func (m *meter) fail(msg string) {
	m.failed++
	if len(m.problems) < 16 {
		m.problems = append(m.problems, msg)
	}
}

// quantile is the linearly interpolated q-quantile of ds (ms).
func quantile(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	lo := int(pos)
	hi := lo
	if lo+1 < len(s) {
		hi = lo + 1
	}
	frac := pos - float64(lo)
	v := float64(s[lo])*(1-frac) + float64(s[hi])*frac
	return v / 1e6
}

func medianDur(ds []time.Duration) time.Duration {
	return time.Duration(quantile(ds, 0.5) * 1e6)
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// mbps is the aggregate rate of a set of ops: their user bytes over
// their summed wall time.
func mbps(bytes int64, ds []time.Duration) float64 {
	var total time.Duration
	for _, d := range ds {
		total += d
	}
	if total <= 0 {
		return 0
	}
	return float64(bytes) / (1 << 20) / total.Seconds()
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostSteal reads the cumulative CPU time, in clock ticks, that the
// hypervisor took from this machine's vCPUs (steal) and the total of
// all CPU time, from /proc/stat. ok is false where it is unreadable.
func hostSteal() (steal, total uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total, true
}

// peakRSSMB reads VmHWM, the process's peak resident set.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}
