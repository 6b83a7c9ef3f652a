package main

import (
	"context"
	"net"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"parafile/internal/clusterfile"
	"parafile/internal/obs"
	"parafile/internal/part"
	"parafile/internal/redist"
	"parafile/internal/rpc"
)

// trace.go is the traced run's instrumentation. It adds nothing inside
// the program: it wraps the program's public seams (the
// clusterfile.Transport interface, the rpc client Dialer, the daemons'
// listeners), reads the series the program already exports (the obs
// registry and the stitched client traces, which carry the daemons'
// server spans), and times direct calls into public functions. Every
// method is a no-op on a nil *layerTrace, so the untraced run pays
// nothing.

// clientNode labels the client tracer's spans; everything else in a
// stitched trace ran on a daemon.
const clientNode = "client"

// layerTrace collects the per-layer record of one traced run.
type layerTrace struct {
	creg   *obs.Registry // client side: clusterfile, rpc client, meta
	tracer *obs.Tracer

	gatherNs, scatterNs, setViewNs, connWait *obs.Histogram
	bufHits, bufMisses, retries, failures    *obs.Counter

	dials, clientTx, clientRx, clientWrites atomic.Int64
	daemonBytes                             atomic.Int64

	mu     sync.Mutex
	frames []*frame // open timed ops, outermost first
	seen   map[uint64]bool
	kinds  map[string]*kindStats

	gc0, cpu0     float64
	gcSkip        float64 // GC seconds spent in collect
	cpuSkip       float64 // CPU seconds spent in collect
	framePool0    int64
	direct        map[string]float64
	rebalanceMsgs int64
}

// kindStats accumulates the traced deltas of one op kind.
type kindStats struct {
	ops                 int
	bytes               int64
	wall                time.Duration
	mallocs, allocBytes uint64
	gatherNs, scatterNs int64
	bufHits, bufMisses  uint64
	connWaits           uint64
	retries, failures   uint64
	dials, writes, wire int64
	daemonBytes         int64
	calls               []time.Duration
	callBusy, union     time.Duration
	nodeBusy            map[int]time.Duration
	serverNs            map[string]int64
}

// frame is the snapshot taken when a timed op starts, plus the
// transport calls it issued.
type frame struct {
	kind                string
	start               time.Time
	mallocs, allocBytes uint64
	gatherNs, scatterNs int64
	bufHits, bufMisses  uint64
	connWaits           uint64
	retries, failures   uint64
	dials, writes, wire int64
	daemonBytes         int64
	calls               []call
}

type call struct {
	node       int
	start, end time.Time
}

func newLayerTrace() *layerTrace {
	creg := obs.NewRegistry()
	lb := obs.LatencyBuckets()
	lt := &layerTrace{
		creg:      creg,
		tracer:    obs.NewTracer(clientNode, 1024),
		gatherNs:  creg.Histogram(clusterfile.MetricGatherNs, lb),
		scatterNs: creg.Histogram(clusterfile.MetricScatterNs, lb),
		setViewNs: creg.Histogram(clusterfile.MetricSetViewNs, lb),
		connWait:  creg.Histogram(rpc.MetricClientConnWaitNs, lb),
		bufHits:   creg.Counter(clusterfile.MetricMsgBufHits),
		bufMisses: creg.Counter(clusterfile.MetricMsgBufMisses),
		retries:   creg.Counter(rpc.MetricClientRetries),
		failures:  creg.Counter(rpc.MetricClientFailures),
		seen:      map[uint64]bool{},
		kinds:     map[string]*kindStats{},
		direct:    map[string]float64{},
	}
	for _, k := range opKinds {
		lt.kinds[k] = &kindStats{nodeBusy: map[int]time.Duration{}, serverNs: map[string]int64{}}
	}
	return lt
}

// clientRegistry and clientTracer are nil untraced.
func (lt *layerTrace) clientRegistry() *obs.Registry {
	if lt == nil {
		return nil
	}
	return lt.creg
}

func (lt *layerTrace) clientTracer() *obs.Tracer {
	if lt == nil {
		return nil
	}
	return lt.tracer
}

// clientConfig returns the rpc client template: the program's
// defaults, plus trace propagation and a counting dialer when traced.
func (lt *layerTrace) clientConfig() rpc.ClientConfig {
	if lt == nil {
		return rpc.ClientConfig{}
	}
	return rpc.ClientConfig{Trace: true, Dialer: lt.dial}
}

// wrapTransport interposes the call recorder on a cluster transport.
func (lt *layerTrace) wrapTransport(t clusterfile.Transport) clusterfile.Transport {
	if lt == nil {
		return t
	}
	return &tracedTransport{inner: t, lt: lt}
}

// listen opens a daemon listener on loopback, counting socket bytes
// when traced.
func (lt *layerTrace) listen() (net.Listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil || lt == nil {
		return ln, err
	}
	return &countListener{Listener: ln, bytes: &lt.daemonBytes}, nil
}

// collect runs the collection each cycle starts with. Its GC and CPU
// time are the benchmark's own, so go.gc_cpu_fraction leaves them out.
func (lt *layerTrace) collect() {
	if lt == nil {
		runtime.GC()
		return
	}
	gc0, cpu0 := gcCPU()
	runtime.GC()
	gc1, cpu1 := gcCPU()
	lt.gcSkip += gc1 - gc0
	lt.cpuSkip += cpu1 - cpu0
}

// startRun marks the start of the timed loop.
func (lt *layerTrace) startRun() {
	if lt == nil {
		return
	}
	lt.gc0, lt.cpu0 = gcCPU()
	lt.framePool0 = rpc.FramePoolDiscards()
}

func (lt *layerTrace) begin(kind string) *frame {
	if lt == nil {
		return nil
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	f := &frame{
		kind:        kind,
		mallocs:     ms.Mallocs,
		allocBytes:  ms.TotalAlloc,
		gatherNs:    lt.gatherNs.Sum(),
		scatterNs:   lt.scatterNs.Sum(),
		bufHits:     lt.bufHits.Value(),
		bufMisses:   lt.bufMisses.Value(),
		connWaits:   lt.connWait.Count(),
		retries:     lt.retries.Value(),
		failures:    lt.failures.Value(),
		dials:       lt.dials.Load(),
		writes:      lt.clientWrites.Load(),
		wire:        lt.clientTx.Load() + lt.clientRx.Load(),
		daemonBytes: lt.daemonBytes.Load(),
	}
	lt.mu.Lock()
	lt.frames = append(lt.frames, f)
	lt.mu.Unlock()
	f.start = time.Now()
	return f
}

func (lt *layerTrace) end(f *frame, wall time.Duration, bytes int64, ok bool) {
	if lt == nil {
		return
	}
	end := time.Now()
	lt.mu.Lock()
	lt.frames = lt.frames[:len(lt.frames)-1]
	lt.mu.Unlock()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if !ok {
		return
	}
	k := lt.kinds[f.kind]
	k.ops++
	k.bytes += bytes
	k.wall += wall
	k.mallocs += ms.Mallocs - f.mallocs
	k.allocBytes += ms.TotalAlloc - f.allocBytes
	k.gatherNs += lt.gatherNs.Sum() - f.gatherNs
	k.scatterNs += lt.scatterNs.Sum() - f.scatterNs
	k.bufHits += lt.bufHits.Value() - f.bufHits
	k.bufMisses += lt.bufMisses.Value() - f.bufMisses
	k.connWaits += lt.connWait.Count() - f.connWaits
	k.retries += lt.retries.Value() - f.retries
	k.failures += lt.failures.Value() - f.failures
	k.dials += lt.dials.Load() - f.dials
	k.writes += lt.clientWrites.Load() - f.writes
	k.wire += lt.clientTx.Load() + lt.clientRx.Load() - f.wire
	k.daemonBytes += lt.daemonBytes.Load() - f.daemonBytes
	var union time.Duration
	var last time.Time
	sort.Slice(f.calls, func(i, j int) bool { return f.calls[i].start.Before(f.calls[j].start) })
	for _, c := range f.calls {
		d := c.end.Sub(c.start)
		k.calls = append(k.calls, d)
		k.callBusy += d
		k.nodeBusy[c.node] += d
		s := c.start
		if s.Before(last) {
			s = last
		}
		if c.end.After(s) {
			union += c.end.Sub(s)
			last = c.end
		}
	}
	if union > end.Sub(f.start) {
		union = end.Sub(f.start)
	}
	k.union += union
	lt.collectSpans(k)
}

// collectSpans folds the server spans of every stitched trace that
// completed since the last call into the op kind's self times.
func (lt *layerTrace) collectSpans(k *kindStats) {
	for _, tree := range lt.tracer.Recent() {
		if lt.seen[tree.TraceID] {
			continue
		}
		lt.seen[tree.TraceID] = true
		addSelf(tree.Root, k.serverNs)
	}
}

// addSelf adds each daemon span's self time — its duration minus the
// part its children cover — under the span's name.
func addSelf(n *obs.TraceNode, acc map[string]int64) {
	if n == nil {
		return
	}
	if n.Node != clientNode {
		self := n.DurationNs()
		for _, c := range n.Children {
			self -= c.DurationNs()
		}
		if self > 0 {
			acc[n.Name] += self
		}
	}
	for _, c := range n.Children {
		addSelf(c, acc)
	}
}

// addMessages counts a layout change's redistribution messages.
func (lt *layerTrace) addMessages(n int) {
	if lt == nil {
		return
	}
	lt.rebalanceMsgs += int64(n)
}

// recordCall logs one transport call against every open op.
func (lt *layerTrace) recordCall(node int, start, end time.Time) {
	lt.mu.Lock()
	for _, f := range lt.frames {
		f.calls = append(f.calls, call{node: node, start: start, end: end})
	}
	lt.mu.Unlock()
}

// dial is the counting rpc.ClientConfig.Dialer.
func (lt *layerTrace) dial(ctx context.Context, network, addr string) (net.Conn, error) {
	var d net.Dialer
	c, err := d.DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	lt.dials.Add(1)
	return &clientConn{Conn: c, lt: lt}, nil
}

type clientConn struct {
	net.Conn
	lt *layerTrace
}

func (c *clientConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.lt.clientWrites.Add(1)
	c.lt.clientTx.Add(int64(n))
	return n, err
}

func (c *clientConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.lt.clientRx.Add(int64(n))
	return n, err
}

type countListener struct {
	net.Listener
	bytes *atomic.Int64
}

func (l *countListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countConn{Conn: c, bytes: l.bytes}, nil
}

type countConn struct {
	net.Conn
	bytes *atomic.Int64
}

func (c *countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.bytes.Add(int64(n))
	return n, err
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.bytes.Add(int64(n))
	return n, err
}

// tracedTransport records every storage call's interval and I/O node,
// the way the fault package's WrapTransport interposes on the seam.
type tracedTransport struct {
	inner clusterfile.Transport
	lt    *layerTrace
}

func (t *tracedTransport) Open(ctx context.Context, name string, phys *part.File, assign []int) ([]clusterfile.SubfileHandle, error) {
	hs, err := t.inner.Open(ctx, name, phys, assign)
	if err != nil {
		return nil, err
	}
	for i, h := range hs {
		hs[i] = &tracedHandle{inner: h, node: assign[i], lt: t.lt}
	}
	return hs, nil
}

func (t *tracedTransport) Close() error { return t.inner.Close() }

type tracedHandle struct {
	inner clusterfile.SubfileHandle
	node  int
	lt    *layerTrace
}

func (h *tracedHandle) done(start time.Time) { h.lt.recordCall(h.node, start, time.Now()) }

func (h *tracedHandle) EnsureLen(ctx context.Context, n int64) error {
	defer h.done(time.Now())
	return h.inner.EnsureLen(ctx, n)
}

func (h *tracedHandle) Len(ctx context.Context) (int64, error) {
	defer h.done(time.Now())
	return h.inner.Len(ctx)
}

func (h *tracedHandle) WriteAt(ctx context.Context, p []byte, off int64) error {
	defer h.done(time.Now())
	return h.inner.WriteAt(ctx, p, off)
}

func (h *tracedHandle) ReadAt(ctx context.Context, p []byte, off int64) error {
	defer h.done(time.Now())
	return h.inner.ReadAt(ctx, p, off)
}

func (h *tracedHandle) Scatter(ctx context.Context, p *redist.Projection, lo, hi int64, data []byte) error {
	defer h.done(time.Now())
	return h.inner.Scatter(ctx, p, lo, hi, data)
}

func (h *tracedHandle) Gather(ctx context.Context, p *redist.Projection, lo, hi int64, dst []byte) error {
	defer h.done(time.Now())
	return h.inner.Gather(ctx, p, lo, hi, dst)
}

func (h *tracedHandle) Checksum(ctx context.Context, off, n int64) (uint32, error) {
	defer h.done(time.Now())
	return h.inner.Checksum(ctx, off, n)
}

func (h *tracedHandle) Close() error { return h.inner.Close() }

// gcCPU reads the runtime's cumulative GC and total CPU seconds.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 || s[1].Value.Kind() != metrics.KindFloat64 {
		return 0, 0
	}
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// timeDirect runs fn reps times and returns the median wall time.
func timeDirect(reps int, fn func() error) (time.Duration, error) {
	ds := make([]time.Duration, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(t0))
	}
	return medianDur(ds), nil
}

// layerMetrics assembles the per-layer metrics of the run. Layers a
// workload does not route through read 0 (see README.md).
func (lt *layerTrace) layerMetrics() map[string]metric {
	out := map[string]metric{}
	put := func(name string, v float64, unit string) { out[name] = metric{Value: v, Unit: unit} }
	per := func(v float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return v / float64(n)
	}
	w, r, rs, rb := lt.kinds[opWrite], lt.kinds[opRead], lt.kinds[opRestart], lt.kinds[opRebalance]

	// Direct measurements and their counts (workload.direct).
	for _, name := range []string{"redist.intersect_ms", "redist.plan_compile_ms"} {
		put(name, lt.direct[name], "ms")
	}
	for _, name := range []string{"redist.pairs_nonempty", "redist.segments", "redist.segments_raw"} {
		put(name, lt.direct[name], "count")
	}
	put("redist.setview_ms", per(float64(lt.setViewNs.Sum())/1e6, int(lt.setViewNs.Count())), "ms")
	put("core.map_ns", lt.direct["core.map_ns"], "ns")
	put("meta.stat_us", lt.direct["meta.stat_us"], "us")
	put("meta.open_ms", lt.direct["meta.open_ms"], "ms")

	put("clusterfile.gather_ms_per_write", per(float64(w.gatherNs)/1e6, w.ops), "ms")
	put("clusterfile.scatter_ms_per_read", per(float64(r.scatterNs)/1e6, r.ops), "ms")
	var hits, misses uint64
	for _, k := range lt.kinds {
		hits += k.bufHits
		misses += k.bufMisses
	}
	put("clusterfile.msgbuf_hit_ratio", per(float64(hits), int(hits+misses)), "ratio")
	// Host time is op wall minus the union of transport calls; only the
	// wrapped view transports record calls.
	host := func(k *kindStats) float64 {
		if len(k.calls) == 0 {
			return 0
		}
		return per((k.wall-k.union).Seconds()*1e3, k.ops)
	}
	put("clusterfile.host_ms_per_write", host(w), "ms")
	put("clusterfile.host_ms_per_read", host(r), "ms")

	// Transport over the collective writes and reads.
	var calls []time.Duration
	var busy, wall time.Duration
	nodeBusy := map[int]time.Duration{}
	for _, k := range []*kindStats{w, r} {
		if len(k.calls) == 0 {
			continue
		}
		calls = append(calls, k.calls...)
		busy += k.callBusy
		wall += k.wall
		for n, d := range k.nodeBusy {
			nodeBusy[n] += d
		}
	}
	ops := 0
	if len(calls) > 0 {
		ops = w.ops + r.ops
	}
	put("transport.calls_per_op", per(float64(len(calls)), ops), "count")
	put("transport.call_p50_us", quantile(calls, 0.5)*1e3, "us")
	put("transport.busy_ms_per_op", per(busy.Seconds()*1e3, ops), "ms")
	overlap := 0.0
	if wall > 0 {
		overlap = busy.Seconds() / wall.Seconds()
	}
	put("transport.overlap", overlap, "ratio")
	skew := 0.0
	if len(nodeBusy) > 0 {
		var max, sum time.Duration
		for _, d := range nodeBusy {
			sum += d
			if d > max {
				max = d
			}
		}
		skew = max.Seconds() / (sum.Seconds() / float64(len(nodeBusy)))
	}
	put("transport.node_skew", skew, "ratio")

	// rpc client and wire, over every timed op.
	var all kindStats
	nOps := 0
	for _, kind := range opKinds {
		k := lt.kinds[kind]
		nOps += k.ops
		all.dials += k.dials
		all.writes += k.writes
		all.wire += k.wire
		all.connWaits += k.connWaits
		all.retries += k.retries
		all.failures += k.failures
	}
	user := w.bytes + r.bytes + rs.bytes + rb.bytes
	put("rpc.dials_per_op", per(float64(all.dials), nOps), "count")
	put("rpc.wire_bytes_per_byte", per(float64(all.wire), int(user)), "ratio")
	put("rpc.socket_writes_per_op", per(float64(all.writes), nOps), "count")
	put("rpc.retries", float64(all.retries), "count")
	put("rpc.failures", float64(all.failures), "count")
	// A request waits for a connection only when the MaxConns
	// semaphore is full, so the wait count is the signal.
	put("rpc.conn_waits", float64(all.connWaits), "count")
	put("rpc.frame_pool_discards", float64(rpc.FramePoolDiscards()-lt.framePool0), "count")

	// Daemon span self time, per op of the kind the span serves.
	srv := func(k *kindStats, span string) float64 { return per(float64(k.serverNs[span])/1e6, k.ops) }
	put("server.decode_ms", srv(w, "decode"), "ms")
	put("server.scatter_ms", srv(w, "scatter"), "ms")
	put("server.lock_wait_ms", srv(w, "lock_wait"), "ms")
	put("server.gather_ms", srv(r, "gather"), "ms")
	put("server.stream_stall_ms", srv(rb, "stream_stall"), "ms")

	put("rebalance.messages", per(float64(lt.rebalanceMsgs), rb.ops), "count")
	put("rebalance.bytes_per_moved_byte", per(float64(rb.daemonBytes), int(rb.bytes)), "ratio")

	for _, kind := range opKinds {
		k := lt.kinds[kind]
		put("go.allocs_per_"+kind, per(float64(k.mallocs), k.ops), "count")
	}
	var allocBytes uint64
	for _, k := range lt.kinds {
		allocBytes += k.allocBytes
	}
	put("go.alloc_MB_per_GB", per(float64(allocBytes)/(1<<20), int(user))*(1<<30), "MB/GB")
	gc1, cpu1 := gcCPU()
	frac := 0.0
	if cpu := cpu1 - lt.cpu0 - lt.cpuSkip; cpu > 0 {
		frac = (gc1 - lt.gc0 - lt.gcSkip) / cpu
	}
	put("go.gc_cpu_fraction", frac, "ratio")
	return out
}
