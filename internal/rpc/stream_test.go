package rpc

import (
	"bytes"
	"context"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"parafile/internal/falls"
	"parafile/internal/fault"
	"parafile/internal/obs"
	"parafile/internal/redist"
)

// stream_test.go covers chunked streamed transfers, the multiplexed
// connection they ride on, the fault matrix mid-stream, and the
// retention caps on the frame pool.

// streamCfg is a client configuration that forces every segment
// operation onto the streamed path with several chunks per op.
func streamCfg(addr string, reg *obs.Registry) ClientConfig {
	return ClientConfig{
		Addr:            addr,
		ChunkSize:       64 << 10,
		StreamThreshold: 1,
		BackoffBase:     time.Millisecond,
		Metrics:         reg,
	}
}

// waitNoGoroutineLeak waits for the goroutine count to settle back to
// the baseline.
func waitNoGoroutineLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestStreamedWriteReadRoundTrip(t *testing.T) {
	addr, _ := startServer(t, ServerConfig{})
	reg := obs.NewRegistry()
	c := NewClient(streamCfg(addr, reg))
	defer c.Close()
	ctx := context.Background()
	if err := c.CreateFile(ctx, &CreateFileReq{Name: "f", Phys: encodeTestPhys(t), Subfiles: []int{0}}); err != nil {
		t.Fatal(err)
	}
	// ~5 chunks of payload, not chunk-aligned on purpose.
	data := make([]byte, 5*(64<<10)+12345)
	rand.New(rand.NewSource(42)).Read(data)
	if err := c.WriteSegments(ctx, &WriteSegsReq{File: "f", Subfile: 0, Lo: 0, Hi: int64(len(data)) - 1, Data: data}); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := c.ReadSegments(ctx, &ReadSegsReq{File: "f", Subfile: 0, Lo: 0, Hi: int64(len(data)) - 1, N: int64(len(data))}, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("streamed read-back differs from what was written")
	}
	if v := reg.Counter(MetricClientStreamedOps + `{dir="write"}`).Value(); v == 0 {
		t.Fatal("write did not travel the streamed path")
	}
	if v := reg.Counter(MetricClientStreamedOps + `{dir="read"}`).Value(); v == 0 {
		t.Fatal("read did not travel the streamed path")
	}
	if v := reg.Counter(MetricClientChunks + `{dir="sent"}`).Value(); v < 6 {
		t.Fatalf("only %d chunks sent for a 5.2-chunk payload", v)
	}
	if v := reg.Counter(MetricClientChunks + `{dir="received"}`).Value(); v < 6 {
		t.Fatalf("only %d chunks received for a 5.2-chunk payload", v)
	}
}

func TestStreamedMatchesMonolithic(t *testing.T) {
	// Bytes written streamed must read back identically through a
	// client with streaming off (monolithic unary frames), and vice
	// versa.
	addr, _ := startServer(t, ServerConfig{})
	ctx := context.Background()
	sc := NewClient(streamCfg(addr, nil))
	defer sc.Close()
	mc := NewClient(ClientConfig{Addr: addr, StreamThreshold: -1})
	defer mc.Close()
	if err := sc.CreateFile(ctx, &CreateFileReq{Name: "f", Phys: encodeTestPhys(t), Subfiles: []int{0}}); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 300<<10)
	rand.New(rand.NewSource(7)).Read(data)
	hi := int64(len(data)) - 1
	if err := sc.WriteSegments(ctx, &WriteSegsReq{File: "f", Subfile: 0, Lo: 0, Hi: hi, Data: data}); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := mc.ReadSegments(ctx, &ReadSegsReq{File: "f", Subfile: 0, Lo: 0, Hi: hi, N: int64(len(data))}, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("monolithic read of a streamed write differs")
	}
	// Reverse direction: monolithic write, streamed read.
	for i := range data {
		data[i] ^= 0xFF
	}
	if err := mc.WriteSegments(ctx, &WriteSegsReq{File: "f", Subfile: 0, Lo: 0, Hi: hi, Data: data}); err != nil {
		t.Fatal(err)
	}
	if err := sc.ReadSegments(ctx, &ReadSegsReq{File: "f", Subfile: 0, Lo: 0, Hi: hi, N: int64(len(data))}, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("streamed read of a monolithic write differs")
	}
}

func TestMuxSingleConnConcurrency(t *testing.T) {
	// Concurrent streamed operations share one multiplexed connection:
	// exactly one dial, no per-request sockets.
	addr, _ := startServer(t, ServerConfig{})
	reg := obs.NewRegistry()
	c := NewClient(streamCfg(addr, reg))
	defer c.Close()
	ctx := context.Background()
	if err := c.CreateFile(ctx, &CreateFileReq{Name: "f", Phys: encodeTestPhys(t), Subfiles: []int{0}}); err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			data := make([]byte, 200<<10)
			rand.New(rand.NewSource(int64(w))).Read(data)
			lo := int64(w) * int64(len(data))
			hi := lo + int64(len(data)) - 1
			if err := c.WriteSegments(ctx, &WriteSegsReq{File: "f", Subfile: 0, Lo: lo, Hi: hi, Data: data}); err != nil {
				errs <- err
				return
			}
			got := make([]byte, len(data))
			if err := c.ReadSegments(ctx, &ReadSegsReq{File: "f", Subfile: 0, Lo: lo, Hi: hi, N: int64(len(data))}, got); err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(got, data) {
				t.Errorf("worker %d read back different bytes", w)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if dials := reg.Counter(MetricClientDials).Value(); dials != 1 {
		t.Fatalf("%d dials for %d concurrent workers, want 1 multiplexed connection", dials, workers)
	}
}

func TestStreamFaultMatrix(t *testing.T) {
	// Mid-stream faults: the connection dies N bytes into a chunked
	// write, a response chunk is corrupted in flight, a response stalls
	// past the read timeout. Each kills the multiplexed connection; the
	// idempotent retry redials and the operation still completes with
	// the right bytes.
	cases := []struct {
		name   string
		rule   fault.Rule
		cfg    func(*ClientConfig)
		metric string
	}{
		{
			// After skips the hello (3 socket writes), CreateFile (4)
			// and the stream header (3) so the injected reset lands
			// amid the chunk frames of the big write.
			name:   "conn dies mid-stream",
			rule:   fault.Rule{Node: fault.AnyNode, Op: fault.OpConnWrite, Kind: fault.ErrorOnce, After: 11},
			metric: MetricClientRetries,
		},
		{
			name:   "corrupt response chunk",
			rule:   fault.Rule{Node: fault.AnyNode, Op: fault.OpConnRead, Kind: fault.Corrupt, Times: 1},
			metric: MetricClientRetries,
		},
		{
			name: "response stalls past timeout",
			rule: fault.Rule{Node: fault.AnyNode, Op: fault.OpConnRead, Kind: fault.Delay, Delay: 400 * time.Millisecond, Times: 1},
			cfg: func(cfg *ClientConfig) {
				cfg.ReadTimeout = 50 * time.Millisecond
			},
			metric: MetricClientTimeouts,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			addr, _ := startServer(t, ServerConfig{})
			before := runtime.NumGoroutine()
			inj := fault.NewInjector(fault.Plan{Seed: 11, Rules: []fault.Rule{tc.rule}}, nil)
			reg := obs.NewRegistry()
			cfg := streamCfg(addr, reg)
			cfg.Dialer = inj.Dialer(nil)
			if tc.cfg != nil {
				tc.cfg(&cfg)
			}
			c := NewClient(cfg)
			ctx := context.Background()
			if err := c.CreateFile(ctx, &CreateFileReq{Name: "f", Phys: encodeTestPhys(t), Subfiles: []int{0}}); err != nil {
				t.Fatal(err)
			}
			data := make([]byte, 400<<10)
			rand.New(rand.NewSource(5)).Read(data)
			hi := int64(len(data)) - 1
			if err := c.WriteSegments(ctx, &WriteSegsReq{File: "f", Subfile: 0, Lo: 0, Hi: hi, Data: data}); err != nil {
				t.Fatalf("write with %s: %v", tc.name, err)
			}
			if inj.Injected(0) == 0 {
				t.Fatal("fault rule never fired")
			}
			got := make([]byte, len(data))
			if err := c.ReadSegments(ctx, &ReadSegsReq{File: "f", Subfile: 0, Lo: 0, Hi: hi, N: int64(len(data))}, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("bytes differ after mid-stream fault recovery")
			}
			if reg.Counter(tc.metric).Value() == 0 {
				t.Fatalf("%s stayed zero", tc.metric)
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			waitNoGoroutineLeak(t, before)
		})
	}
}

func TestStreamClientCancelMidWrite(t *testing.T) {
	// A context that expires between chunks aborts the stream: the
	// client tells the server to drop the partial write, the operation
	// reports the cancellation, and neither side strands a goroutine —
	// the connection itself stays usable.
	addr, _ := startServer(t, ServerConfig{})
	before := runtime.NumGoroutine()
	inj := fault.NewInjector(fault.Plan{Seed: 13, Rules: []fault.Rule{
		// Skip the hello (3 socket writes) and CreateFile (4) writes,
		// then slow every chunk frame so the deadline lands between
		// chunks.
		{Node: fault.AnyNode, Op: fault.OpConnWrite, Kind: fault.Delay, Delay: 30 * time.Millisecond, After: 7, Times: 12},
	}}, nil)
	cfg := streamCfg(addr, nil)
	cfg.Dialer = inj.Dialer(nil)
	c := NewClient(cfg)
	ctx := context.Background()
	if err := c.CreateFile(ctx, &CreateFileReq{Name: "f", Phys: encodeTestPhys(t), Subfiles: []int{0}}); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 512<<10)
	cctx, cancel := context.WithTimeout(ctx, 45*time.Millisecond)
	defer cancel()
	err := c.WriteSegments(cctx, &WriteSegsReq{File: "f", Subfile: 0, Lo: 0, Hi: int64(len(data)) - 1, Data: data})
	if err == nil {
		t.Fatal("write succeeded despite a context deadline mid-stream")
	}
	// The same client performs a clean operation afterwards.
	small := []byte("still alive")
	if err := c.WriteSegments(ctx, &WriteSegsReq{File: "f", Subfile: 0, Lo: 0, Hi: int64(len(small)) - 1, Data: small}); err != nil {
		t.Fatalf("write after cancelled stream: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	waitNoGoroutineLeak(t, before)
}

// TestProjectedReadStreamSurvivesClientDrop: a client that drops its
// connection while the daemon is still walking a many-period
// projection for a read stream must cost the daemon that stream and
// nothing more. The producer stops at the first chunk it cannot hand
// over; resuming the walk in the next period would gather into the
// chunk buffer it already released and bring the process down.
func TestProjectedReadStreamSurvivesClientDrop(t *testing.T) {
	addr, _ := startServer(t, ServerConfig{})
	c := NewClient(ClientConfig{Addr: addr})
	defer c.Close()
	ctx := context.Background()
	if err := c.CreateFile(ctx, &CreateFileReq{Name: "f", Phys: encodeTestPhys(t), Subfiles: []int{0}}); err != nil {
		t.Fatal(err)
	}
	// Bytes {0,1} and {4,5} of every 8 over a 1 MiB window: 131072
	// periods, 256 KiB selected, 4096 chunks of 64 bytes.
	proj := &redist.Projection{Set: falls.Set{falls.MustLeaf(0, 1, 4, 2)}, Period: 8, Bytes: 4}
	enc := redist.EncodeProjection(proj)
	fp := Fingerprint(enc)
	if err := c.SetView(ctx, fp, enc); err != nil {
		t.Fatal(err)
	}
	const window = 1 << 20
	if err := c.WriteSegments(ctx, &WriteSegsReq{File: "f", Subfile: 0, Lo: 0, Hi: window - 1, Data: make([]byte, window)}); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(conn, AppendHelloTenant(nil, ProtoVersion3, 0, "")); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFrame(conn, 0); err != nil {
		t.Fatal(err)
	}
	req := AppendReadStream(nil, 1, &ReadStreamReq{File: "f", Subfile: 0, Fingerprint: fp,
		Lo: 0, Hi: window - 1, N: proj.BytesIn(0, window-1), ChunkSize: 64})
	if err := WriteFrame(conn, req); err != nil {
		t.Fatal(err)
	}
	// The first chunk is on the wire: the producer is mid-walk. Drop
	// the connection with the rest unread.
	if _, err := ReadFrame(conn, 0); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	waitNoGoroutineLeak(t, before)

	// The daemon still serves.
	if n, err := c.Stat(ctx, "f", 0); err != nil || n != window {
		t.Fatalf("stat after the dropped stream = (%d, %v)", n, err)
	}
}

func TestFramePoolRetentionCap(t *testing.T) {
	base := FramePoolDiscards()
	putFrameBuf(make([]byte, maxPooledFrame+1))
	if got := FramePoolDiscards() - base; got != 1 {
		t.Fatalf("oversized buffer discards = %d, want 1", got)
	}
	// At the cap the buffer still pools (no discard).
	base = FramePoolDiscards()
	putFrameBuf(make([]byte, maxPooledFrame))
	if got := FramePoolDiscards() - base; got != 0 {
		t.Fatalf("cap-sized buffer was discarded (%d)", got)
	}
}
