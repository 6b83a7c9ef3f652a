package rpc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"parafile/internal/clusterfile"
	"parafile/internal/falls"
	"parafile/internal/obs"
	"parafile/internal/qos"
	"parafile/internal/redist"
)

// stream.go is the daemon side of the connection, shared by every
// daemon in the repo (ServeConn): after the hello, a single read loop
// demultiplexes tagged frames and unary requests dispatch in their own
// goroutines. On a data daemon's connection the chunked-transfer
// messages additionally run as pipelines —
//
//   write stream: read loop feeds arriving chunks into a bounded
//   channel; a per-stream worker scatters them into the store while
//   later chunks are still crossing the wire. When the channel's
//   window fills, the read loop parks, which propagates TCP
//   backpressure to the client.
//
//   read stream: a producer goroutine gathers store bytes into
//   chunk-sized buffers while the stream worker sends completed
//   chunks, so disk gather and network transmission overlap.
//
// Store access locks the file per individual store operation rather
// than per whole transfer: holding the file lock across a chunk-fed
// scatter would let one stalled stream wedge every other stream of the
// same file (the chunks that would un-stall it can sit behind the
// blocked one in the read loop).

// errSenderDead stops a read-stream producer whose sender hit a
// transport error.
var errSenderDead = errors.New("rpc: stream sender failed")

// srvChunk is one arriving write-stream chunk; data aliases body.
type srvChunk struct {
	body  []byte
	data  []byte
	last  bool
	abort bool
}

// srvWriteStream is one open chunked write. The read loop owns the
// map entry and closes chunks on the last/abort chunk or connection
// death; the worker drains the channel no matter what, so the read
// loop never blocks on a dead stream forever.
type srvWriteStream struct {
	chunks chan srvChunk
}

// Endpoint is a daemon's request surface on the shared connection
// loop: what it grants in the hello and how it answers a unary
// request. parafiled's Server and parafilemd's Service each supply one.
type Endpoint struct {
	// MaxFrame bounds accepted frame bodies (DefaultMaxFrame when 0).
	MaxFrame int64
	// Grant returns the feature bits the daemon grants from the mask a
	// client's hello requested.
	Grant func(requested uint64) uint64
	// Unary answers one request and returns its encoded response frame
	// body ([ver][type][payload]); the loop sends it on the request's
	// stream and hands the buffer to the frame pool. tenant is the
	// fair-share class the hello named ("" unless FeatureTenant was
	// granted). Unary runs concurrently across a connection's requests.
	Unary func(msgType byte, payload []byte, tenant string) []byte
}

// srvConn is one multiplexed connection, daemon side.
type srvConn struct {
	ep   Endpoint
	conn net.Conn
	// s is the data daemon serving the connection, nil for any other
	// daemon: chunked streams and the byte counters are its alone.
	s          *Server
	recv, sent *obs.Counter
	// tenant is the fair-share class the hello named, fixed for the
	// connection's lifetime (the concurrent stream goroutines only ever
	// read it).
	tenant string

	// wmu serializes outgoing frames across all streams.
	wmu sync.Mutex
	// wg tracks every goroutine spawned for this connection.
	wg sync.WaitGroup

	// writeStreams is owned by the read loop goroutine.
	writeStreams map[uint64]*srvWriteStream
}

// ServeConn runs the daemon side of one accepted connection until it
// drops: the hello, then the demultiplexing loop answering every
// request through ep.Unary. It returns once every request it
// dispatched has answered; the caller closes conn.
func ServeConn(conn net.Conn, ep Endpoint) {
	serveConn(conn, ep, nil)
}

// serveConn is ServeConn, with the data daemon's chunked streams when
// s is non-nil.
func serveConn(conn net.Conn, ep Endpoint, s *Server) {
	sc := &srvConn{ep: ep, conn: conn, s: s, writeStreams: make(map[uint64]*srvWriteStream)}
	if s != nil {
		sc.recv, sc.sent = s.met.recvBytes, s.met.sentBytes
	}
	if !sc.hello() {
		return
	}
	sc.readLoop()
	for _, st := range sc.writeStreams {
		close(st.chunks)
	}
	sc.wg.Wait()
}

// hello answers the connection's first frame, which must be a MsgHello
// for this protocol version. Anything else is answered with a
// bad-request error and the connection is dropped.
func (sc *srvConn) hello() bool {
	body, err := ReadFrame(sc.conn, sc.ep.MaxFrame)
	if err != nil {
		return false
	}
	sc.recv.Add(int64(len(body) + 4))
	var want byte
	var requested uint64
	var tenant string
	msgType, payload, err := ParseFrame(body)
	if err == nil && msgType != MsgHello {
		err = fmt.Errorf("%w: connection opened with %s, want hello", ErrCorrupt, MsgName(msgType))
	}
	if err == nil {
		want, requested, tenant, err = DecodeHelloTenant(payload)
	}
	if err == nil && want != ProtoVersion3 {
		err = fmt.Errorf("%w: protocol version %d, want %d", ErrCorrupt, want, ProtoVersion3)
	}
	ReleaseFrame(body)
	if err != nil {
		// Best effort: the connection is dropped whether or not the
		// peer reads the refusal.
		resp := AppendError(getFrameBuf(64), ErrCodeBadRequest, err.Error())
		_ = sc.send(resp)
		putFrameBuf(resp)
		return false
	}
	granted := sc.ep.Grant(requested)
	if granted&FeatureTenant != 0 {
		sc.tenant = tenant
	}
	resp := AppendHelloRespFeatures(getFrameBuf(16), ProtoVersion3, granted)
	err = sc.send(resp)
	putFrameBuf(resp)
	return err == nil
}

// send writes one frame, vectored and serialized.
func (sc *srvConn) send(parts ...[]byte) error {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	if err := WriteFrameVec(sc.conn, parts...); err != nil {
		return err
	}
	sc.sent.Add(int64(n + 4))
	return nil
}

// sendResp reframes an encoded [ver][type][payload] response onto a
// stream and sends it. The response buffer stays owned by the caller.
func (sc *srvConn) sendResp(sid uint64, resp []byte) error {
	prefix := appendStreamHdr(getFrameBuf(16), resp[1], sid)
	err := sc.send(prefix, resp[2:])
	putFrameBuf(prefix)
	return err
}

// sendErr sends an error response on a stream.
func (sc *srvConn) sendErr(sid uint64, code uint64, msg string) {
	out := sc.s.errResp(getFrameBuf(64), code, msg)
	sc.sendResp(sid, out)
	putFrameBuf(out)
}

// sendOverload sends an admission refusal (with its RetryAfter hint)
// on a stream.
func (sc *srvConn) sendOverload(sid uint64, err error) {
	out := sc.s.overloadResp(getFrameBuf(64), err)
	sc.sendResp(sid, out)
	putFrameBuf(out)
}

// readLoop demultiplexes the connection until EOF, a framing error, or
// the drain wake-up.
func (sc *srvConn) readLoop() {
	for {
		body, err := ReadFrame(sc.conn, sc.ep.MaxFrame)
		if err != nil {
			return
		}
		sc.recv.Add(int64(len(body) + 4))
		msgType, rest, err := ParseFrame(body)
		var sid uint64
		var payload []byte
		if err == nil {
			sid, payload, err = splitStreamFrame(rest)
		}
		if err != nil {
			// Broken framing on a multiplexed connection poisons every
			// stream on it: drop the connection, clients retry.
			ReleaseFrame(body)
			return
		}
		if sc.s == nil {
			sc.unary(sid, msgType, body, payload)
			continue
		}
		switch msgType {
		case MsgWriteChunk:
			flags, data, cerr := splitChunk(payload)
			if cerr != nil {
				ReleaseFrame(body)
				return
			}
			st := sc.writeStreams[sid]
			if st == nil {
				// Chunk for a stream that never opened (or a duplicate
				// tail after teardown): drop it.
				ReleaseFrame(body)
				continue
			}
			ck := srvChunk{
				body:  body,
				data:  data,
				last:  flags&flagChunkLast != 0,
				abort: flags&flagChunkAbort != 0,
			}
			st.chunks <- ck
			if ck.last || ck.abort {
				close(st.chunks)
				delete(sc.writeStreams, sid)
			}
		case MsgWriteStream:
			req, derr := DecodeWriteStream(payload)
			ReleaseFrame(body)
			if derr != nil {
				return
			}
			st := &srvWriteStream{chunks: make(chan srvChunk, streamWindow)}
			sc.writeStreams[sid] = st
			sc.wg.Add(1)
			go sc.runWriteStream(sid, req, st)
		case MsgReadStream:
			req, derr := DecodeReadStream(payload)
			ReleaseFrame(body)
			if derr != nil {
				return
			}
			sc.wg.Add(1)
			go sc.runReadStream(sid, req)
		default:
			// MsgTraced envelopes take this path too — the data
			// daemon's dispatch unwraps them.
			sc.unary(sid, msgType, body, payload)
		}
	}
}

// unary dispatches one request concurrently; responses serialize under
// the write lock.
func (sc *srvConn) unary(sid uint64, msgType byte, body, payload []byte) {
	sc.wg.Add(1)
	go func() {
		defer sc.wg.Done()
		resp := sc.ep.Unary(msgType, payload, sc.tenant)
		ReleaseFrame(body)
		sc.sendResp(sid, resp)
		putFrameBuf(resp)
	}()
}

// chunkFeed pulls a write stream's bytes chunk by chunk, releasing
// each spent frame. After take returns nil, exactly one of ended /
// aborted / closed explains why.
type chunkFeed struct {
	s        *Server
	chunks   <-chan srvChunk
	cur      srvChunk
	off      int
	received int64
	ended    bool // clean last chunk consumed
	aborted  bool // client sent an abort chunk
	closed   bool // connection died before the stream finished

	// onWait, when set, runs just before take blocks on the chunk
	// channel. The scatter uses it to drop the file lock while waiting
	// on the network, so it can hold the lock across the buffered
	// chunks (per-chunk locking instead of per-segment) without ever
	// holding it through a wait — that would let one stalled stream
	// wedge every sibling stream of the same file.
	onWait func()
	// measure accumulates the blocked time into waitNs (stream-window
	// stalls: the client is slower than the scatter). Only set when
	// the stream is traced, so the untraced hot loop never reads the
	// clock for it.
	measure bool
	waitNs  int64
}

// take returns up to n unconsumed stream bytes (aliasing the chunk
// frame; valid until the next call), or nil at end of stream.
func (f *chunkFeed) take(n int64) []byte {
	for {
		if f.cur.body != nil {
			if f.off < len(f.cur.data) {
				avail := int64(len(f.cur.data) - f.off)
				if avail > n {
					avail = n
				}
				b := f.cur.data[f.off : f.off+int(avail)]
				f.off += int(avail)
				return b
			}
			if f.cur.last {
				f.ended = true
			}
			if f.cur.abort {
				f.aborted = true
			}
			ReleaseFrame(f.cur.body)
			f.cur = srvChunk{}
			f.off = 0
		}
		if f.ended || f.aborted || f.closed {
			return nil
		}
		var ck srvChunk
		var ok bool
		select {
		case ck, ok = <-f.chunks:
		default:
			if f.onWait != nil {
				f.onWait()
			}
			if f.measure {
				t0 := time.Now()
				ck, ok = <-f.chunks
				f.waitNs += time.Since(t0).Nanoseconds()
			} else {
				ck, ok = <-f.chunks
			}
		}
		if !ok {
			f.closed = true
			return nil
		}
		f.s.met.chunksRecvd.Inc()
		f.received += int64(len(ck.data))
		f.cur = ck
	}
}

// drain consumes the rest of the stream without using the bytes, so
// the read loop is never left blocked on the stream's window.
func (f *chunkFeed) drain() {
	for f.take(1<<62) != nil {
	}
}

// runWriteStream executes one chunked scatter. Mirrors
// handleWriteSegs' validation, then consumes the chunk feed through a
// single projection walk.
func (sc *srvConn) runWriteStream(sid uint64, req *WriteStreamReq, st *srvWriteStream) {
	defer sc.wg.Done()
	s := sc.s
	start := time.Now()
	s.met.inflight.Add(1)
	defer func() {
		s.met.inflight.Add(-1)
		s.met.requestNs.Observe(time.Since(start).Nanoseconds())
		s.met.poolDiscards.Set(FramePoolDiscards())
	}()
	s.met.requests[MsgWriteStream].Inc()
	s.met.streamsW.Inc()

	// Traced stream: the span adopts the caller's trace; its records
	// wait in the stash for the client's MsgSpans drain (the stream's
	// own reply stays lean).
	sp := s.startSpan("write_stream", req.TraceID, req.SpanID)
	s.cfg.Tracer.Adopt(sp)
	defer func() {
		if sp != nil {
			s.cfg.Tracer.FinishOp(sp)
			s.stash.Put(req.TraceID, sp.Records(nil))
		}
	}()

	feed := &chunkFeed{s: s, chunks: st.chunks, measure: sp != nil}
	fail := func(code uint64, msg string) {
		sp.Fail()
		feed.drain()
		if feed.closed {
			return // connection gone; nobody to answer
		}
		sc.sendErr(sid, code, msg)
	}

	if s.draining.Load() {
		fail(ErrCodeShuttingDown, "server draining")
		return
	}
	// Validate before admission: a malformed request must be refused
	// without ever touching the tenant's quota (a negative Total would
	// otherwise credit the byte bucket).
	if req.Hi < req.Lo-1 || req.Lo < 0 || req.Total < 0 {
		fail(ErrCodeBadRequest, fmt.Sprintf("bad segment window [%d,%d] (%d bytes)", req.Lo, req.Hi, req.Total))
		return
	}
	// Admission charges the stream's announced payload up front: the
	// whole transfer occupies an in-flight slot and its bytes count
	// against the tenant's quota, exactly like a unary write's frame.
	if s.cfg.QoS != nil {
		rel, aerr := s.cfg.QoS.Acquire(context.Background(), sc.tenant, qos.OpWrite, req.Total)
		if aerr != nil {
			sp.Fail()
			feed.drain()
			if !feed.closed {
				sc.sendOverload(sid, aerr)
			}
			return
		}
		defer rel()
	}
	var proj *redist.Projection
	if req.Fingerprint != 0 {
		var ok bool
		if proj, ok = s.projection(req.Fingerprint); !ok {
			fail(ErrCodeUnknownProjection, fmt.Sprintf("projection %#x not registered", req.Fingerprint))
			return
		}
		if want := proj.BytesIn(req.Lo, req.Hi); req.Total != 0 && want != req.Total {
			fail(ErrCodeBadRequest, fmt.Sprintf("projection selects %d bytes in [%d,%d], stream announces %d",
				want, req.Lo, req.Hi, req.Total))
			return
		}
	} else if req.Total != 0 && req.Total != req.Hi-req.Lo+1 {
		fail(ErrCodeBadRequest, fmt.Sprintf("contiguous write of %d bytes into window [%d,%d]", req.Total, req.Lo, req.Hi))
		return
	}
	sf, store, code, msg := s.lookup(req.File, req.Subfile)
	if code != 0 {
		fail(code, msg)
		return
	}
	sf.mu.Lock()
	code, msg = sf.epochCheck(req.Epoch, true)
	var err error
	if code == 0 {
		err = store.EnsureLen(req.Hi + 1)
	}
	sf.mu.Unlock()
	if code != 0 {
		fail(code, msg)
		return
	}
	if err != nil {
		fail(ErrCodeIO, err.Error())
		return
	}

	// The scatter: consume the feed through the projection's segments
	// (or contiguously at Lo). The file lock is taken lazily and held
	// across everything already buffered, but released whenever the
	// feed is about to wait on the network (see chunkFeed.onWait) —
	// amortized locking without wedging sibling streams.
	locked := false
	var lockNs int64
	lock := func() {
		if !locked {
			if sp != nil {
				t0 := time.Now()
				sf.mu.Lock()
				lockNs += time.Since(t0).Nanoseconds()
			} else {
				sf.mu.Lock()
			}
			locked = true
		}
	}
	unlock := func() {
		if locked {
			sf.mu.Unlock()
			locked = false
		}
	}
	defer unlock()
	feed.onWait = unlock
	writeAt := func(b []byte, off int64) error {
		lock()
		return store.WriteAt(b, off)
	}
	ssp := sp.StartChild("scatter")
	var werr error
	if proj == nil {
		pos := req.Lo
		for {
			b := feed.take(1 << 62)
			if b == nil {
				break
			}
			if pos+int64(len(b)) > req.Hi+1 {
				werr = fmt.Errorf("stream overflows window [%d,%d]", req.Lo, req.Hi)
				break
			}
			if werr = writeAt(b, pos); werr != nil {
				break
			}
			pos += int64(len(b))
		}
	} else {
		proj.WalkRange(req.Lo, req.Hi, func(seg falls.LineSegment) bool {
			off := seg.L
			left := seg.Len()
			for left > 0 {
				b := feed.take(left)
				if b == nil {
					werr = fmt.Errorf("stream ended %d bytes into segment", seg.Len()-left)
					return false
				}
				if werr = writeAt(b, off); werr != nil {
					return false
				}
				off += int64(len(b))
				left -= int64(len(b))
			}
			return true
		})
	}
	feed.drain()
	// The accumulated waits surface as pre-measured children: lock
	// contention and stream-window stalls both live inside the scatter.
	ssp.AddInterval("lock_wait", start, time.Duration(lockNs))
	ssp.AddInterval("stream_stall", start, time.Duration(feed.waitNs))
	ssp.End()
	switch {
	case feed.aborted || feed.closed:
		// Abandoned by the client (or the connection died): no reply.
		sp.Fail()
		return
	case werr != nil:
		sp.Fail()
		sc.sendErr(sid, ErrCodeIO, werr.Error())
		return
	case feed.received != req.Total:
		sp.Fail()
		sc.sendErr(sid, ErrCodeBadRequest,
			fmt.Sprintf("stream carried %d bytes, announced %d", feed.received, req.Total))
		return
	}
	out := AppendOK(getFrameBuf(16))
	sc.sendResp(sid, out)
	putFrameBuf(out)
}

// streamPiece is one gathered chunk traveling producer -> sender.
type streamPiece struct {
	data []byte
	last bool
}

// runReadStream executes one chunked gather: validation mirroring
// handleReadSegs (minus the single-frame size cap — chunking is how a
// read escapes it), then a producer/sender pipeline.
func (sc *srvConn) runReadStream(sid uint64, req *ReadStreamReq) {
	defer sc.wg.Done()
	s := sc.s
	start := time.Now()
	s.met.inflight.Add(1)
	defer func() {
		s.met.inflight.Add(-1)
		s.met.requestNs.Observe(time.Since(start).Nanoseconds())
		s.met.poolDiscards.Set(FramePoolDiscards())
	}()
	s.met.requests[MsgReadStream].Inc()
	s.met.streamsR.Inc()

	sp := s.startSpan("read_stream", req.TraceID, req.SpanID)
	s.cfg.Tracer.Adopt(sp)
	defer func() {
		if sp != nil {
			s.cfg.Tracer.FinishOp(sp)
			s.stash.Put(req.TraceID, sp.Records(nil))
		}
	}()
	fail := func(code uint64, msg string) {
		sp.Fail()
		sc.sendErr(sid, code, msg)
	}

	if s.draining.Load() {
		fail(ErrCodeShuttingDown, "server draining")
		return
	}
	// Validate before admission, so a malformed request is refused
	// without charging the tenant's quota.
	if req.N < 0 || req.Hi < req.Lo-1 || req.Lo < 0 {
		fail(ErrCodeBadRequest,
			fmt.Sprintf("bad read window [%d,%d] of %d bytes", req.Lo, req.Hi, req.N))
		return
	}
	// Admission charges the declared response size, mirroring the
	// unary read path.
	if s.cfg.QoS != nil {
		rel, aerr := s.cfg.QoS.Acquire(context.Background(), sc.tenant, qos.OpRead, req.N)
		if aerr != nil {
			sp.Fail()
			sc.sendOverload(sid, aerr)
			return
		}
		defer rel()
	}
	var proj *redist.Projection
	if req.Fingerprint != 0 {
		var ok bool
		if proj, ok = s.projection(req.Fingerprint); !ok {
			fail(ErrCodeUnknownProjection,
				fmt.Sprintf("projection %#x not registered", req.Fingerprint))
			return
		}
		if want := proj.BytesIn(req.Lo, req.Hi); want != req.N {
			fail(ErrCodeBadRequest,
				fmt.Sprintf("projection selects %d bytes in [%d,%d], request asks for %d",
					want, req.Lo, req.Hi, req.N))
			return
		}
	} else if req.N != req.Hi-req.Lo+1 {
		fail(ErrCodeBadRequest,
			fmt.Sprintf("contiguous read of %d bytes from window [%d,%d]", req.N, req.Lo, req.Hi))
		return
	}
	sf, store, code, msg := s.lookup(req.File, req.Subfile)
	if code != 0 {
		fail(code, msg)
		return
	}
	// Grow first, like the single-frame read path: unwritten holes read
	// as zeroes, like any sparse file.
	sf.mu.Lock()
	code, msg = sf.epochCheck(req.Epoch, false)
	var err error
	if code == 0 {
		err = store.EnsureLen(req.Hi + 1)
	}
	sf.mu.Unlock()
	if code != 0 {
		fail(code, msg)
		return
	}
	if err != nil {
		fail(ErrCodeIO, err.Error())
		return
	}

	cs := int(req.ChunkSize)
	if cs <= 0 {
		cs = 1 << 20
	}
	if max := int(s.cfg.MaxFrame) - 64; cs > max {
		cs = max
	}

	ch := make(chan streamPiece, streamWindow)
	var dead atomic.Bool
	perrCh := make(chan error, 1)
	sc.wg.Add(1)
	go func() {
		defer sc.wg.Done()
		perrCh <- sc.gatherChunks(req, proj, sf, store, cs, ch, &dead, sp)
		close(ch)
	}()

	var sendNs int64
	sendFailed := false
	for p := range ch {
		if sendFailed {
			putFrameBuf(p.data)
			continue
		}
		flags := byte(0)
		if p.last {
			flags = flagChunkLast
		}
		hdr := appendChunkHdr(getFrameBuf(16), MsgDataChunk, sid, flags)
		var err error
		if sp != nil {
			t0 := time.Now()
			err = sc.send(hdr, p.data)
			sendNs += time.Since(t0).Nanoseconds()
		} else {
			err = sc.send(hdr, p.data)
		}
		putFrameBuf(hdr)
		putFrameBuf(p.data)
		if err != nil {
			dead.Store(true)
			sendFailed = true
			continue
		}
		s.met.chunksSent.Inc()
	}
	// Time spent pushing chunks down the connection: wire transmission
	// plus the stall when the client's window is full.
	sp.AddInterval("send", start, time.Duration(sendNs))
	perr := <-perrCh
	if sendFailed {
		sp.Fail()
	}
	if perr != nil && perr != errSenderDead && !sendFailed {
		// Mid-stream store failure: the error frame terminates the
		// stream, whether or not data chunks already traveled.
		fail(ErrCodeIO, perr.Error())
	}
}

// gatherChunks is the read-stream producer: it walks the requested
// range (projected or contiguous), gathering store bytes into
// chunk-sized pooled buffers, and hands each completed chunk to the
// sender. The final chunk is flagged last (and may be empty for N=0).
func (sc *srvConn) gatherChunks(req *ReadStreamReq, proj *redist.Projection, sf *serverFile,
	store clusterfile.Storage, cs int, ch chan<- streamPiece, dead *atomic.Bool, sp *obs.Span) error {
	// The file lock is held across each chunk's worth of store reads
	// and dropped before handing the chunk to the sender (a potential
	// wait on the network), mirroring the write-side scatter.
	gsp := sp.StartChild("gather")
	gstart := time.Now()
	locked := false
	var lockNs, stallNs int64
	lock := func() {
		if !locked {
			if sp != nil {
				t0 := time.Now()
				sf.mu.Lock()
				lockNs += time.Since(t0).Nanoseconds()
			} else {
				sf.mu.Lock()
			}
			locked = true
		}
	}
	unlock := func() {
		if locked {
			sf.mu.Unlock()
			locked = false
		}
	}
	defer unlock()
	defer func() {
		gsp.AddInterval("lock_wait", gstart, time.Duration(lockNs))
		gsp.AddInterval("stream_stall", gstart, time.Duration(stallNs))
		gsp.End()
	}()
	buf := getFrameBuf(cs)[:0]
	emit := func(last bool) bool {
		unlock()
		if dead.Load() {
			putFrameBuf(buf)
			buf = nil
			return false
		}
		if sp != nil {
			// The hand-off blocks when the sender's window is full:
			// the read-side stream stall.
			t0 := time.Now()
			ch <- streamPiece{data: buf, last: last}
			stallNs += time.Since(t0).Nanoseconds()
		} else {
			ch <- streamPiece{data: buf, last: last}
		}
		buf = nil
		if !last {
			buf = getFrameBuf(cs)[:0]
		}
		return true
	}
	// read appends [off, off+n) of the store to the chunk in progress,
	// emitting chunks as they fill.
	read := func(off, n int64) error {
		for n > 0 {
			space := int64(cs - len(buf))
			if space == 0 {
				if !emit(false) {
					return errSenderDead
				}
				space = int64(cs)
			}
			m := n
			if m > space {
				m = space
			}
			k := len(buf)
			buf = buf[:k+int(m)]
			lock()
			err := store.ReadAt(buf[k:k+int(m)], off)
			if err != nil {
				return err
			}
			off += m
			n -= m
		}
		return nil
	}
	var err error
	if proj == nil {
		err = read(req.Lo, req.N)
	} else {
		proj.WalkRange(req.Lo, req.Hi, func(seg falls.LineSegment) bool {
			err = read(seg.L, seg.Len())
			return err == nil
		})
	}
	if err != nil {
		putFrameBuf(buf)
		return err
	}
	if !emit(true) {
		return errSenderDead
	}
	return nil
}
