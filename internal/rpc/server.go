package rpc

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"parafile/internal/clusterfile"
	"parafile/internal/codec"
	"parafile/internal/obs"
	"parafile/internal/qos"
	"parafile/internal/redist"
)

// server.go is the I/O-node daemon core: a concurrent TCP server that
// hosts the subfile Storage backends of one node and executes the
// view-driven scatter/gather requests against them. cmd/parafiled
// wraps it with flags and signal handling; tests run it in-process on
// a loopback listener.

// ServerConfig configures an I/O-node server.
type ServerConfig struct {
	// DataDir roots the subfile stores on disk (one file per subfile,
	// like the original Clusterfile I/O nodes). Empty keeps subfiles in
	// memory.
	DataDir string
	// MaxFrame bounds accepted frame bodies (DefaultMaxFrame when 0).
	MaxFrame int64
	// Metrics receives the server-side RPC series; nil records nothing.
	Metrics *obs.Registry
	// Trace advertises FeatureTrace in the hello exchange and opens
	// server-side child spans (decode, lock wait, scatter/gather,
	// stream stalls, fsync) for requests that carry trace IDs. Off by
	// default: a non-tracing server withholds the feature, so no
	// tracing bytes reach it.
	Trace bool
	// Node labels this server's spans and log lines (defaults to
	// Tracer.Node(), else "ion").
	Node string
	// Tracer, when non-nil, additionally retains this server's
	// completed request spans for its own /debug/trace endpoint.
	Tracer *obs.Tracer
	// Log receives structured server events (slow requests, faults);
	// nil logs nothing.
	Log *slog.Logger
	// SlowOp logs a structured warning through Log for any request
	// slower than this threshold (0 disables).
	SlowOp time.Duration
	// QoS, when non-nil, runs every request through admission control:
	// data-plane requests are charged against the limiter's in-flight,
	// memory and per-tenant quota bounds (queueing under the fair-share
	// scheduler when the daemon is busy, shedding with a typed
	// ErrCodeOverloaded answer under sustained pressure), while
	// control-plane requests bypass the queue so pings, stats and epoch
	// fencing survive data-plane overload. The tenant key is the name
	// the connection's hello carried via FeatureTenant (connections
	// without one fall into the default class). Nil admits everything.
	QoS *qos.Limiter
}

// Server hosts subfile stores behind the wire protocol. One Server is
// one I/O node; a deployment runs one parafiled per node.
type Server struct {
	cfg   ServerConfig
	met   serverMetrics
	ep    Endpoint
	node  string
	stash *obs.SpanStash
	slow  obs.SlowOpLogger

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	files    map[string]*serverFile
	projs    map[uint64]*redist.Projection
	draining atomic.Bool
	connWG   sync.WaitGroup
}

// serverFile is one file's node-local state: the stores of the
// subfiles this node hosts, guarded against concurrent connections.
type serverFile struct {
	mu     sync.Mutex
	stores map[int]clusterfile.Storage
	// epoch is the placement epoch the stores belong to (0 =
	// unversioned, legacy single-placement file). It only ratchets
	// upward, via CreateFile stamps and MsgEpoch.
	epoch uint64
	// fenced rejects epoch-stamped writes while a rebalance copies the
	// stores to their next placement; reads keep flowing at the old
	// epoch until the flip.
	fenced bool
}

// epochCheck validates a request's placement epoch against the store
// generation. Called with sf.mu held; a zero request epoch (legacy
// client) always passes.
func (sf *serverFile) epochCheck(epoch uint64, write bool) (uint64, string) {
	if epoch == 0 {
		return 0, ""
	}
	if sf.epoch != 0 && epoch != sf.epoch {
		return ErrCodeStalePlacement,
			fmt.Sprintf("request at placement epoch %d, store at %d", epoch, sf.epoch)
	}
	if write && sf.fenced {
		return ErrCodeStalePlacement,
			fmt.Sprintf("store fenced for rebalance at epoch %d", sf.epoch)
	}
	return 0, ""
}

// NewServer builds a server; call Serve with a listener to run it.
func NewServer(cfg ServerConfig) *Server {
	if cfg.MaxFrame <= 0 {
		cfg.MaxFrame = DefaultMaxFrame
	}
	node := cfg.Node
	if node == "" {
		node = cfg.Tracer.Node()
	}
	if node == "" {
		node = "ion"
	}
	s := &Server{
		cfg:   cfg,
		met:   newServerMetrics(cfg.Metrics),
		node:  node,
		slow:  obs.SlowOpLogger{Log: cfg.Log, Threshold: cfg.SlowOp},
		conns: make(map[net.Conn]struct{}),
		files: make(map[string]*serverFile),
		projs: make(map[uint64]*redist.Projection),
	}
	s.ep = Endpoint{MaxFrame: cfg.MaxFrame, Grant: s.grant, Unary: s.dispatch}
	if cfg.Trace {
		// Streamed ops park their completed spans here until the
		// client's MsgSpans drain; the bound caps what a client that
		// never drains can pin.
		s.stash = obs.NewSpanStash(1024)
	}
	return s
}

// grant answers a connection's hello with the feature bits this
// server grants from the client's requested mask.
func (s *Server) grant(requested uint64) uint64 {
	s.met.requests[MsgHello].Inc()
	granted := FeaturePlacement | FeatureTenant
	if s.cfg.Trace {
		granted |= FeatureTrace
	}
	return granted & requested
}

// qosOpOf classifies a message type for admission. Only the
// payload-bearing data-plane operations are subject to queueing and
// quotas; everything else — pings (breaker probes), stats, epoch
// fencing, checksums, metadata RPCs — is control-plane and must
// keep answering while the data plane sheds.
func qosOpOf(msgType byte) qos.Op {
	switch msgType {
	case MsgWriteSegs, MsgWriteStream:
		return qos.OpWrite
	case MsgReadSegs, MsgReadStream:
		return qos.OpRead
	}
	return qos.OpControl
}

// qosBytes is the admission cost of one unary request: the request
// frame for writes (the dominant msgbuf cost on the write path), the
// declared response size for reads. A read declaring a negative size
// (rejected as bad-request after admission) must not reach the quota
// debit, where it would credit the tenant's byte bucket.
func qosBytes(msgType byte, payload []byte) int64 {
	if msgType == MsgReadSegs {
		if req, err := DecodeReadSegs(payload); err == nil && req.N >= 0 {
			return req.N
		}
	}
	return int64(len(payload))
}

// isReplicaStoreOf reports whether name is a replica-tier store of
// base, exactly as clusterfile.ReplicaName produces them:
// base+"~r"+digits. A raw prefix match would also catch a distinct
// client file whose name merely starts with base+"~r" (e.g. "data~rX"
// alongside "data") and sweep its stores away with the base file's.
func isReplicaStoreOf(name, base string) bool {
	rest, ok := strings.CutPrefix(name, base+"~r")
	if !ok || rest == "" {
		return false
	}
	for i := 0; i < len(rest); i++ {
		if rest[i] < '0' || rest[i] > '9' {
			return false
		}
	}
	return true
}

// overloadResp encodes an admission refusal: a typed
// ErrCodeOverloaded answer carrying the limiter's RetryAfter hint.
func (s *Server) overloadResp(out []byte, err error) []byte {
	s.met.errCounter(ErrCodeOverloaded).Inc()
	var ov *qos.Overload
	var retry time.Duration
	if errors.As(err, &ov) {
		retry = ov.RetryAfter
	}
	return AppendErrorRetry(out, ErrCodeOverloaded, err.Error(), retry)
}

// startSpan opens the server-side root span for one traced request
// (nil when tracing is off or the request carries no trace ID).
func (s *Server) startSpan(name string, traceID, parent uint64) *obs.Span {
	if !s.cfg.Trace || traceID == 0 {
		return nil
	}
	return obs.StartRemoteSpan("server."+name, s.node, traceID, parent)
}

// Serve accepts connections on ln until Shutdown. It returns nil after
// a graceful shutdown, or the first accept error otherwise.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.draining.Load() {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.met.conns.Add(1)
		s.connWG.Add(1)
		s.mu.Unlock()
		go s.handleConn(conn)
	}
}

// Shutdown drains the server: stop accepting, let in-flight requests
// finish (bounded by ctx), then sync and close every store. Idle
// connections are woken and closed immediately.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.mu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	// Wake connections blocked in ReadFrame: the read loop exits on
	// the deadline error. A request already being processed still
	// writes its response first.
	for c := range s.conns {
		c.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.connWG.Wait()
		close(done)
	}()
	var drainErr error
	select {
	case <-done:
	case <-ctx.Done():
		drainErr = ctx.Err()
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	for name, sf := range s.files {
		sf.mu.Lock()
		for _, st := range sf.stores {
			if err := st.Close(); err != nil && drainErr == nil {
				drainErr = fmt.Errorf("rpc: closing %q: %w", name, err)
			}
		}
		sf.mu.Unlock()
		delete(s.files, name)
		s.met.files.Add(-1)
	}
	return drainErr
}

func (s *Server) handleConn(conn net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.met.conns.Add(-1)
		conn.Close()
		s.connWG.Done()
	}()
	serveConn(conn, s.ep, s)
}

// dispatch executes one unary request and returns the encoded response
// in a pooled buffer. It runs in the connection loop's per-request
// goroutines: every handler locks the state it touches, so concurrent
// dispatch is safe. tenant is the connection's fair-share class.
func (s *Server) dispatch(msgType byte, payload []byte, tenant string) []byte {
	out := getFrameBuf(64)
	start := time.Now()
	s.met.inflight.Add(1)
	defer func() {
		s.met.inflight.Add(-1)
		elapsed := time.Since(start)
		s.met.requestNs.Observe(elapsed.Nanoseconds())
		s.met.poolDiscards.Set(FramePoolDiscards())
		// The traced envelope logs itself with the inner request's name
		// and real trace ID; logging the wrapper too would double up.
		if msgType != MsgTraced {
			s.slow.Observe("rpc."+MsgName(msgType), 0, elapsed, nil)
		}
	}()
	s.met.requests[msgType].Inc()
	if s.draining.Load() {
		return s.errResp(out, ErrCodeShuttingDown, "server draining")
	}
	if msgType == MsgTraced {
		return s.handleTraced(out, payload, tenant)
	}
	return s.route(out, msgType, payload, nil, tenant)
}

// route is the request-type switch shared by dispatch and the traced
// envelope (which re-enters with the inner request and a live span).
// Admission happens here, so every execution path — plain and traced
// unary requests alike — charges the limiter exactly once per request,
// after the draining check and before any state is touched.
func (s *Server) route(out []byte, msgType byte, payload []byte, sp *obs.Span, tenant string) []byte {
	if s.cfg.QoS != nil {
		rel, err := s.cfg.QoS.Acquire(context.Background(), tenant, qosOpOf(msgType), qosBytes(msgType, payload))
		if err != nil {
			return s.overloadResp(out, err)
		}
		defer rel()
	}
	switch msgType {
	case MsgCreateFile:
		return s.handleCreateFile(out, payload)
	case MsgSetView:
		return s.handleSetView(out, payload)
	case MsgWriteSegs:
		return s.handleWriteSegs(out, payload, sp)
	case MsgReadSegs:
		return s.handleReadSegs(out, payload, sp)
	case MsgStat:
		return s.handleStat(out, payload)
	case MsgClose:
		return s.handleClose(out, payload, sp)
	case MsgPing:
		// Liveness probe (breaker half-open): no file state touched.
		if err := wantEmpty(payload); err != nil {
			return s.errResp(out, ErrCodeBadRequest, err.Error())
		}
		return AppendOK(out)
	case MsgChecksum:
		return s.handleChecksum(out, payload, sp)
	case MsgSpans:
		return s.handleSpans(out, payload)
	case MsgEpoch:
		return s.handleEpoch(out, payload)
	}
	return s.errResp(out, ErrCodeBadRequest, fmt.Sprintf("unknown message type %#x", msgType))
}

// handleTraced runs a MsgTraced envelope: the inner request executes
// under a span adopted into the caller's trace, and the completed
// records travel back piggybacked ahead of the inner response.
func (s *Server) handleTraced(out, payload []byte, tenant string) []byte {
	traceID, parent, innerType, inner, err := DecodeTraced(payload)
	if err != nil {
		return s.errResp(out, ErrCodeBadRequest, err.Error())
	}
	if innerType == MsgTraced {
		return s.errResp(out, ErrCodeBadRequest, "nested traced envelope")
	}
	s.met.requests[innerType].Inc()
	start := time.Now()
	sp := s.startSpan(MsgName(innerType), traceID, parent)
	s.cfg.Tracer.Adopt(sp)
	resp := s.route(getFrameBuf(64), innerType, inner, sp, tenant)
	if len(resp) >= 2 && resp[1] == MsgError {
		sp.Fail()
	}
	s.slow.Observe("rpc."+MsgName(innerType), traceID, time.Since(start), nil)
	s.cfg.Tracer.FinishOp(sp)
	out = AppendTracedResp(out, sp.Records(nil), resp)
	putFrameBuf(resp)
	return out
}

// handleSpans drains the span records streamed operations stashed
// under a trace ID.
func (s *Server) handleSpans(out, payload []byte) []byte {
	traceID, err := DecodeSpansReq(payload)
	if err != nil {
		return s.errResp(out, ErrCodeBadRequest, err.Error())
	}
	return AppendSpansResp(out, s.stash.Take(traceID))
}

func (s *Server) handleChecksum(out, payload []byte, sp *obs.Span) []byte {
	req, err := DecodeChecksum(payload)
	if err != nil {
		return s.errResp(out, ErrCodeBadRequest, err.Error())
	}
	if req.Off < 0 || req.N < 0 {
		return s.errResp(out, ErrCodeBadRequest,
			fmt.Sprintf("bad checksum range [%d,+%d)", req.Off, req.N))
	}
	sf, st, code, msg := s.lookup(req.File, req.Subfile)
	if code != 0 {
		return s.errResp(out, code, msg)
	}
	lw := sp.StartChild("lock_wait")
	sf.mu.Lock()
	lw.End()
	defer sf.mu.Unlock()
	// Read-only: bytes beyond the store's length count as zeroes, so no
	// grow — scrubbing must never mutate what it audits.
	sum, err := clusterfile.ChecksumRange(st, req.Off, req.N)
	if err != nil {
		return s.errResp(out, ErrCodeIO, err.Error())
	}
	return AppendChecksumResp(out, sum)
}

func (s *Server) errResp(out []byte, code uint64, msg string) []byte {
	s.met.errCounter(code).Inc()
	return AppendError(out, code, msg)
}

// storageFactory returns the factory for one CreateFile request.
func (s *Server) storageFactory(reopen bool) clusterfile.StorageFactory {
	if s.cfg.DataDir == "" {
		return clusterfile.MemStorageFactory
	}
	if reopen {
		return clusterfile.ReopenDirStorageFactory(s.cfg.DataDir)
	}
	return clusterfile.DirStorageFactory(s.cfg.DataDir)
}

func (s *Server) handleCreateFile(out, payload []byte) []byte {
	req, err := DecodeCreateFile(payload)
	if err != nil {
		return s.errResp(out, ErrCodeBadRequest, err.Error())
	}
	if _, err := codec.DecodeFile(req.Phys); err != nil {
		return s.errResp(out, ErrCodeBadRequest, fmt.Sprintf("physical partition: %v", err))
	}
	s.mu.Lock()
	sf := s.files[req.Name]
	if sf == nil {
		sf = &serverFile{stores: make(map[int]clusterfile.Storage)}
		s.files[req.Name] = sf
		s.met.files.Add(1)
	}
	s.mu.Unlock()

	sf.mu.Lock()
	defer sf.mu.Unlock()
	// An epoch-stamped open versions the stores: the epoch only
	// ratchets upward, so a laggard's reopen at an old epoch cannot
	// roll a store generation back.
	if req.Epoch > sf.epoch {
		sf.epoch = req.Epoch
	}
	factory := s.storageFactory(req.Reopen)
	for _, sub := range req.Subfiles {
		if _, open := sf.stores[sub]; open {
			// Already open in this session (a retried CreateFile, or a
			// second client of the same file): keep the live store
			// rather than truncating data out from under it.
			continue
		}
		st, err := factory(req.Name, sub)
		if err != nil {
			return s.errResp(out, ErrCodeIO, fmt.Sprintf("subfile %d: %v", sub, err))
		}
		sf.stores[sub] = st
	}
	return AppendOK(out)
}

// handleEpoch ratchets the placement epoch of every store of a file
// (base name plus its replica stores) and sets the write fence. A
// daemon hosting no store of the file answers OK — the rebalance
// driver fans the fence out to every node of the old placement without
// tracking which subfiles each one holds.
func (s *Server) handleEpoch(out, payload []byte) []byte {
	req, err := DecodeEpoch(payload)
	if err != nil {
		return s.errResp(out, ErrCodeBadRequest, err.Error())
	}
	if req.Epoch == 0 {
		return s.errResp(out, ErrCodeBadRequest, "zero placement epoch")
	}
	s.mu.Lock()
	var targets []*serverFile
	for name, sf := range s.files {
		if name == req.File || isReplicaStoreOf(name, req.File) {
			targets = append(targets, sf)
		}
	}
	s.mu.Unlock()
	for _, sf := range targets {
		sf.mu.Lock()
		if req.Epoch > sf.epoch {
			sf.epoch = req.Epoch
		}
		sf.fenced = req.Fence
		sf.mu.Unlock()
	}
	return AppendOK(out)
}

func (s *Server) handleSetView(out, payload []byte) []byte {
	req, err := DecodeSetView(payload)
	if err != nil {
		return s.errResp(out, ErrCodeBadRequest, err.Error())
	}
	if got := Fingerprint(req.Proj); got != req.Fingerprint {
		return s.errResp(out, ErrCodeBadRequest,
			fmt.Sprintf("projection fingerprint %#x does not match payload (%#x)", req.Fingerprint, got))
	}
	proj, err := redist.DecodeProjection(req.Proj)
	if err != nil {
		return s.errResp(out, ErrCodeBadRequest, err.Error())
	}
	s.mu.Lock()
	s.projs[req.Fingerprint] = proj
	s.mu.Unlock()
	return AppendOK(out)
}

// lookup resolves (file, subfile) to its open store, or an error
// response code.
func (s *Server) lookup(file string, subfile int64) (*serverFile, clusterfile.Storage, uint64, string) {
	s.mu.Lock()
	sf := s.files[file]
	s.mu.Unlock()
	if sf == nil {
		return nil, nil, ErrCodeUnknownFile, fmt.Sprintf("file %q not open", file)
	}
	sf.mu.Lock()
	st := sf.stores[int(subfile)]
	sf.mu.Unlock()
	if st == nil {
		return nil, nil, ErrCodeUnknownFile, fmt.Sprintf("subfile %d of %q not hosted here", subfile, file)
	}
	return sf, st, 0, ""
}

// projection resolves a nonzero fingerprint.
func (s *Server) projection(fp uint64) (*redist.Projection, bool) {
	s.mu.Lock()
	p, ok := s.projs[fp]
	s.mu.Unlock()
	return p, ok
}

func (s *Server) handleWriteSegs(out, payload []byte, sp *obs.Span) []byte {
	dsp := sp.StartChild("decode")
	req, err := DecodeWriteSegs(payload)
	dsp.End()
	if err != nil {
		return s.errResp(out, ErrCodeBadRequest, err.Error())
	}
	if req.Hi < req.Lo-1 || req.Lo < 0 {
		return s.errResp(out, ErrCodeBadRequest,
			fmt.Sprintf("bad segment window [%d,%d]", req.Lo, req.Hi))
	}
	var proj *redist.Projection
	if req.Fingerprint != 0 {
		var ok bool
		if proj, ok = s.projection(req.Fingerprint); !ok {
			return s.errResp(out, ErrCodeUnknownProjection,
				fmt.Sprintf("projection %#x not registered", req.Fingerprint))
		}
	} else if len(req.Data) != 0 && int64(len(req.Data)) != req.Hi-req.Lo+1 {
		return s.errResp(out, ErrCodeBadRequest,
			fmt.Sprintf("contiguous write of %d bytes into window [%d,%d]", len(req.Data), req.Lo, req.Hi))
	}
	sf, st, code, msg := s.lookup(req.File, req.Subfile)
	if code != 0 {
		return s.errResp(out, code, msg)
	}
	lw := sp.StartChild("lock_wait")
	sf.mu.Lock()
	lw.End()
	defer sf.mu.Unlock()
	if code, msg := sf.epochCheck(req.Epoch, true); code != 0 {
		return s.errResp(out, code, msg)
	}
	if err := st.EnsureLen(req.Hi + 1); err != nil {
		return s.errResp(out, ErrCodeIO, err.Error())
	}
	if len(req.Data) == 0 {
		return AppendOK(out)
	}
	ssp := sp.StartChild("scatter")
	if proj == nil {
		err = st.WriteAt(req.Data, req.Lo)
	} else {
		err = clusterfile.ScatterRange(st, req.Data, proj, req.Lo, req.Hi)
	}
	ssp.End()
	if err != nil {
		return s.errResp(out, ErrCodeIO, err.Error())
	}
	return AppendOK(out)
}

func (s *Server) handleReadSegs(out, payload []byte, sp *obs.Span) []byte {
	dsp := sp.StartChild("decode")
	req, err := DecodeReadSegs(payload)
	dsp.End()
	if err != nil {
		return s.errResp(out, ErrCodeBadRequest, err.Error())
	}
	if req.N < 0 || req.Hi < req.Lo-1 || req.Lo < 0 || req.N > s.cfg.MaxFrame {
		return s.errResp(out, ErrCodeBadRequest,
			fmt.Sprintf("bad read window [%d,%d] of %d bytes", req.Lo, req.Hi, req.N))
	}
	var proj *redist.Projection
	if req.Fingerprint != 0 {
		var ok bool
		if proj, ok = s.projection(req.Fingerprint); !ok {
			return s.errResp(out, ErrCodeUnknownProjection,
				fmt.Sprintf("projection %#x not registered", req.Fingerprint))
		}
		if want := proj.BytesIn(req.Lo, req.Hi); want != req.N {
			return s.errResp(out, ErrCodeBadRequest,
				fmt.Sprintf("projection selects %d bytes in [%d,%d], request asks for %d",
					want, req.Lo, req.Hi, req.N))
		}
	} else if req.N != req.Hi-req.Lo+1 {
		return s.errResp(out, ErrCodeBadRequest,
			fmt.Sprintf("contiguous read of %d bytes from window [%d,%d]", req.N, req.Lo, req.Hi))
	}
	sf, st, code, msg := s.lookup(req.File, req.Subfile)
	if code != 0 {
		return s.errResp(out, code, msg)
	}
	lw := sp.StartChild("lock_wait")
	sf.mu.Lock()
	lw.End()
	defer sf.mu.Unlock()
	if code, msg := sf.epochCheck(req.Epoch, false); code != 0 {
		return s.errResp(out, code, msg)
	}
	// Grow first, like the in-process read path: unwritten holes read
	// as zeroes, like any sparse file.
	if err := st.EnsureLen(req.Hi + 1); err != nil {
		return s.errResp(out, ErrCodeIO, err.Error())
	}
	data := getFrameBuf(int(req.N))[:req.N]
	defer putFrameBuf(data)
	gsp := sp.StartChild("gather")
	if proj == nil {
		err = st.ReadAt(data, req.Lo)
	} else {
		err = clusterfile.GatherRange(data, st, proj, req.Lo, req.Hi)
	}
	gsp.End()
	if err != nil {
		return s.errResp(out, ErrCodeIO, err.Error())
	}
	return AppendData(out, data)
}

func (s *Server) handleStat(out, payload []byte) []byte {
	req, err := DecodeStat(payload)
	if err != nil {
		return s.errResp(out, ErrCodeBadRequest, err.Error())
	}
	sf, st, code, msg := s.lookup(req.File, req.Subfile)
	if code != 0 {
		return s.errResp(out, code, msg)
	}
	sf.mu.Lock()
	n := st.Len()
	sf.mu.Unlock()
	return AppendStatResp(out, n)
}

func (s *Server) handleClose(out, payload []byte, sp *obs.Span) []byte {
	req, err := DecodeClose(payload)
	if err != nil {
		return s.errResp(out, ErrCodeBadRequest, err.Error())
	}
	s.mu.Lock()
	var targets []*serverFile
	if sf := s.files[req.File]; sf != nil {
		targets = append(targets, sf)
		delete(s.files, req.File)
		s.met.files.Add(-1)
	}
	if req.Remove {
		// A removing close also sweeps the file's replica stores
		// (name~r<r>): the rebalance GC retires a superseded store
		// generation whole, replicas included.
		for name, sf := range s.files {
			if isReplicaStoreOf(name, req.File) {
				targets = append(targets, sf)
				delete(s.files, name)
				s.met.files.Add(-1)
			}
		}
	}
	s.mu.Unlock()
	if len(targets) == 0 {
		// Unknown file: already closed (a retried Close). Idempotent
		// success keeps blind client retry safe.
		return AppendOK(out)
	}
	var firstErr error
	for _, sf := range targets {
		lw := sp.StartChild("lock_wait")
		sf.mu.Lock()
		lw.End()
		// Closing a disk-backed store syncs it — the op's fsync cost.
		// A removing close then deletes the backing file, reclaiming
		// the superseded generation's disk.
		fsp := sp.StartChild("fsync")
		for _, st := range sf.stores {
			if err := st.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
			if req.Remove {
				if err := clusterfile.RemoveStorage(st); err != nil && firstErr == nil {
					firstErr = err
				}
			}
		}
		fsp.End()
		sf.mu.Unlock()
	}
	if firstErr != nil {
		return s.errResp(out, ErrCodeIO, firstErr.Error())
	}
	return AppendOK(out)
}
