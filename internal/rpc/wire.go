// Package rpc is the real-network transport of the Clusterfile
// reproduction: a length-prefixed binary wire protocol carrying the
// §8.1 storage operations — view-driven scatter (WriteSegments) and
// gather (ReadSegments) plus CreateFile/SetView/Stat/Close — between
// compute-node clients and parafiled I/O-node daemons over TCP.
//
// Projections are content-addressed: SetView registers an encoded
// redist projection under its fingerprint once, and every subsequent
// WriteSegments/ReadSegments names it by fingerprint only, mirroring
// the paper's amortization argument (PROJ_S travels at view-set time,
// not per access). The encoding reuses the internal/codec varint
// primitives, so the structures on the wire are the same ones the
// in-process path computes.
//
// There is one protocol generation, v3: every frame carries a CRC32C
// trailer, and every operation travels as a tagged stream on the one
// multiplexed connection a client keeps per node (mux.go, stream.go).
// The client (client.go) adds write and read deadlines and bounded
// exponential-backoff retry; every request is idempotent (writes place
// the same bytes at the same offsets), which is what makes blind retry
// after a connection drop safe. The server (server.go) hosts one or
// more subfile Storage backends per I/O node and drains gracefully on
// shutdown. transport.go adapts a set of daemons to
// clusterfile.Transport.
package rpc

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"parafile/internal/codec"
	"parafile/internal/obs"
	"parafile/internal/qos"
)

// ProtoVersion3 is the version byte every frame body starts with; a
// peer refuses any other value instead of misparsing the frame. Every
// frame appends a CRC32C trailer of its body (outside the length
// prefix), so wire corruption surfaces as a typed ErrCorruptFrame
// instead of a decode failure deep in a payload. A connection opens
// with a MsgHello/MsgHelloResp exchange; after it every frame body
// carries a varint stream id after the type byte, concurrent operations
// share the one connection per node (a reader goroutine demultiplexes
// responses onto per-stream channels), and large transfers travel as
// chunked streams (MsgWriteStream/MsgReadStream + chunk frames) so
// network transmission overlaps with the store-side scatter/gather
// instead of materializing whole-operation frames. Every binary ships
// from this module, so there is no other version to speak.
const ProtoVersion3 = 3

// DefaultMaxFrame bounds a frame body (type byte + payload). Large
// enough for any demo/benchmark payload, small enough to stop a
// corrupt length prefix from allocating the machine away.
const DefaultMaxFrame = 64 << 20

// Request message types.
const (
	MsgCreateFile byte = 0x01
	MsgSetView    byte = 0x02
	MsgWriteSegs  byte = 0x03
	MsgReadSegs   byte = 0x04
	MsgStat       byte = 0x05
	MsgClose      byte = 0x06
	// MsgPing is the lightweight liveness probe the circuit breaker
	// uses in half-open state; it touches no file state.
	MsgPing byte = 0x07
	// MsgHello opens every connection: the client names the protocol
	// version and the feature bits it wants, the daemon answers
	// MsgHelloResp with the version and the bits it grants. It is the
	// one frame that carries no stream id.
	MsgHello byte = 0x08
	// MsgChecksum asks for the CRC32C of a subfile byte range; bytes
	// beyond the current length count as zeroes. Scrub compares
	// replicas with it without shipping the data.
	MsgChecksum byte = 0x09
	// MsgWriteStream opens a chunked scatter: same addressing as
	// MsgWriteSegs but the data follows as MsgWriteChunk frames on the
	// same stream id, so the server scatters while later chunks are
	// still in flight. The server answers once, after the last chunk.
	MsgWriteStream byte = 0x0A
	// MsgWriteChunk carries one slice of a write stream's data:
	// [flags byte][bytes]. flagChunkLast marks the final slice,
	// flagChunkAbort cancels the stream without a server reply.
	MsgWriteChunk byte = 0x0B
	// MsgReadStream opens a chunked gather: same addressing as
	// MsgReadSegs plus the chunk size the client wants; the server
	// answers with MsgDataChunk frames.
	MsgReadStream byte = 0x0C
	// MsgTraced is the tracing envelope: [uvarint trace id][uvarint
	// parent span id][inner type][inner payload]. The server runs the
	// inner request under a span adopted into the caller's trace and
	// answers with MsgTracedResp carrying the completed span records
	// piggybacked ahead of the inner response. Sent only after the
	// peer advertised FeatureTrace in the hello exchange.
	MsgTraced byte = 0x0D
	// MsgSpans drains the span records a streamed operation left
	// behind: [uvarint trace id] → MsgSpansResp. Streamed transfers
	// carry their trace IDs in the stream-open request instead of an
	// envelope, and their replies stay lean; the client collects the
	// server-side spans with one drain call after the stream settles.
	MsgSpans byte = 0x0E
	// MsgEpoch is the placement-epoch admin request a rebalance driver
	// sends to a data daemon: it stamps (ratchets) the placement epoch
	// of every store of a file and raises or clears the write fence.
	// Idempotent; a daemon that hosts no store of the file answers OK.
	MsgEpoch byte = 0x0F
)

// Metadata-service request types (handled by parafilemd, not by the
// data daemons; they share the framing, hello, connection loop and
// error encoding with the storage protocol).
const (
	MsgMetaCreate byte = 0x20
	MsgMetaOpen   byte = 0x21
	MsgMetaList   byte = 0x22
	MsgMetaRemove byte = 0x23
	// MsgMetaCommit is the compare-and-swap placement flip: it names
	// the epoch the caller rebalanced from and fails with
	// ErrCodeStalePlacement if the file has moved on since.
	MsgMetaCommit byte = 0x24
	// MsgMetaExtend ratchets a file's logical length upward after a
	// write; the recorded length sizes later rebalances.
	MsgMetaExtend byte = 0x25
	MsgMetaNodes  byte = 0x26
	// MsgMetaNode registers a node or updates its membership state.
	MsgMetaNode byte = 0x27
	// MsgMetaVote is the replication group's leader-election ballot: a
	// candidate names its term and log tail, a peer grants or denies.
	MsgMetaVote byte = 0x28
	// MsgMetaAppend ships namespace log records from the leader to a
	// follower (and doubles as the lease heartbeat when it carries no
	// records). The follower checks the leader's previous-entry tail
	// against its own and nacks on divergence.
	MsgMetaAppend byte = 0x29
	// MsgMetaSnapInstall transfers a full serialized namespace state to
	// a follower whose log diverged or fell behind; the follower installs
	// it atomically (temp + fsync + rename) and truncates its log.
	MsgMetaSnapInstall byte = 0x2A
	// MsgMetaStatus asks a metadata node for its replication status:
	// term, role, known leader, log tail, lease remainder.
	MsgMetaStatus byte = 0x2B
)

// Metadata-service response types.
const (
	MsgMetaFileResp  byte = 0x30
	MsgMetaListResp  byte = 0x31
	MsgMetaNodesResp byte = 0x32
	// MsgMetaVoteResp answers MsgMetaVote with the voter's term and the
	// grant/deny verdict.
	MsgMetaVoteResp byte = 0x33
	// MsgMetaAppendResp acks (or nacks, with the follower's tail) a
	// MsgMetaAppend batch.
	MsgMetaAppendResp byte = 0x34
	// MsgMetaStatusResp answers MsgMetaStatus.
	MsgMetaStatusResp byte = 0x35
)

// Response message types.
const (
	MsgOK           byte = 0x10
	MsgData         byte = 0x11
	MsgStatResp     byte = 0x12
	MsgHelloResp    byte = 0x13
	MsgChecksumResp byte = 0x14
	// MsgDataChunk carries one slice of a read stream's gathered bytes:
	// [flags byte][bytes]. flagChunkLast marks the final slice.
	MsgDataChunk byte = 0x15
	// MsgTracedResp answers MsgTraced: [span records][inner type]
	// [inner payload].
	MsgTracedResp byte = 0x16
	// MsgSpansResp answers MsgSpans: [span records].
	MsgSpansResp byte = 0x17
	MsgError     byte = 0x1F
)

// Feature bits exchanged in the hello (a uvarint bitmask trailing the
// version; absent means zero). A daemon grants the subset it serves:
// parafilemd grants only FeaturePlacement, and parafiled grants
// FeatureTrace only when tracing is on.
const (
	// FeatureTrace: the peer accepts MsgTraced envelopes, trace IDs on
	// stream-open requests, and MsgSpans drains.
	FeatureTrace uint64 = 1 << 0
	// FeaturePlacement: the peer accepts placement-epoch fields on
	// data-path requests, checks them against each store's current
	// epoch, and understands MsgEpoch.
	FeaturePlacement uint64 = 1 << 1
	// FeatureTenant: the hello request carries a tenant name (a string
	// trailing the feature mask) keying the daemon's fair-share
	// admission scheduler. Granted means the daemon recorded it.
	// Clients without a tenant never set the bit.
	FeatureTenant uint64 = 1 << 2
)

// Chunk frame flags (first payload byte of MsgWriteChunk/MsgDataChunk).
const (
	// flagChunkLast marks the final chunk of a stream.
	flagChunkLast byte = 1 << 0
	// flagChunkAbort cancels the stream: the sender gave up mid-transfer
	// (context cancellation, local error) and the receiver must tear the
	// stream down without waiting for more chunks.
	flagChunkAbort byte = 1 << 1
)

// MsgName returns the metrics label of a message type.
func MsgName(t byte) string {
	switch t {
	case MsgCreateFile:
		return "create_file"
	case MsgSetView:
		return "set_view"
	case MsgWriteSegs:
		return "write_segments"
	case MsgReadSegs:
		return "read_segments"
	case MsgStat:
		return "stat"
	case MsgClose:
		return "close"
	case MsgPing:
		return "ping"
	case MsgHello:
		return "hello"
	case MsgChecksum:
		return "checksum"
	case MsgWriteStream:
		return "write_stream"
	case MsgWriteChunk:
		return "write_chunk"
	case MsgReadStream:
		return "read_stream"
	case MsgDataChunk:
		return "data_chunk"
	case MsgTraced:
		return "traced"
	case MsgSpans:
		return "spans"
	case MsgEpoch:
		return "epoch"
	case MsgMetaCreate:
		return "meta_create"
	case MsgMetaOpen:
		return "meta_open"
	case MsgMetaList:
		return "meta_list"
	case MsgMetaRemove:
		return "meta_remove"
	case MsgMetaCommit:
		return "meta_commit"
	case MsgMetaExtend:
		return "meta_extend"
	case MsgMetaNodes:
		return "meta_nodes"
	case MsgMetaNode:
		return "meta_node"
	case MsgMetaVote:
		return "meta_vote"
	case MsgMetaAppend:
		return "meta_append"
	case MsgMetaSnapInstall:
		return "meta_snap_install"
	case MsgMetaStatus:
		return "meta_status"
	case MsgMetaVoteResp:
		return "meta_vote_resp"
	case MsgMetaAppendResp:
		return "meta_append_resp"
	case MsgMetaStatusResp:
		return "meta_status_resp"
	case MsgMetaFileResp:
		return "meta_file_resp"
	case MsgMetaListResp:
		return "meta_list_resp"
	case MsgMetaNodesResp:
		return "meta_nodes_resp"
	case MsgTracedResp:
		return "traced_resp"
	case MsgSpansResp:
		return "spans_resp"
	case MsgOK:
		return "ok"
	case MsgData:
		return "data"
	case MsgStatResp:
		return "stat_resp"
	case MsgHelloResp:
		return "hello_resp"
	case MsgChecksumResp:
		return "checksum_resp"
	case MsgError:
		return "error"
	}
	return "unknown"
}

// Remote error codes carried by MsgError.
const (
	ErrCodeBadRequest        uint64 = 1
	ErrCodeUnknownFile       uint64 = 2
	ErrCodeUnknownProjection uint64 = 3
	ErrCodeIO                uint64 = 4
	ErrCodeShuttingDown      uint64 = 5
	// ErrCodeStalePlacement: the request named a placement epoch the
	// store has moved past (or the store is fenced for a rebalance).
	// The caller should refetch the placement map from the metadata
	// service and retry against the new epoch.
	ErrCodeStalePlacement uint64 = 6
	// ErrCodeOverloaded: the daemon's admission controller refused the
	// request (quota, queue overflow, or shed under pressure). The
	// request was never executed, so any request type is safe to retry
	// — after the RetryAfter hint carried beside the code. Overload is
	// an answer, not a transport failure: it must never advance the
	// circuit breaker.
	ErrCodeOverloaded uint64 = 7
	// ErrCodeNotLeader: the metadata node answering is not the group's
	// leader (or its lease lapsed mid-election). The request was not
	// executed; the caller should redirect to RemoteError.Leader when
	// the hint is present, otherwise probe the other endpoints, with
	// jittered retry through the election window.
	ErrCodeNotLeader uint64 = 8
)

// ErrStalePlacement is the sentinel callers match with errors.Is to
// detect an ErrCodeStalePlacement RemoteError anywhere in a wrapped
// chain (including inside a clusterfile.PartialError).
var ErrStalePlacement = fmt.Errorf("rpc: stale placement epoch")

// ErrUnknownFile is the sentinel for an ErrCodeUnknownFile
// RemoteError — the named file does not exist on the answering
// service (metadata namespace miss, or a store the daemon never saw).
var ErrUnknownFile = fmt.Errorf("rpc: unknown file")

// ErrNotLeader is the sentinel for an ErrCodeNotLeader RemoteError —
// the metadata node is not the leaseholder. Match with errors.As on
// *RemoteError to read the Leader redirect hint.
var ErrNotLeader = fmt.Errorf("rpc: not the metadata leader")

// RemoteError is a server-reported failure: the request was delivered
// and answered, so the client does not retry it at the transport
// layer. The one exception is ErrCodeOverloaded — backpressure, which
// the client retries after RetryAfter without charging the breaker.
type RemoteError struct {
	Code uint64
	Msg  string
	// RetryAfter is the server's backoff hint on ErrCodeOverloaded
	// responses (zero otherwise, and absent from the wire when zero).
	RetryAfter time.Duration
	// Leader is the redirect hint on ErrCodeNotLeader responses: the
	// address of the node the answering follower believes holds the
	// lease (empty when unknown, e.g. mid-election).
	Leader string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("rpc: remote error %d: %s", e.Code, e.Msg)
}

// Is lets errors.Is match the code sentinels through any wrapping
// (PartialError outcomes, fmt %w chains).
func (e *RemoteError) Is(target error) bool {
	switch target {
	case ErrStalePlacement:
		return e.Code == ErrCodeStalePlacement
	case ErrUnknownFile:
		return e.Code == ErrCodeUnknownFile
	case qos.ErrOverloaded:
		return e.Code == ErrCodeOverloaded
	case ErrNotLeader:
		return e.Code == ErrCodeNotLeader
	}
	return false
}

// ErrCorrupt wraps every wire-decoding failure.
var ErrCorrupt = fmt.Errorf("rpc: corrupt frame")

// ErrCorruptFrame marks a frame whose CRC32C trailer did not match
// its body: the frame was damaged in flight, not malformed by a peer.
// The client treats it like a connection-level failure — drop the
// connection and retry the idempotent request — instead of surfacing a
// decode error.
var ErrCorruptFrame = fmt.Errorf("%w: frame checksum mismatch", ErrCorrupt)

// frameCastagnoli is the CRC32C table of the frame trailer.
var frameCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// FrameChecksum is the CRC32C a frame's trailer carries for body.
func FrameChecksum(body []byte) uint32 {
	return crc32.Checksum(body, frameCastagnoli)
}

// Fingerprint content-addresses an encoded projection (FNV-1a 64).
// Zero is reserved to mean "no projection / contiguous", so a real
// hash of zero is nudged to one.
func Fingerprint(encoded []byte) uint64 {
	h := fnv.New64a()
	h.Write(encoded)
	fp := h.Sum64()
	if fp == 0 {
		fp = 1
	}
	return fp
}

// frameBufPool recycles frame encode/decode buffers across requests on
// both sides of the wire.
var frameBufPool sync.Pool

// maxPooledFrame caps frame-pool retention: buffers above this size are
// dropped on release instead of returned to the pool, so one oversized
// monolithic op cannot pin tens of megabytes for the life of the
// process. Streamed chunks sit well below the cap, which is the point —
// the steady-state pool holds chunk-sized buffers only.
const maxPooledFrame = 8 << 20

// framePoolDiscards counts buffers dropped by the retention cap.
var framePoolDiscards atomic.Int64

// FramePoolDiscards reports how many frame buffers were discarded
// rather than pooled because they exceeded the retention cap.
func FramePoolDiscards() int64 { return framePoolDiscards.Load() }

// getFrameBuf returns a zero-length buffer with at least n capacity.
func getFrameBuf(n int) []byte {
	if v := frameBufPool.Get(); v != nil {
		b := *(v.(*[]byte))
		if cap(b) >= n {
			return b[:0]
		}
	}
	return make([]byte, 0, n)
}

// putFrameBuf returns a buffer to the pool; the caller must not retain
// the slice afterwards. Buffers above maxPooledFrame are dropped (and
// counted) instead of pooled.
func putFrameBuf(b []byte) {
	if cap(b) == 0 {
		return
	}
	if cap(b) > maxPooledFrame {
		framePoolDiscards.Add(1)
		return
	}
	b = b[:0]
	frameBufPool.Put(&b)
}

// WriteFrame writes one frame: a 4-byte big-endian body length, the
// body (version byte, type byte, payload), then a 4-byte big-endian
// CRC32C trailer of the body. The trailer travels outside the length
// prefix.
func WriteFrame(w io.Writer, body []byte) error {
	return WriteFrameVec(w, body)
}

// WriteFrameVec writes one frame whose body is the concatenation of
// parts, without assembling them into a single buffer: the 4-byte
// length prefix, every part, and the CRC32C trailer travel as one
// vectored write (writev on a *net.TCPConn via net.Buffers, sequential
// writes elsewhere). The first part must start with the version byte;
// the checksum is computed incrementally across parts, so a large data
// part is never copied into a frame buffer just to be framed.
func WriteFrameVec(w io.Writer, parts ...[]byte) error {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	if n == 0 || len(parts[0]) == 0 {
		return fmt.Errorf("rpc: vectored frame with empty leading part")
	}
	bufs := make(net.Buffers, 0, len(parts)+2)
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(n))
	bufs = append(bufs, hdr[:])
	crc := uint32(0)
	for _, p := range parts {
		if len(p) > 0 {
			bufs = append(bufs, p)
			crc = crc32.Update(crc, frameCastagnoli, p)
		}
	}
	var sum [4]byte
	binary.BigEndian.PutUint32(sum[:], crc)
	bufs = append(bufs, sum[:])
	_, err := bufs.WriteTo(w)
	return err
}

// ReadFrame reads one frame body into a pooled buffer, verifying its
// CRC32C trailer (a mismatch is ErrCorruptFrame). Callers pass the
// body to putFrameBuf (or ReleaseFrame) when done with it.
func ReadFrame(r io.Reader, maxFrame int64) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := int64(binary.BigEndian.Uint32(hdr[:]))
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	if n < 2 || n > maxFrame {
		return nil, fmt.Errorf("%w: frame length %d outside [2,%d]", ErrCorrupt, n, maxFrame)
	}
	body := getFrameBuf(int(n))[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		putFrameBuf(body)
		return nil, err
	}
	var sum [4]byte
	if _, err := io.ReadFull(r, sum[:]); err != nil {
		putFrameBuf(body)
		return nil, err
	}
	if binary.BigEndian.Uint32(sum[:]) != FrameChecksum(body) {
		putFrameBuf(body)
		return nil, ErrCorruptFrame
	}
	return body, nil
}

// ReleaseFrame returns a frame body obtained from ReadFrame to the
// buffer pool.
func ReleaseFrame(body []byte) { putFrameBuf(body) }

// ParseFrame splits a frame body into message type and payload,
// checking the protocol version.
func ParseFrame(body []byte) (msgType byte, payload []byte, err error) {
	if len(body) < 2 {
		return 0, nil, fmt.Errorf("%w: %d-byte body", ErrCorrupt, len(body))
	}
	if body[0] != ProtoVersion3 {
		return 0, nil, fmt.Errorf("%w: protocol version %d, want %d", ErrCorrupt, body[0], ProtoVersion3)
	}
	return body[1], body[2:], nil
}

// beginFrame starts a frame body of the given type in buf.
func beginFrame(buf []byte, msgType byte) []byte {
	return append(buf, ProtoVersion3, msgType)
}

func appendString(buf []byte, s string) []byte {
	buf = codec.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendBytes(buf, b []byte) []byte {
	buf = codec.AppendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
}

func readString(buf []byte) (string, []byte, error) {
	b, rest, err := readBytes(buf)
	return string(b), rest, err
}

func readBytes(buf []byte) ([]byte, []byte, error) {
	n, rest, err := codec.ReadUvarint(buf)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if n > uint64(len(rest)) {
		return nil, nil, fmt.Errorf("%w: %d-byte field overruns %d-byte buffer", ErrCorrupt, n, len(rest))
	}
	return rest[:n], rest[n:], nil
}

func readUvarint(buf []byte) (uint64, []byte, error) {
	v, rest, err := codec.ReadUvarint(buf)
	if err != nil {
		return 0, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return v, rest, nil
}

func readVarint(buf []byte) (int64, []byte, error) {
	v, rest, err := codec.ReadVarint(buf)
	if err != nil {
		return 0, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return v, rest, nil
}

func wantEmpty(buf []byte) error {
	if len(buf) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(buf))
	}
	return nil
}

// CreateFileReq registers a file on an I/O node and opens the stores
// of the subfiles that node hosts.
type CreateFileReq struct {
	Name     string
	Phys     []byte // codec.EncodeFile of the physical partition
	Subfiles []int  // subfile indices hosted by the receiving node
	Reopen   bool   // open existing subfiles without truncation
	// Epoch stamps the opened stores with a placement epoch. Zero (the
	// default) encodes byte-identically to the pre-placement request
	// and leaves the stores unversioned. Only sent to peers that
	// granted FeaturePlacement.
	Epoch uint64
}

// AppendCreateFile encodes req as a frame body.
func AppendCreateFile(buf []byte, req *CreateFileReq) []byte {
	buf = beginFrame(buf, MsgCreateFile)
	buf = appendString(buf, req.Name)
	buf = appendBytes(buf, req.Phys)
	buf = codec.AppendUvarint(buf, uint64(len(req.Subfiles)))
	for _, s := range req.Subfiles {
		buf = codec.AppendUvarint(buf, uint64(s))
	}
	if req.Reopen {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	if req.Epoch != 0 {
		buf = codec.AppendUvarint(buf, req.Epoch)
	}
	return buf
}

// DecodeCreateFile decodes a MsgCreateFile payload.
func DecodeCreateFile(payload []byte) (*CreateFileReq, error) {
	req := &CreateFileReq{}
	var err error
	if req.Name, payload, err = readString(payload); err != nil {
		return nil, err
	}
	var phys []byte
	if phys, payload, err = readBytes(payload); err != nil {
		return nil, err
	}
	req.Phys = append([]byte(nil), phys...)
	n, payload, err := readUvarint(payload)
	if err != nil {
		return nil, err
	}
	if n > uint64(len(payload)) {
		return nil, fmt.Errorf("%w: implausible subfile count %d", ErrCorrupt, n)
	}
	req.Subfiles = make([]int, 0, n)
	for i := uint64(0); i < n; i++ {
		var s uint64
		if s, payload, err = readUvarint(payload); err != nil {
			return nil, err
		}
		req.Subfiles = append(req.Subfiles, int(s))
	}
	if len(payload) < 1 {
		return nil, fmt.Errorf("%w: missing reopen flag", ErrCorrupt)
	}
	req.Reopen = payload[0] != 0
	payload = payload[1:]
	if len(payload) > 0 {
		if req.Epoch, payload, err = readUvarint(payload); err != nil {
			return nil, err
		}
	}
	return req, wantEmpty(payload)
}

// SetViewReq registers an encoded projection under its fingerprint.
// Projections are content-addressed and file-independent, so one
// registration serves every file and subfile that uses the shape.
type SetViewReq struct {
	Fingerprint uint64
	Proj        []byte // redist.EncodeProjection
}

// AppendSetView encodes req as a frame body.
func AppendSetView(buf []byte, req *SetViewReq) []byte {
	buf = beginFrame(buf, MsgSetView)
	buf = codec.AppendUvarint(buf, req.Fingerprint)
	buf = appendBytes(buf, req.Proj)
	return buf
}

// DecodeSetView decodes a MsgSetView payload.
func DecodeSetView(payload []byte) (*SetViewReq, error) {
	req := &SetViewReq{}
	var err error
	if req.Fingerprint, payload, err = readUvarint(payload); err != nil {
		return nil, err
	}
	var proj []byte
	if proj, payload, err = readBytes(payload); err != nil {
		return nil, err
	}
	req.Proj = append([]byte(nil), proj...)
	return req, wantEmpty(payload)
}

// WriteSegsReq is the scatter request. The server grows the subfile to
// Hi+1 bytes, then: with a zero fingerprint writes Data contiguously
// at Lo; otherwise scatters Data into the regions the registered
// projection selects within [Lo, Hi]. Empty Data makes it a pure
// EnsureLen.
type WriteSegsReq struct {
	File        string
	Subfile     int64
	Fingerprint uint64
	Lo, Hi      int64
	Data        []byte
	// Epoch is the placement epoch the client believes current; the
	// server rejects a mismatch with ErrCodeStalePlacement. Zero (the
	// default) encodes byte-identically to the pre-placement request
	// and skips the check.
	Epoch uint64
}

// AppendWriteSegs encodes req as a frame body.
func AppendWriteSegs(buf []byte, req *WriteSegsReq) []byte {
	buf = beginFrame(buf, MsgWriteSegs)
	buf = appendString(buf, req.File)
	buf = codec.AppendVarint(buf, req.Subfile)
	buf = codec.AppendUvarint(buf, req.Fingerprint)
	buf = codec.AppendVarint(buf, req.Lo)
	buf = codec.AppendVarint(buf, req.Hi)
	buf = appendBytes(buf, req.Data)
	if req.Epoch != 0 {
		buf = codec.AppendUvarint(buf, req.Epoch)
	}
	return buf
}

// DecodeWriteSegs decodes a MsgWriteSegs payload. Data aliases the
// frame buffer; the server copies it into storage before releasing the
// frame.
func DecodeWriteSegs(payload []byte) (*WriteSegsReq, error) {
	req := &WriteSegsReq{}
	var err error
	if req.File, payload, err = readString(payload); err != nil {
		return nil, err
	}
	if req.Subfile, payload, err = readVarint(payload); err != nil {
		return nil, err
	}
	if req.Fingerprint, payload, err = readUvarint(payload); err != nil {
		return nil, err
	}
	if req.Lo, payload, err = readVarint(payload); err != nil {
		return nil, err
	}
	if req.Hi, payload, err = readVarint(payload); err != nil {
		return nil, err
	}
	if req.Data, payload, err = readBytes(payload); err != nil {
		return nil, err
	}
	if len(payload) > 0 {
		if req.Epoch, payload, err = readUvarint(payload); err != nil {
			return nil, err
		}
	}
	return req, wantEmpty(payload)
}

// ReadSegsReq is the gather request: with a zero fingerprint the
// server reads N contiguous bytes at Lo; otherwise it gathers the
// regions the registered projection selects within [Lo, Hi] (N bytes
// in total, validated server-side).
type ReadSegsReq struct {
	File        string
	Subfile     int64
	Fingerprint uint64
	Lo, Hi      int64
	N           int64
	// Epoch as on WriteSegsReq: zero encodes the legacy bytes.
	Epoch uint64
}

// AppendReadSegs encodes req as a frame body.
func AppendReadSegs(buf []byte, req *ReadSegsReq) []byte {
	buf = beginFrame(buf, MsgReadSegs)
	buf = appendString(buf, req.File)
	buf = codec.AppendVarint(buf, req.Subfile)
	buf = codec.AppendUvarint(buf, req.Fingerprint)
	buf = codec.AppendVarint(buf, req.Lo)
	buf = codec.AppendVarint(buf, req.Hi)
	buf = codec.AppendVarint(buf, req.N)
	if req.Epoch != 0 {
		buf = codec.AppendUvarint(buf, req.Epoch)
	}
	return buf
}

// DecodeReadSegs decodes a MsgReadSegs payload.
func DecodeReadSegs(payload []byte) (*ReadSegsReq, error) {
	req := &ReadSegsReq{}
	var err error
	if req.File, payload, err = readString(payload); err != nil {
		return nil, err
	}
	if req.Subfile, payload, err = readVarint(payload); err != nil {
		return nil, err
	}
	if req.Fingerprint, payload, err = readUvarint(payload); err != nil {
		return nil, err
	}
	if req.Lo, payload, err = readVarint(payload); err != nil {
		return nil, err
	}
	if req.Hi, payload, err = readVarint(payload); err != nil {
		return nil, err
	}
	if req.N, payload, err = readVarint(payload); err != nil {
		return nil, err
	}
	if len(payload) > 0 {
		if req.Epoch, payload, err = readUvarint(payload); err != nil {
			return nil, err
		}
	}
	return req, wantEmpty(payload)
}

// StatReq asks for a subfile's current length.
type StatReq struct {
	File    string
	Subfile int64
}

// AppendStat encodes req as a frame body.
func AppendStat(buf []byte, req *StatReq) []byte {
	buf = beginFrame(buf, MsgStat)
	buf = appendString(buf, req.File)
	buf = codec.AppendVarint(buf, req.Subfile)
	return buf
}

// DecodeStat decodes a MsgStat payload.
func DecodeStat(payload []byte) (*StatReq, error) {
	req := &StatReq{}
	var err error
	if req.File, payload, err = readString(payload); err != nil {
		return nil, err
	}
	if req.Subfile, payload, err = readVarint(payload); err != nil {
		return nil, err
	}
	return req, wantEmpty(payload)
}

// CloseReq syncs and closes every store of the file on the receiving
// node. Closing an unknown file succeeds (idempotent, retry-safe).
// With Remove set, the node also deletes the stores' backing data —
// the rebalance driver's garbage collection of superseded name@epoch
// stores. Remove travels as an optional trailing flag byte, only when
// set, so the legacy encoding is untouched.
type CloseReq struct {
	File   string
	Remove bool
}

// AppendClose encodes req as a frame body.
func AppendClose(buf []byte, req *CloseReq) []byte {
	buf = beginFrame(buf, MsgClose)
	buf = appendString(buf, req.File)
	if req.Remove {
		buf = append(buf, 1)
	}
	return buf
}

// DecodeClose decodes a MsgClose payload.
func DecodeClose(payload []byte) (*CloseReq, error) {
	req := &CloseReq{}
	var err error
	if req.File, payload, err = readString(payload); err != nil {
		return nil, err
	}
	if len(payload) > 0 {
		req.Remove = payload[0] != 0
		payload = payload[1:]
	}
	return req, wantEmpty(payload)
}

// AppendPing encodes the empty liveness probe.
func AppendPing(buf []byte) []byte { return beginFrame(buf, MsgPing) }

// AppendOK encodes the empty success response.
func AppendOK(buf []byte) []byte { return beginFrame(buf, MsgOK) }

// AppendData encodes a payload-carrying success response.
func AppendData(buf, data []byte) []byte {
	buf = beginFrame(buf, MsgData)
	return appendBytes(buf, data)
}

// DecodeData decodes a MsgData payload. The returned bytes alias the
// frame buffer.
func DecodeData(payload []byte) ([]byte, error) {
	b, payload, err := readBytes(payload)
	if err != nil {
		return nil, err
	}
	return b, wantEmpty(payload)
}

// AppendStatResp encodes a Stat response.
func AppendStatResp(buf []byte, length int64) []byte {
	buf = beginFrame(buf, MsgStatResp)
	return codec.AppendVarint(buf, length)
}

// DecodeStatResp decodes a MsgStatResp payload.
func DecodeStatResp(payload []byte) (int64, error) {
	n, payload, err := readVarint(payload)
	if err != nil {
		return 0, err
	}
	return n, wantEmpty(payload)
}

// AppendHelloTenant encodes the hello: the protocol version, the
// feature bitmask (elided when zero) and, when FeatureTenant is set,
// the tenant name trailing it.
func AppendHelloTenant(buf []byte, want byte, features uint64, tenant string) []byte {
	buf = beginFrame(buf, MsgHello)
	buf = codec.AppendUvarint(buf, uint64(want))
	if features != 0 {
		buf = codec.AppendUvarint(buf, features)
	}
	if features&FeatureTenant != 0 {
		buf = appendString(buf, tenant)
	}
	return buf
}

// DecodeHelloTenant decodes a MsgHello payload. An absent features
// field decodes as zero; the tenant string is present exactly when
// FeatureTenant is set.
func DecodeHelloTenant(payload []byte) (byte, uint64, string, error) {
	v, payload, err := readUvarint(payload)
	if err != nil {
		return 0, 0, "", err
	}
	if v < 1 || v > 255 {
		return 0, 0, "", fmt.Errorf("%w: implausible protocol version %d", ErrCorrupt, v)
	}
	var features uint64
	if len(payload) > 0 {
		if features, payload, err = readUvarint(payload); err != nil {
			return 0, 0, "", err
		}
	}
	var tenant string
	if features&FeatureTenant != 0 {
		if tenant, payload, err = readString(payload); err != nil {
			return 0, 0, "", err
		}
	}
	return byte(v), features, tenant, wantEmpty(payload)
}

// AppendHelloRespFeatures encodes the daemon's version plus the
// feature bits it both serves and saw requested (elided when zero).
func AppendHelloRespFeatures(buf []byte, ver byte, features uint64) []byte {
	buf = beginFrame(buf, MsgHelloResp)
	buf = codec.AppendUvarint(buf, uint64(ver))
	if features != 0 {
		buf = codec.AppendUvarint(buf, features)
	}
	return buf
}

// DecodeHelloRespFeatures decodes a MsgHelloResp payload; an absent
// features field decodes as zero.
func DecodeHelloRespFeatures(payload []byte) (byte, uint64, error) {
	v, payload, err := readUvarint(payload)
	if err != nil {
		return 0, 0, err
	}
	if v < 1 || v > 255 {
		return 0, 0, fmt.Errorf("%w: implausible protocol version %d", ErrCorrupt, v)
	}
	var features uint64
	if len(payload) > 0 {
		if features, payload, err = readUvarint(payload); err != nil {
			return 0, 0, err
		}
	}
	return byte(v), features, wantEmpty(payload)
}

// ChecksumReq asks for the CRC32C of subfile bytes [Off, Off+N); bytes
// beyond the subfile's current length count as zeroes.
type ChecksumReq struct {
	File    string
	Subfile int64
	Off, N  int64
}

// AppendChecksum encodes req as a frame body.
func AppendChecksum(buf []byte, req *ChecksumReq) []byte {
	buf = beginFrame(buf, MsgChecksum)
	buf = appendString(buf, req.File)
	buf = codec.AppendVarint(buf, req.Subfile)
	buf = codec.AppendVarint(buf, req.Off)
	buf = codec.AppendVarint(buf, req.N)
	return buf
}

// DecodeChecksum decodes a MsgChecksum payload.
func DecodeChecksum(payload []byte) (*ChecksumReq, error) {
	req := &ChecksumReq{}
	var err error
	if req.File, payload, err = readString(payload); err != nil {
		return nil, err
	}
	if req.Subfile, payload, err = readVarint(payload); err != nil {
		return nil, err
	}
	if req.Off, payload, err = readVarint(payload); err != nil {
		return nil, err
	}
	if req.N, payload, err = readVarint(payload); err != nil {
		return nil, err
	}
	return req, wantEmpty(payload)
}

// AppendChecksumResp encodes a Checksum response.
func AppendChecksumResp(buf []byte, sum uint32) []byte {
	buf = beginFrame(buf, MsgChecksumResp)
	return codec.AppendUvarint(buf, uint64(sum))
}

// DecodeChecksumResp decodes a MsgChecksumResp payload.
func DecodeChecksumResp(payload []byte) (uint32, error) {
	v, payload, err := readUvarint(payload)
	if err != nil {
		return 0, err
	}
	if v > 0xFFFFFFFF {
		return 0, fmt.Errorf("%w: checksum %d overflows uint32", ErrCorrupt, v)
	}
	return uint32(v), wantEmpty(payload)
}

// AppendError encodes an error response.
func AppendError(buf []byte, code uint64, msg string) []byte {
	return AppendErrorRetry(buf, code, msg, 0)
}

// AppendErrorRetry encodes an error response with a retry-after hint.
// A zero hint appends nothing, so pre-overload peers decode the
// byte-identical legacy payload; a nonzero hint travels as trailing
// uvarint milliseconds (sub-millisecond hints round up to 1ms so the
// hint survives the wire).
func AppendErrorRetry(buf []byte, code uint64, msg string, retryAfter time.Duration) []byte {
	return AppendErrorLeader(buf, code, msg, retryAfter, "")
}

// AppendErrorLeader encodes an error response with a retry-after hint
// and a leader redirect hint. A non-empty leader forces the retry
// uvarint onto the wire (zero included) so the two trailing optional
// fields stay unambiguous; both empty reproduces the legacy bytes.
func AppendErrorLeader(buf []byte, code uint64, msg string, retryAfter time.Duration, leader string) []byte {
	buf = beginFrame(buf, MsgError)
	buf = codec.AppendUvarint(buf, code)
	buf = appendString(buf, msg)
	if retryAfter > 0 || leader != "" {
		ms := uint64(retryAfter.Milliseconds())
		if ms == 0 && retryAfter > 0 {
			ms = 1
		}
		buf = codec.AppendUvarint(buf, ms)
	}
	if leader != "" {
		buf = appendString(buf, leader)
	}
	return buf
}

// DecodeError decodes a MsgError payload. Absent retry-after and
// leader fields decode as zero values.
func DecodeError(payload []byte) (*RemoteError, error) {
	e := &RemoteError{}
	var err error
	if e.Code, payload, err = readUvarint(payload); err != nil {
		return nil, err
	}
	if e.Msg, payload, err = readString(payload); err != nil {
		return nil, err
	}
	if len(payload) > 0 {
		var ms uint64
		if ms, payload, err = readUvarint(payload); err != nil {
			return nil, err
		}
		e.RetryAfter = time.Duration(ms) * time.Millisecond
	}
	if len(payload) > 0 {
		if e.Leader, payload, err = readString(payload); err != nil {
			return nil, err
		}
	}
	return e, wantEmpty(payload)
}

// --- multiplexed streams ---
//
// After the hello every frame body is [version][type][uvarint stream
// id][payload]. Unary requests carry the payload encodings above
// unchanged past the stream id; the chunked-transfer messages below
// exist only as streams.

// appendStreamHdr begins a stream frame body: version, type, stream id.
func appendStreamHdr(buf []byte, msgType byte, sid uint64) []byte {
	buf = append(buf, ProtoVersion3, msgType)
	return codec.AppendUvarint(buf, sid)
}

// splitStreamFrame splits a stream frame body past ParseFrame into its
// stream id and remaining payload.
func splitStreamFrame(payload []byte) (uint64, []byte, error) {
	return readUvarint(payload)
}

// appendChunkHdr begins a chunk frame body (MsgWriteChunk or
// MsgDataChunk): the chunk's data is appended by the vectored writer,
// never copied into this buffer.
func appendChunkHdr(buf []byte, msgType byte, sid uint64, flags byte) []byte {
	buf = appendStreamHdr(buf, msgType, sid)
	return append(buf, flags)
}

// splitChunk splits a chunk payload (past the stream id) into its
// flags byte and data.
func splitChunk(payload []byte) (flags byte, data []byte, err error) {
	if len(payload) < 1 {
		return 0, nil, fmt.Errorf("%w: chunk without flags byte", ErrCorrupt)
	}
	return payload[0], payload[1:], nil
}

// WriteStreamReq opens a chunked scatter: the same addressing as
// WriteSegsReq, with the data instead arriving as MsgWriteChunk frames
// totalling Total bytes.
type WriteStreamReq struct {
	File        string
	Subfile     int64
	Fingerprint uint64
	Lo, Hi      int64
	Total       int64
	// TraceID/SpanID tie the stream into a distributed trace; both
	// zero (the default) encodes byte-identically to the pre-tracing
	// request. Only sent to peers that advertised FeatureTrace.
	TraceID uint64
	SpanID  uint64
	// Epoch as on WriteSegsReq. A non-zero epoch forces the trace pair
	// onto the wire (zeros if untraced) so the decoder can tell the
	// trailing fields apart; only sent to FeaturePlacement peers.
	Epoch uint64
}

// AppendWriteStream encodes req as a frame body on stream sid.
func AppendWriteStream(buf []byte, sid uint64, req *WriteStreamReq) []byte {
	buf = appendStreamHdr(buf, MsgWriteStream, sid)
	buf = appendString(buf, req.File)
	buf = codec.AppendVarint(buf, req.Subfile)
	buf = codec.AppendUvarint(buf, req.Fingerprint)
	buf = codec.AppendVarint(buf, req.Lo)
	buf = codec.AppendVarint(buf, req.Hi)
	buf = codec.AppendVarint(buf, req.Total)
	if req.TraceID != 0 || req.Epoch != 0 {
		buf = codec.AppendUvarint(buf, req.TraceID)
		buf = codec.AppendUvarint(buf, req.SpanID)
	}
	if req.Epoch != 0 {
		buf = codec.AppendUvarint(buf, req.Epoch)
	}
	return buf
}

// DecodeWriteStream decodes a MsgWriteStream payload (past the stream
// id).
func DecodeWriteStream(payload []byte) (*WriteStreamReq, error) {
	req := &WriteStreamReq{}
	var err error
	if req.File, payload, err = readString(payload); err != nil {
		return nil, err
	}
	if req.Subfile, payload, err = readVarint(payload); err != nil {
		return nil, err
	}
	if req.Fingerprint, payload, err = readUvarint(payload); err != nil {
		return nil, err
	}
	if req.Lo, payload, err = readVarint(payload); err != nil {
		return nil, err
	}
	if req.Hi, payload, err = readVarint(payload); err != nil {
		return nil, err
	}
	if req.Total, payload, err = readVarint(payload); err != nil {
		return nil, err
	}
	if len(payload) > 0 {
		if req.TraceID, payload, err = readUvarint(payload); err != nil {
			return nil, err
		}
		if req.SpanID, payload, err = readUvarint(payload); err != nil {
			return nil, err
		}
	}
	if len(payload) > 0 {
		if req.Epoch, payload, err = readUvarint(payload); err != nil {
			return nil, err
		}
	}
	return req, wantEmpty(payload)
}

// ReadStreamReq opens a chunked gather: the same addressing as
// ReadSegsReq plus the chunk size the client wants the N gathered
// bytes sliced into.
type ReadStreamReq struct {
	File        string
	Subfile     int64
	Fingerprint uint64
	Lo, Hi      int64
	N           int64
	ChunkSize   int64
	// TraceID/SpanID as on WriteStreamReq: zero encodes the legacy
	// bytes, non-zero only travels to FeatureTrace peers.
	TraceID uint64
	SpanID  uint64
	// Epoch as on WriteStreamReq: forces the trace pair when set.
	Epoch uint64
}

// AppendReadStream encodes req as a frame body on stream sid.
func AppendReadStream(buf []byte, sid uint64, req *ReadStreamReq) []byte {
	buf = appendStreamHdr(buf, MsgReadStream, sid)
	buf = appendString(buf, req.File)
	buf = codec.AppendVarint(buf, req.Subfile)
	buf = codec.AppendUvarint(buf, req.Fingerprint)
	buf = codec.AppendVarint(buf, req.Lo)
	buf = codec.AppendVarint(buf, req.Hi)
	buf = codec.AppendVarint(buf, req.N)
	buf = codec.AppendVarint(buf, req.ChunkSize)
	if req.TraceID != 0 || req.Epoch != 0 {
		buf = codec.AppendUvarint(buf, req.TraceID)
		buf = codec.AppendUvarint(buf, req.SpanID)
	}
	if req.Epoch != 0 {
		buf = codec.AppendUvarint(buf, req.Epoch)
	}
	return buf
}

// DecodeReadStream decodes a MsgReadStream payload (past the stream
// id).
func DecodeReadStream(payload []byte) (*ReadStreamReq, error) {
	req := &ReadStreamReq{}
	var err error
	if req.File, payload, err = readString(payload); err != nil {
		return nil, err
	}
	if req.Subfile, payload, err = readVarint(payload); err != nil {
		return nil, err
	}
	if req.Fingerprint, payload, err = readUvarint(payload); err != nil {
		return nil, err
	}
	if req.Lo, payload, err = readVarint(payload); err != nil {
		return nil, err
	}
	if req.Hi, payload, err = readVarint(payload); err != nil {
		return nil, err
	}
	if req.N, payload, err = readVarint(payload); err != nil {
		return nil, err
	}
	if req.ChunkSize, payload, err = readVarint(payload); err != nil {
		return nil, err
	}
	if len(payload) > 0 {
		if req.TraceID, payload, err = readUvarint(payload); err != nil {
			return nil, err
		}
		if req.SpanID, payload, err = readUvarint(payload); err != nil {
			return nil, err
		}
	}
	if len(payload) > 0 {
		if req.Epoch, payload, err = readUvarint(payload); err != nil {
			return nil, err
		}
	}
	return req, wantEmpty(payload)
}

// --- tracing extension: span records, the traced envelope, drains ---

// maxSpanRecords bounds a decoded record batch: no legitimate op tree
// is deeper or wider than this, and the cap stops a corrupt count
// from allocating the machine away.
const maxSpanRecords = 1 << 16

func appendSpanRecord(buf []byte, r *obs.SpanRecord) []byte {
	buf = codec.AppendUvarint(buf, r.TraceID)
	buf = codec.AppendUvarint(buf, r.SpanID)
	buf = codec.AppendUvarint(buf, r.Parent)
	buf = appendString(buf, r.Name)
	buf = appendString(buf, r.Node)
	buf = codec.AppendVarint(buf, r.Start)
	buf = codec.AppendVarint(buf, r.End)
	var e byte
	if r.Err {
		e = 1
	}
	return append(buf, e)
}

func readSpanRecord(payload []byte) (obs.SpanRecord, []byte, error) {
	var r obs.SpanRecord
	var err error
	if r.TraceID, payload, err = readUvarint(payload); err != nil {
		return r, nil, err
	}
	if r.SpanID, payload, err = readUvarint(payload); err != nil {
		return r, nil, err
	}
	if r.Parent, payload, err = readUvarint(payload); err != nil {
		return r, nil, err
	}
	if r.Name, payload, err = readString(payload); err != nil {
		return r, nil, err
	}
	if r.Node, payload, err = readString(payload); err != nil {
		return r, nil, err
	}
	if r.Start, payload, err = readVarint(payload); err != nil {
		return r, nil, err
	}
	if r.End, payload, err = readVarint(payload); err != nil {
		return r, nil, err
	}
	if len(payload) < 1 {
		return r, nil, fmt.Errorf("%w: span record without error byte", ErrCorrupt)
	}
	r.Err = payload[0] != 0
	return r, payload[1:], nil
}

// AppendSpanRecords encodes a uvarint count followed by the records.
func AppendSpanRecords(buf []byte, recs []obs.SpanRecord) []byte {
	buf = codec.AppendUvarint(buf, uint64(len(recs)))
	for i := range recs {
		buf = appendSpanRecord(buf, &recs[i])
	}
	return buf
}

// ReadSpanRecords decodes a record batch, returning the remainder.
func ReadSpanRecords(payload []byte) ([]obs.SpanRecord, []byte, error) {
	n, payload, err := readUvarint(payload)
	if err != nil {
		return nil, nil, err
	}
	if n > maxSpanRecords {
		return nil, nil, fmt.Errorf("%w: implausible span record count %d", ErrCorrupt, n)
	}
	recs := make([]obs.SpanRecord, 0, n)
	for i := uint64(0); i < n; i++ {
		var r obs.SpanRecord
		if r, payload, err = readSpanRecord(payload); err != nil {
			return nil, nil, err
		}
		recs = append(recs, r)
	}
	return recs, payload, nil
}

// DecodeTraced splits a MsgTraced payload into the trace identifiers
// and the inner request (type + payload, aliasing the input).
func DecodeTraced(payload []byte) (traceID, parent uint64, innerType byte, inner []byte, err error) {
	if traceID, payload, err = readUvarint(payload); err != nil {
		return 0, 0, 0, nil, err
	}
	if parent, payload, err = readUvarint(payload); err != nil {
		return 0, 0, 0, nil, err
	}
	if traceID == 0 {
		return 0, 0, 0, nil, fmt.Errorf("%w: traced envelope without trace id", ErrCorrupt)
	}
	if len(payload) < 1 {
		return 0, 0, 0, nil, fmt.Errorf("%w: traced envelope without inner request", ErrCorrupt)
	}
	return traceID, parent, payload[0], payload[1:], nil
}

// AppendTracedResp wraps a complete inner response frame body (as
// produced by the Append* response builders: [ver][type][payload])
// into a MsgTracedResp envelope carrying the server's span records.
func AppendTracedResp(buf []byte, recs []obs.SpanRecord, inner []byte) []byte {
	buf = beginFrame(buf, MsgTracedResp)
	buf = AppendSpanRecords(buf, recs)
	return append(buf, inner[1:]...) // drop the inner version byte
}

// DecodeTracedResp splits a MsgTracedResp payload into the span
// records and the inner response (type + payload, aliasing input).
func DecodeTracedResp(payload []byte) (recs []obs.SpanRecord, innerType byte, inner []byte, err error) {
	if recs, payload, err = ReadSpanRecords(payload); err != nil {
		return nil, 0, nil, err
	}
	if len(payload) < 1 {
		return nil, 0, nil, fmt.Errorf("%w: traced response without inner response", ErrCorrupt)
	}
	return recs, payload[0], payload[1:], nil
}

// AppendSpansReq encodes a MsgSpans drain request.
func AppendSpansReq(buf []byte, traceID uint64) []byte {
	buf = beginFrame(buf, MsgSpans)
	return codec.AppendUvarint(buf, traceID)
}

// DecodeSpansReq decodes a MsgSpans payload.
func DecodeSpansReq(payload []byte) (uint64, error) {
	traceID, payload, err := readUvarint(payload)
	if err != nil {
		return 0, err
	}
	return traceID, wantEmpty(payload)
}

// AppendSpansResp encodes the drained records.
func AppendSpansResp(buf []byte, recs []obs.SpanRecord) []byte {
	buf = beginFrame(buf, MsgSpansResp)
	return AppendSpanRecords(buf, recs)
}

// DecodeSpansResp decodes a MsgSpansResp payload.
func DecodeSpansResp(payload []byte) ([]obs.SpanRecord, error) {
	recs, payload, err := ReadSpanRecords(payload)
	if err != nil {
		return nil, err
	}
	return recs, wantEmpty(payload)
}
