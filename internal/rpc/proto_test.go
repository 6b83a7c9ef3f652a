package rpc

import (
	"bytes"
	"context"
	"errors"
	"hash/crc32"
	"net"
	"testing"
	"time"

	"parafile/internal/fault"
	"parafile/internal/obs"
)

// proto_test.go covers the framing and the connection's opening: the
// CRC32C frame trailer and its typed corruption error, the hello that
// admits only this protocol version, and the Checksum RPC the scrub
// path rides on.

func TestFrameV3RoundTrip(t *testing.T) {
	body := AppendStat(nil, &StatReq{File: "f", Subfile: 3})
	var buf bytes.Buffer
	if err := WriteFrame(&buf, body); err != nil {
		t.Fatal(err)
	}
	if n := buf.Len(); n != 4+len(body)+4 {
		t.Fatalf("frame is %d bytes on the wire, want length prefix + %d-byte body + CRC trailer", n, len(body))
	}
	got, err := ReadFrame(&buf, DefaultMaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != ProtoVersion3 {
		t.Fatalf("frame version %d, want %d", got[0], ProtoVersion3)
	}
	msgType, payload, err := ParseFrame(got)
	if err != nil {
		t.Fatal(err)
	}
	if msgType != MsgStat {
		t.Fatalf("type %#x, want MsgStat", msgType)
	}
	req, err := DecodeStat(payload)
	if err != nil {
		t.Fatal(err)
	}
	if req.File != "f" || req.Subfile != 3 {
		t.Fatalf("decoded %+v", req)
	}
}

func TestFrameV3DetectsCorruption(t *testing.T) {
	body := AppendStat(nil, &StatReq{File: "file-name", Subfile: 1})
	var clean bytes.Buffer
	if err := WriteFrameVec(&clean, body[:3], body[3:]); err != nil {
		t.Fatal(err)
	}
	wire := clean.Bytes()
	// Flip every byte past the length prefix in turn: each single-byte
	// corruption — in the version byte, payload or trailer — must
	// surface as ErrCorruptFrame, never as a clean parse. The trailer
	// is computed across the vectored parts exactly as over one body.
	for i := 4; i < len(wire); i++ {
		damaged := append([]byte(nil), wire...)
		damaged[i] ^= 0x40
		_, err := ReadFrame(bytes.NewReader(damaged), DefaultMaxFrame)
		if !errors.Is(err, ErrCorruptFrame) {
			t.Fatalf("flip at %d: error %v, want ErrCorruptFrame", i, err)
		}
	}
	// The trailer itself checks out when untouched.
	if FrameChecksum(body) == 0 {
		t.Fatal("non-trivial body checksums to zero (suspicious)")
	}
}

func TestNegotiationDefaultUpgradesToMux(t *testing.T) {
	// A default client's hello lands it on one multiplexed connection
	// that every later call shares, whatever the call.
	reg := obs.NewRegistry()
	addr, srv := startServer(t, ServerConfig{Metrics: obs.NewRegistry()})
	c := NewClient(ClientConfig{Addr: addr, Metrics: reg})
	defer c.Close()
	ctx := context.Background()
	if err := c.CreateFile(ctx, &CreateFileReq{Name: "f", Phys: encodeTestPhys(t), Subfiles: []int{0}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stat(ctx, "f", 0); err != nil {
		t.Fatal(err)
	}
	if m := c.mux.Load(); m == nil || !m.alive() {
		t.Fatal("no live multiplexed connection after a call")
	}
	if dials := reg.Counter(MetricClientDials).Value(); dials != 1 {
		t.Fatalf("%d dials for three calls, want 1", dials)
	}
	if got := srv.met.requests[MsgHello].Value(); got != 1 {
		t.Fatalf("server answered %d hellos, want 1", got)
	}
}

// TestHelloRejectsOtherPeers: a peer that answers the hello with
// anything but a MsgHelloResp for this protocol version fails the
// dial; the client never falls back to another framing.
func TestHelloRejectsOtherPeers(t *testing.T) {
	for _, tc := range []struct {
		name string
		resp []byte
	}{
		{"error answer", AppendError(nil, ErrCodeBadRequest, "unknown message type 0x8")},
		{"older version", AppendHelloRespFeatures(nil, 2, 0)},
		{"wrong message", AppendOK(nil)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			go func() {
				for {
					conn, err := ln.Accept()
					if err != nil {
						return
					}
					if body, err := ReadFrame(conn, 0); err == nil {
						ReleaseFrame(body)
						WriteFrame(conn, tc.resp)
					}
					conn.Close()
				}
			}()
			reg := obs.NewRegistry()
			c := NewClient(ClientConfig{Addr: ln.Addr().String(), MaxRetries: 1, BackoffBase: time.Millisecond, Metrics: reg})
			defer c.Close()
			_, err = c.Stat(context.Background(), "f", 0)
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("call through a non-v3 hello: %v, want ErrCorrupt", err)
			}
			if dials := reg.Counter(MetricClientDials).Value(); dials != 2 {
				t.Fatalf("%d dials, want one per attempt", dials)
			}
		})
	}
}

// TestMuxOutlivesHelloDeadline: the connection's reader must not
// inherit the read deadline the hello set, or every connection would
// die ReadTimeout after its dial, busy or idle.
func TestMuxOutlivesHelloDeadline(t *testing.T) {
	addr, _ := startServer(t, ServerConfig{})
	reg := obs.NewRegistry()
	c := NewClient(ClientConfig{Addr: addr, ReadTimeout: 50 * time.Millisecond, Metrics: reg})
	defer c.Close()
	ctx := context.Background()
	if err := c.Ping(ctx); err != nil {
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond)
	if err := c.Ping(ctx); err != nil {
		t.Fatal(err)
	}
	if dials := reg.Counter(MetricClientDials).Value(); dials != 1 {
		t.Fatalf("%d dials across an idle spell, want 1", dials)
	}
}

func TestChecksumRPC(t *testing.T) {
	addr, _ := startServer(t, ServerConfig{})
	c := NewClient(ClientConfig{Addr: addr})
	defer c.Close()
	ctx := context.Background()
	if err := c.CreateFile(ctx, &CreateFileReq{Name: "f", Phys: encodeTestPhys(t), Subfiles: []int{0}}); err != nil {
		t.Fatal(err)
	}
	data := []byte("checksum me, zero-fill the rest")
	if err := c.WriteSegments(ctx, &WriteSegsReq{File: "f", Subfile: 0, Lo: 0, Hi: int64(len(data)) - 1, Data: data}); err != nil {
		t.Fatal(err)
	}

	table := crc32.MakeTable(crc32.Castagnoli)
	want := crc32.Checksum(data, table)
	got, err := c.Checksum(ctx, "f", 0, 0, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("checksum %08x, want %08x", got, want)
	}

	// Beyond-EOF bytes checksum as zeroes (the sparse read semantics).
	padded := append(append([]byte(nil), data...), make([]byte, 10)...)
	want = crc32.Checksum(padded, table)
	got, err = c.Checksum(ctx, "f", 0, 0, int64(len(padded)))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("overhang checksum %08x, want %08x", got, want)
	}

	// Negative ranges are a remote bad-request, not a crash.
	if _, err := c.Checksum(ctx, "f", 0, -1, 4); err == nil {
		t.Fatal("negative offset accepted")
	}
	var re *RemoteError
	if _, err := c.Checksum(ctx, "missing", 0, 0, 4); !errors.As(err, &re) {
		t.Fatalf("checksum of unknown file: %v", err)
	}
}

func TestClientRetriesCorruptResponseFrame(t *testing.T) {
	// One byte of the first response is flipped in flight. The frame's
	// CRC trailer catches it; the client drops the connection and the retry
	// gets a clean answer.
	addr, _ := startServer(t, ServerConfig{})
	inj := fault.NewInjector(fault.Plan{Seed: 7, Rules: []fault.Rule{
		{Node: fault.AnyNode, Op: fault.OpConnRead, Kind: fault.Corrupt, Times: 1},
	}}, nil)
	reg := obs.NewRegistry()
	c := NewClient(ClientConfig{
		Addr:        addr,
		Dialer:      inj.Dialer(nil),
		ReadTimeout: 500 * time.Millisecond,
		BackoffBase: time.Millisecond,
		Metrics:     reg,
	})
	defer c.Close()
	ctx := context.Background()
	if err := c.CreateFile(ctx, &CreateFileReq{Name: "f", Phys: encodeTestPhys(t), Subfiles: []int{0}}); err != nil {
		t.Fatal(err)
	}
	if inj.Injected(0) == 0 {
		t.Fatal("fault rule never fired")
	}
	if reg.Counter(MetricClientRetries).Value() == 0 {
		t.Fatal("corrupt frame was not retried")
	}
	// And the channel still works for real payloads afterwards.
	if err := c.WriteSegments(ctx, &WriteSegsReq{File: "f", Subfile: 0, Lo: 0, Hi: 3, Data: []byte("abcd")}); err != nil {
		t.Fatal(err)
	}
	if n, err := c.Stat(ctx, "f", 0); err != nil || n != 4 {
		t.Fatalf("stat after recovery = (%d, %v)", n, err)
	}
}
