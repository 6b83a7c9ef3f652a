package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"time"

	"parafile/internal/hpf"
	"parafile/internal/meta"
	"parafile/internal/part"
	"parafile/internal/rpc"
)

// rebalanceWorkload drives the metadata path: one in-process
// meta.Service over a disk-backed store, four loopback daemons of
// which three start active, and one replicated striped file. Each
// cycle:
//
//	write     the whole file by name through meta.FS;
//	rebalance AddNode(fourth daemon), then read and verify;
//	restart   a fresh meta.FS opens the file and reads it whole;
//	rebalance DrainNode(fourth daemon), then read and verify.
type rebalanceWorkload struct {
	fileBytes, stripe int64
	repl              int
	lt                *layerTrace

	images [2][]byte
	buf    []byte

	dir     string
	st      *meta.Store
	svc     *meta.Service
	svcDone chan error
	mdAddr  string
	d       *daemons
	fs      *meta.FS
	f       *meta.File
}

const rebalanceFile = "bench"

func newRebalance(lt *layerTrace) *rebalanceWorkload {
	return &rebalanceWorkload{fileBytes: 32 << 20, stripe: 256 << 10, repl: 2, lt: lt}
}

func (w *rebalanceWorkload) params() map[string]any {
	return map[string]any{
		"file_bytes": w.fileBytes, "stripe_bytes": w.stripe, "replication": w.repl,
		"daemons": 4, "active_nodes": "3<->4", "compute_nodes": 1,
	}
}

func (w *rebalanceWorkload) prepare(seed uint64) error {
	for v := range w.images {
		w.images[v] = payload(seed, uint64(v), w.fileBytes)
	}
	w.buf = make([]byte, w.fileBytes)
	return nil
}

func (w *rebalanceWorkload) fsOptions() meta.Options {
	return meta.Options{
		Client:  w.lt.clientConfig(),
		Metrics: w.lt.clientRegistry(),
		Tracer:  w.lt.clientTracer(),
	}
}

func (w *rebalanceWorkload) setup(ctx context.Context) error {
	dir, err := os.MkdirTemp("", "perfbench-meta-")
	if err != nil {
		return err
	}
	w.dir = dir
	if w.st, err = meta.OpenStore(dir, meta.StoreConfig{}); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.svc = meta.NewService(meta.ServiceConfig{Store: w.st})
	w.svcDone = make(chan error, 1)
	go func() { w.svcDone <- w.svc.Serve(ln) }()
	w.mdAddr = ln.Addr().String()
	if w.d, err = startDaemons(4, w.lt); err != nil {
		return err
	}
	w.fs = meta.Dial(w.mdAddr, w.fsOptions())
	for _, addr := range w.d.addrs[:3] {
		if _, err := w.fs.SetNode(ctx, addr, rpc.NodeActive); err != nil {
			return err
		}
	}
	if w.f, err = w.fs.Create(ctx, rebalanceFile, w.stripe, w.repl); err != nil {
		return err
	}
	if err := w.f.WriteAt(ctx, w.images[1], 0); err != nil {
		return fmt.Errorf("warm-up write: %w", err)
	}
	return w.f.ReadAt(ctx, w.buf, 0)
}

func (w *rebalanceWorkload) cycle(ctx context.Context, k int, m *meter) error {
	img := w.images[k%2]
	if err := m.op(opWrite, func() (int64, error) {
		return w.fileBytes, w.f.WriteAt(ctx, img, 0)
	}); err != nil {
		return err
	}
	added := w.d.addrs[3]
	if err := w.move(ctx, m, "add-node", img, func() ([]*meta.RebalanceOutcome, error) {
		return w.fs.AddNode(ctx, added)
	}); err != nil {
		return err
	}
	if err := w.restart(ctx, m, img); err != nil {
		return err
	}
	return w.move(ctx, m, "drain-node", img, func() ([]*meta.RebalanceOutcome, error) {
		return w.fs.DrainNode(ctx, added)
	})
}

// move times one membership change and then reads the file back.
func (w *rebalanceWorkload) move(ctx context.Context, m *meter, step string, img []byte, fn func() ([]*meta.RebalanceOutcome, error)) error {
	if err := m.op(opRebalance, func() (int64, error) {
		outs, err := fn()
		if err != nil {
			return 0, err
		}
		if len(outs) != 1 {
			return 0, fmt.Errorf("%s touched %d files, want 1", step, len(outs))
		}
		if outs[0].Err != nil {
			return 0, outs[0].Err
		}
		r := outs[0].Result
		if !r.Moved {
			return 0, fmt.Errorf("%s did not move the file", step)
		}
		w.lt.addMessages(r.Messages)
		return r.BytesMoved, nil
	}); err != nil {
		return err
	}
	if err := m.op(opRead, func() (int64, error) {
		return w.fileBytes, w.f.ReadAt(ctx, w.buf, 0)
	}); err != nil {
		return err
	}
	m.check(bytes.Equal(w.buf, img), "read-back after "+step+" differs from the written payload")
	return nil
}

// restart opens the file from a fresh meta.FS, as a restarted job
// would, and reads it whole.
func (w *rebalanceWorkload) restart(ctx context.Context, m *meter, img []byte) error {
	var fs *meta.FS
	var f *meta.File
	err := m.op(opRestart, func() (int64, error) {
		fs = meta.Dial(w.mdAddr, w.fsOptions())
		var err error
		if f, err = fs.Open(ctx, rebalanceFile); err != nil {
			return 0, err
		}
		return w.fileBytes, f.ReadAt(ctx, w.buf, 0)
	})
	if f != nil {
		f.Close()
	}
	if fs != nil {
		fs.Close()
	}
	if err != nil {
		return err
	}
	m.check(bytes.Equal(w.buf, img), "restart read differs from the written payload")
	return nil
}

// direct times the metadata calls and the layers under a move: the
// restart's whole-file view against the 4-node stripes, and the plan
// of each move (3->4 and 4->3 subfiles).
func (w *rebalanceWorkload) direct(ctx context.Context) error {
	stripes := func(n int) (*part.File, error) {
		pat, err := hpf.Pattern(fmt.Sprint(int64(n)*w.stripe), fmt.Sprintf("BLOCK(%d)", n), 1)
		if err != nil {
			return nil, err
		}
		return part.NewFile(0, pat)
	}
	s3, err := stripes(3)
	if err != nil {
		return err
	}
	s4, err := stripes(4)
	if err != nil {
		return err
	}
	wp, err := hpf.Pattern(fmt.Sprint(4*w.stripe), "*", 1)
	if err != nil {
		return err
	}
	whole := part.MustFile(0, wp)
	if err := directLayers(w.lt, whole, s4, whole, [][2]*part.File{{s3, s4}, {s4, s3}}); err != nil {
		return err
	}

	d, err := timeDirect(50, func() error {
		_, err := w.fs.Stat(ctx, rebalanceFile)
		return err
	})
	if err != nil {
		return err
	}
	w.lt.direct["meta.stat_us"] = float64(d.Nanoseconds()) / 1e3
	d, err = timeDirect(10, func() error {
		f, err := w.fs.Open(ctx, rebalanceFile)
		if err != nil {
			return err
		}
		return f.Close()
	})
	if err != nil {
		return err
	}
	w.lt.direct["meta.open_ms"] = d.Seconds() * 1e3
	return nil
}

func (w *rebalanceWorkload) teardown() error {
	var errs []error
	if w.f != nil {
		errs = append(errs, w.f.Close())
		w.f = nil
	}
	if w.fs != nil {
		errs = append(errs, w.fs.Close())
		w.fs = nil
	}
	if w.d != nil {
		errs = append(errs, w.d.stop())
		w.d = nil
	}
	if w.svc != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, w.svc.Shutdown(ctx))
		cancel()
		errs = append(errs, <-w.svcDone)
		w.svc = nil
	}
	if w.st != nil {
		errs = append(errs, w.st.Close())
		w.st = nil
	}
	if w.dir != "" {
		errs = append(errs, os.RemoveAll(w.dir))
		w.dir = ""
	}
	return errors.Join(errs...)
}
