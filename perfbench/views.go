package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"time"

	"parafile/internal/baseline"
	"parafile/internal/clusterfile"
	"parafile/internal/core"
	"parafile/internal/falls"
	"parafile/internal/obs"
	"parafile/internal/part"
	"parafile/internal/redist"
	"parafile/internal/rpc"
)

// viewWorkload drives collective view I/O through clusterfile over the
// rpc transport to in-process daemons. Each cycle:
//
//	write    every writer view writes its whole element of the image;
//	read     (separateRead only) the writer views read it back;
//	restart  a fresh Cluster and Transport (Reopen) open the file, set
//	         the reader views and read every reader's element; without
//	         separateRead its read phase is the read sample;
//	rebalance StartRedistribute, from a cluster of its own, copies the
//	         file onto the target layout.
//
// Payloads alternate between two seeded images, so a stale read fails.
type viewWorkload struct {
	name         string
	nDaemons     int
	fileBytes    int64
	phys         *part.File // the file's physical layout
	writeView    *part.File // writer i sets element i
	readView     *part.File // restart reader i sets element i
	target       *part.File // rebalance layout
	separateRead bool
	desc         map[string]any
	lt           *layerTrace

	wbufs  [2][][]byte // writer input per image
	rref   [2][][]byte // restart oracle: SplitFile(readView, image)
	tref   [2][][]byte // rebalance oracle: SplitFile(target, image)
	rbufs  [][]byte
	rsbufs [][]byte

	d      *daemons
	tr     *rpc.Transport
	cl     *clusterfile.Cluster
	f      *clusterfile.File
	wviews []*clusterfile.View
}

func newStripeRW(lt *layerTrace) (*viewWorkload, error) {
	const (
		fileBytes = 32 << 20
		unit      = 1 << 20
		nodes     = 4
		writers   = 4
	)
	stripe, err := part.Stripe(unit, nodes)
	if err != nil {
		return nil, err
	}
	blocks, err := part.Block1D(fileBytes, writers)
	if err != nil {
		return nil, err
	}
	bf := part.MustFile(0, blocks)
	return &viewWorkload{
		name: "stripe-rw", nDaemons: nodes, fileBytes: fileBytes,
		phys: part.MustFile(0, stripe), writeView: bf, readView: bf, target: bf,
		separateRead: true,
		desc: map[string]any{
			"file_bytes": fileBytes, "layout": "part.Stripe(1MiB,4)", "daemons": nodes,
			"writers": writers, "readers": writers, "view": "part.Block1D(32MiB,4)",
			"rebalance_target": "part.Block1D(32MiB,4)",
		},
		lt: lt,
	}, nil
}

func newCkptNM(lt *layerTrace) (*viewWorkload, error) {
	const (
		n     = 4096
		nodes = 4
	)
	phys, rows, blocks, err := ckptLayouts(n, nodes)
	if err != nil {
		return nil, err
	}
	return &viewWorkload{
		name: "ckpt-nm", nDaemons: nodes, fileBytes: n * n,
		phys: phys, writeView: rows, readView: blocks, target: blocks,
		desc: map[string]any{
			"matrix": "4096x4096 bytes", "layout": "part.Cyclic1D(n*n,4,4096)", "daemons": nodes,
			"writers": 4, "write_view": "part.RowBlocks(n,n,4)",
			"readers": 8, "read_view": "part.SquareBlocks(n,n,2,4)",
			"rebalance_target": "part.SquareBlocks(n,n,2,4) as 8 subfiles",
		},
		lt: lt,
	}, nil
}

// ckptLayouts builds the checkpoint file (CYCLIC(n) over nodes: one
// matrix row per unit), the N=4 writer row-block views and the M=8
// reader 2x4 block views of an n×n byte matrix.
func ckptLayouts(n int64, nodes int) (phys, rows, blocks *part.File, err error) {
	cyc, err := part.Cyclic1D(n*n, nodes, n)
	if err != nil {
		return nil, nil, nil, err
	}
	rp, err := part.RowBlocks(n, n, 4)
	if err != nil {
		return nil, nil, nil, err
	}
	bp, err := part.SquareBlocks(n, n, 2, 4)
	if err != nil {
		return nil, nil, nil, err
	}
	return part.MustFile(0, cyc), part.MustFile(0, rp), part.MustFile(0, bp), nil
}

func (w *viewWorkload) params() map[string]any { return w.desc }

func (w *viewWorkload) writers() int { return w.writeView.Pattern.Len() }
func (w *viewWorkload) readers() int { return w.readView.Pattern.Len() }

// prepare generates the inputs and oracles from the seed. For ckpt-nm
// it first cross-checks the layouts at reduced size against the
// byte-wise baseline, so the SplitFile oracle is itself checked.
func (w *viewWorkload) prepare(seed uint64) error {
	if w.name == "ckpt-nm" {
		if err := crossCheckCkpt(seed); err != nil {
			return err
		}
	}
	for v := range w.wbufs {
		img := payload(seed, uint64(v), w.fileBytes)
		w.wbufs[v] = redist.SplitFile(w.writeView, img)
		w.rref[v] = w.wbufs[v]
		if w.readView != w.writeView {
			w.rref[v] = redist.SplitFile(w.readView, img)
		}
		w.tref[v] = w.rref[v]
		if w.target != w.readView {
			w.tref[v] = redist.SplitFile(w.target, img)
		}
	}
	w.rbufs = allocLike(w.wbufs[0])
	w.rsbufs = allocLike(w.rref[0])
	return nil
}

// crossCheckCkpt runs the ckpt-nm layouts at 256x256 through
// baseline.BytewiseRedistribute and requires it to agree with the
// SplitFile decompositions the full-size oracles use.
func crossCheckCkpt(seed uint64) error {
	const n = 256
	phys, rows, blocks, err := ckptLayouts(n, 4)
	if err != nil {
		return err
	}
	img := payload(seed, 7, n*n)
	check := func(from, to *part.File) error {
		dst := allocLike(redist.SplitFile(to, img))
		if err := baseline.BytewiseRedistribute(from, to, redist.SplitFile(from, img), dst, n*n); err != nil {
			return err
		}
		if !equalAll(dst, redist.SplitFile(to, img)) {
			return errors.New("oracle: byte-wise redistribution disagrees with SplitFile at 256x256")
		}
		return nil
	}
	if err := check(rows, phys); err != nil {
		return err
	}
	return check(phys, blocks)
}

func (w *viewWorkload) clusterConfig(compute int, tr clusterfile.Transport) clusterfile.Config {
	cfg := clusterfile.DefaultConfig()
	cfg.ComputeNodes = compute
	cfg.IONodes = w.nDaemons
	cfg.Transport = w.lt.wrapTransport(tr)
	cfg.Metrics = w.lt.clientRegistry()
	cfg.Tracer = w.lt.clientTracer()
	return cfg
}

func (w *viewWorkload) transport(reopen bool) (*rpc.Transport, error) {
	return rpc.NewTransport(w.d.addrs, rpc.Options{
		Client: w.lt.clientConfig(), Reopen: reopen, Metrics: w.lt.clientRegistry(),
	})
}

// setup starts the daemons, creates the file, sets the writer views
// and warms the connections with one untimed write and read.
func (w *viewWorkload) setup(ctx context.Context) error {
	d, err := startDaemons(w.nDaemons, w.lt)
	if err != nil {
		return err
	}
	w.d = d
	if w.tr, err = w.transport(false); err != nil {
		return err
	}
	w.cl, err = clusterfile.New(w.clusterConfig(w.writers(), w.tr))
	if err != nil {
		return err
	}
	w.f, err = w.cl.CreateFileCtx(ctx, w.name, w.phys, nil)
	if err != nil {
		return err
	}
	w.wviews = nil
	for i := 0; i < w.writers(); i++ {
		v, err := w.f.SetViewCtx(ctx, i, w.writeView, i)
		if err != nil {
			return err
		}
		w.wviews = append(w.wviews, v)
	}
	if err := writeAll(ctx, w.cl, w.wviews, w.wbufs[1]); err != nil {
		return fmt.Errorf("warm-up write: %w", err)
	}
	return readAll(ctx, w.cl, w.wviews, w.rbufs)
}

func (w *viewWorkload) cycle(ctx context.Context, k int, m *meter) error {
	v := k % 2
	if err := m.op(opWrite, func() (int64, error) {
		return w.fileBytes, writeAll(ctx, w.cl, w.wviews, w.wbufs[v])
	}); err != nil {
		return err
	}
	if w.separateRead {
		if err := m.op(opRead, func() (int64, error) {
			return w.fileBytes, readAll(ctx, w.cl, w.wviews, w.rbufs)
		}); err != nil {
			return err
		}
		m.check(equalAll(w.rbufs, w.wbufs[v]), "read-back differs from the written payload")
	}

	var tr *rpc.Transport
	err := m.op(opRestart, func() (int64, error) {
		var err error
		tr, err = w.restart(ctx, m)
		return w.fileBytes, err
	})
	if tr != nil {
		tr.Close()
	}
	if err != nil {
		return err
	}
	m.check(equalAll(w.rsbufs, w.rref[v]), "restart buffers differ from SplitFile(restart view, image)")

	var nf *clusterfile.File
	err = m.op(opRebalance, func() (int64, error) {
		// A cluster of its own, as a redistribution tool would open:
		// the workload's cluster would otherwise keep every generation
		// it ever created.
		cl, err := clusterfile.New(w.clusterConfig(1, w.tr))
		if err != nil {
			return 0, err
		}
		src, err := cl.CreateFileCtx(ctx, w.name, w.phys, nil)
		if err != nil {
			return 0, err
		}
		f, op, err := cl.StartRedistributeCtx(ctx, src, w.name+".rebalanced", w.target, nil, w.fileBytes)
		if err != nil {
			return 0, err
		}
		nf = f
		cl.RunAll()
		if !op.Done() {
			return 0, errors.New("redistribution did not complete")
		}
		if op.Err != nil {
			return 0, op.Err
		}
		w.lt.addMessages(op.Stats.Messages)
		return op.Stats.Bytes, nil
	})
	if nf == nil {
		return err
	}
	for i := range w.tref[v] {
		b, rerr := nf.ReadSubfileCtx(ctx, i)
		if rerr != nil {
			m.fail("rebalance read-back: " + rerr.Error())
			break
		}
		m.check(bytes.Equal(b, w.tref[v][i]), fmt.Sprintf("rebalanced subfile %d differs from SplitFile(target, image)", i))
	}
	// Closing the new file's handles drops its stores on the daemons;
	// the source's handles in that cluster are dropped unclosed, since a
	// wire close would delete the workload file's stores.
	if cerr := nf.Close(); cerr != nil && err == nil {
		m.fail("closing the rebalanced file: " + cerr.Error())
		err = cerr
	}
	return err
}

// restart is what a restarted job waits for: a fresh Cluster and
// Transport reopen the file, set every reader view (no view cache) and
// fill every reader buffer. The caller closes the returned transport
// after the timed region. The restart's File is dropped, not closed:
// a wire close would delete the daemons' stores.
func (w *viewWorkload) restart(ctx context.Context, m *meter) (*rpc.Transport, error) {
	tr, err := w.transport(true)
	if err != nil {
		return nil, err
	}
	cl, err := clusterfile.New(w.clusterConfig(w.readers(), tr))
	if err != nil {
		return tr, err
	}
	f, err := cl.CreateFileCtx(ctx, w.name, w.phys, nil)
	if err != nil {
		return tr, err
	}
	views := make([]*clusterfile.View, w.readers())
	for i := range views {
		if views[i], err = f.SetViewCtx(ctx, i, w.readView, i); err != nil {
			return tr, err
		}
	}
	if w.separateRead {
		return tr, readAll(ctx, cl, views, w.rsbufs)
	}
	return tr, m.op(opRead, func() (int64, error) {
		return w.fileBytes, readAll(ctx, cl, views, w.rsbufs)
	})
}

// direct times the layers under the workload by calling them on the
// workload's own layouts: the reader views' intersections, the
// rebalance plan, and the writers' extremity mapping.
func (w *viewWorkload) direct(ctx context.Context) error {
	return directLayers(w.lt, w.readView, w.phys, w.writeView, [][2]*part.File{{w.phys, w.target}})
}

func (w *viewWorkload) teardown() error {
	var errs []error
	if w.f != nil {
		errs = append(errs, w.f.Close())
		w.f = nil
	}
	if w.tr != nil {
		errs = append(errs, w.tr.Close())
		w.tr = nil
	}
	if w.d != nil {
		errs = append(errs, w.d.stop())
		w.d = nil
	}
	return errors.Join(errs...)
}

// writeAll is one collective write: every view starts its write, then
// the cluster drives them all to completion.
func writeAll(ctx context.Context, cl *clusterfile.Cluster, views []*clusterfile.View, bufs [][]byte) error {
	ops := make([]*clusterfile.WriteOp, 0, len(views))
	var startErr error
	for i, v := range views {
		op, err := v.StartWriteCtx(ctx, clusterfile.ToBufferCache, 0, int64(len(bufs[i]))-1, bufs[i])
		if err != nil {
			startErr = err
			break
		}
		ops = append(ops, op)
	}
	cl.RunAll()
	if startErr != nil {
		return startErr
	}
	for _, op := range ops {
		if !op.Done() {
			return errors.New("write did not complete")
		}
		if op.Err != nil {
			return op.Err
		}
	}
	return nil
}

// readAll is one collective read of every view's whole element.
func readAll(ctx context.Context, cl *clusterfile.Cluster, views []*clusterfile.View, bufs [][]byte) error {
	ops := make([]*clusterfile.ReadOp, 0, len(views))
	var startErr error
	for i, v := range views {
		op, err := v.StartReadCtx(ctx, 0, int64(len(bufs[i]))-1, bufs[i])
		if err != nil {
			startErr = err
			break
		}
		ops = append(ops, op)
	}
	cl.RunAll()
	if startErr != nil {
		return startErr
	}
	for _, op := range ops {
		if !op.Done() {
			return errors.New("read did not complete")
		}
		if op.Err != nil {
			return op.Err
		}
	}
	return nil
}

// directLayers records the direct per-layer measurements shared by all
// workloads: intersect+project of every reader-view element with every
// subfile, plan compilation of each layout change, and extremity
// mapping MAP_S(MAP⁻¹_V(y)) for every writer-view × subfile pair.
func directLayers(lt *layerTrace, readView, phys, writeView *part.File, moves [][2]*part.File) error {
	const reps = 5
	nonEmpty := 0
	d, err := timeDirect(reps, func() error {
		nonEmpty = 0
		for e := 0; e < readView.Pattern.Len(); e++ {
			for s := 0; s < phys.Pattern.Len(); s++ {
				inter, _, _, err := redist.IntersectProjectElements(readView, e, phys, s)
				if err != nil {
					return err
				}
				if !inter.Empty() {
					nonEmpty++
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	lt.direct["redist.intersect_ms"] = d.Seconds() * 1e3
	lt.direct["redist.pairs_nonempty"] = float64(nonEmpty)

	var compile time.Duration
	for _, mv := range moves {
		reg := obs.NewRegistry()
		d, err := timeDirect(reps, func() error {
			_, err := redist.CompilePlan(mv[0], mv[1], redist.CompileOptions{Metrics: reg})
			return err
		})
		if err != nil {
			return err
		}
		compile += d
		lt.direct["redist.segments"] += float64(reg.Counter(redist.MetricSegments).Value()) / reps / float64(len(moves))
		lt.direct["redist.segments_raw"] += float64(reg.Counter(redist.MetricSegmentsRaw).Value()) / reps / float64(len(moves))
	}
	lt.direct["redist.plan_compile_ms"] = compile.Seconds() * 1e3 / float64(len(moves))

	ns, err := mapNs(writeView, phys)
	if err != nil {
		return err
	}
	lt.direct["core.map_ns"] = ns
	return nil
}

// mapNs times the extremity mapping a write performs per subfile: the
// first and last view offsets the intersection selects, mapped into
// the subfile through the file space.
func mapNs(view, phys *part.File) (float64, error) {
	type pair struct {
		vm, sm      *core.Mapper
		first, last int64
	}
	var pairs []pair
	for e := 0; e < view.Pattern.Len(); e++ {
		vm, err := core.NewMapper(view, e)
		if err != nil {
			return 0, err
		}
		for s := 0; s < phys.Pattern.Len(); s++ {
			inter, pv, _, err := redist.IntersectProjectElements(view, e, phys, s)
			if err != nil {
				return 0, err
			}
			if inter.Empty() {
				continue
			}
			sm, err := core.NewMapper(phys, s)
			if err != nil {
				return 0, err
			}
			p := pair{vm: vm, sm: sm, first: -1}
			pv.WalkRange(0, vm.ElementSize()-1, func(seg falls.LineSegment) bool {
				if p.first < 0 {
					p.first = seg.L
				}
				p.last = seg.R
				return true
			})
			pairs = append(pairs, p)
		}
	}
	if len(pairs) == 0 {
		return 0, errors.New("no view intersects a subfile")
	}
	const iters = 2000
	start := time.Now()
	for i := 0; i < iters; i++ {
		for _, p := range pairs {
			for _, y := range [2]int64{p.first, p.last} {
				x, err := p.vm.MapInv(y)
				if err != nil {
					return 0, err
				}
				if _, err := p.sm.Map(x); err != nil {
					return 0, err
				}
			}
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(iters*len(pairs)*2), nil
}

func allocLike(ref [][]byte) [][]byte {
	out := make([][]byte, len(ref))
	for i := range ref {
		out[i] = make([]byte, len(ref[i]))
	}
	return out
}

func equalAll(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}
