package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"time"

	"parafile/internal/rpc"
)

// daemons is a set of in-process rpc.Server I/O daemons, each on its
// own loopback listener, holding subfiles in memory.
type daemons struct {
	addrs []string
	srvs  []*rpc.Server
	done  []chan error
}

func startDaemons(n int, lt *layerTrace) (*daemons, error) {
	d := &daemons{}
	for i := 0; i < n; i++ {
		ln, err := lt.listen()
		if err != nil {
			d.stop()
			return nil, err
		}
		// A tracing daemon returns its request spans to the client,
		// whose stitched traces the layer record reads.
		srv := rpc.NewServer(rpc.ServerConfig{Trace: lt != nil, Node: fmt.Sprintf("d%d", i)})
		done := make(chan error, 1)
		go func() { done <- srv.Serve(ln) }()
		d.addrs = append(d.addrs, ln.Addr().String())
		d.srvs = append(d.srvs, srv)
		d.done = append(d.done, done)
	}
	return d, nil
}

// stop drains every daemon and waits for its Serve to return.
func (d *daemons) stop() error {
	var errs []error
	for i, srv := range d.srvs {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := srv.Shutdown(ctx); err != nil {
			errs = append(errs, fmt.Errorf("daemon %d shutdown: %w", i, err))
		}
		cancel()
		if err := <-d.done[i]; err != nil {
			errs = append(errs, fmt.Errorf("daemon %d serve: %w", i, err))
		}
	}
	d.srvs, d.done = nil, nil
	return errors.Join(errs...)
}

// payload returns n bytes generated from the run's seed; variant
// selects one of the independent images a workload alternates
// between, so a read that returns the previous cycle's bytes fails
// its oracle.
func payload(seed uint64, variant uint64, n int64) []byte {
	r := rand.New(rand.NewPCG(seed, variant+1))
	b := make([]byte, n)
	for i := int64(0); i+8 <= n; i += 8 {
		v := r.Uint64()
		for j := int64(0); j < 8; j++ {
			b[i+j] = byte(v >> (8 * j))
		}
	}
	for i := n - n%8; i < n; i++ {
		b[i] = byte(r.Uint64())
	}
	return b
}
