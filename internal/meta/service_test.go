package meta

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"parafile/internal/obs"
	"parafile/internal/rpc"
)

// startTestService runs a Store + Service on a loopback port and
// returns a connected client.
func startTestService(t *testing.T) (*rpc.Client, *Store) {
	t.Helper()
	st, err := OpenStore(t.TempDir(), StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	svc := NewService(ServiceConfig{Store: st, Metrics: obs.NewRegistry()})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go svc.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		svc.Shutdown(ctx)
	})
	cl := rpc.NewClient(rpc.ClientConfig{Addr: ln.Addr().String(), Placement: true})
	t.Cleanup(func() { cl.Close() })
	return cl, st
}

func TestServiceNamespaceOverTCP(t *testing.T) {
	cl, st := startTestService(t)
	ctx := context.Background()

	// Create with no registered data nodes is refused.
	if _, err := cl.MetaCreate(ctx, &rpc.MetaCreateReq{Name: "early"}); err == nil {
		t.Fatal("create with no active nodes succeeded")
	}
	if _, err := cl.MetaNodeSet(ctx, "n1:1", rpc.NodeActive); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.MetaNodeSet(ctx, "n2:1", rpc.NodeActive); err != nil {
		t.Fatal(err)
	}

	f, err := cl.MetaCreate(ctx, &rpc.MetaCreateReq{Name: "data", Replication: 2})
	if err != nil {
		t.Fatalf("MetaCreate: %v", err)
	}
	if f.Epoch != 1 || f.StripeBytes != DefaultStripeBytes || len(f.Nodes) != 2 || len(f.Assign) != 2 {
		t.Fatalf("created record = %+v", f)
	}
	if _, err := cl.MetaCreate(ctx, &rpc.MetaCreateReq{Name: "data"}); err == nil {
		t.Fatal("duplicate create succeeded")
	}
	if _, err := cl.MetaCreate(ctx, &rpc.MetaCreateReq{Name: "wide", Replication: 3}); err == nil {
		t.Fatal("replication wider than membership succeeded")
	}

	got, err := cl.MetaOpen(ctx, "data")
	if err != nil || got.Name != "data" || got.Epoch != 1 {
		t.Fatalf("MetaOpen: %+v, %v", got, err)
	}
	if _, err := cl.MetaOpen(ctx, "ghost"); !errors.Is(err, rpc.ErrUnknownFile) {
		t.Fatalf("open of absent name: got %v, want ErrUnknownFile", err)
	}

	// Sixteen concurrent calls from a fresh client share its one
	// multiplexed connection: exactly one dial, however the first calls
	// race to open it.
	reg := obs.NewRegistry()
	mc := rpc.NewClient(rpc.ClientConfig{Addr: cl.Addr(), Placement: true, Metrics: reg})
	defer mc.Close()
	const calls = 16
	var wg sync.WaitGroup
	errs := make(chan error, calls)
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if f, err := mc.MetaOpen(ctx, "data"); err != nil || f.Name != "data" {
				errs <- fmt.Errorf("concurrent MetaOpen: %+v, %v", f, err)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if dials := reg.Counter(rpc.MetricClientDials).Value(); dials != 1 {
		t.Fatalf("%d dials for %d concurrent metadata calls, want 1", dials, calls)
	}

	if ext, err := cl.MetaExtend(ctx, "data", 4096); err != nil || ext.Length != 4096 {
		t.Fatalf("MetaExtend: %+v, %v", ext, err)
	}

	files, err := cl.MetaList(ctx)
	if err != nil || len(files) != 1 || files[0].Length != 4096 {
		t.Fatalf("MetaList: %+v, %v", files, err)
	}
	nodes, err := cl.MetaNodes(ctx)
	if err != nil || len(nodes) != 2 {
		t.Fatalf("MetaNodes: %+v, %v", nodes, err)
	}

	if err := cl.MetaRemove(ctx, "data"); err != nil {
		t.Fatalf("MetaRemove: %v", err)
	}
	if files, err := cl.MetaList(ctx); err != nil || len(files) != 0 {
		t.Fatalf("MetaList after remove: %+v, %v", files, err)
	}
	_ = st
}

func TestServiceCommitCASOverTCP(t *testing.T) {
	cl, _ := startTestService(t)
	ctx := context.Background()
	if _, err := cl.MetaNodeSet(ctx, "n1:1", rpc.NodeActive); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.MetaCreate(ctx, &rpc.MetaCreateReq{Name: "f"}); err != nil {
		t.Fatal(err)
	}
	next, err := cl.MetaCommit(ctx, &rpc.MetaCommitReq{
		Name: "f", OldEpoch: 1, StoreName: "f@2", Nodes: []string{"n1:1"}, Assign: []int{0},
	})
	if err != nil || next.Epoch != 2 || next.StoreName != "f@2" {
		t.Fatalf("MetaCommit: %+v, %v", next, err)
	}
	// The losing driver of a racing rebalance gets the typed stale
	// error over the wire.
	_, err = cl.MetaCommit(ctx, &rpc.MetaCommitReq{
		Name: "f", OldEpoch: 1, StoreName: "f@2b", Nodes: []string{"n1:1"}, Assign: []int{0},
	})
	if !errors.Is(err, rpc.ErrStalePlacement) {
		t.Fatalf("losing CAS: got %v, want ErrStalePlacement", err)
	}
}
