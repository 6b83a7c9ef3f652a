package clusterfile

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"parafile/internal/falls"
	"parafile/internal/redist"
)

// partial_test.go pins down the partial-failure vocabulary: the
// Error() renderings callers grep in logs, the Unwrap chain errors.Is
// and errors.As travel, and the quorum-group accounting that separates
// "a replica failed" (operation degraded) from "a subfile's placement
// group missed quorum" (operation failed).

func TestPartialErrorString(t *testing.T) {
	cases := []struct {
		name string
		err  PartialError
		want string
	}{
		{
			name: "one failed",
			err: PartialError{Op: "write", Outcomes: []NodeOutcome{
				{IONode: 0, State: OutcomeOK, Bytes: 64},
				{IONode: 1, State: OutcomeFailed, Err: errors.New("disk on fire")},
				{IONode: 2, State: OutcomeOK, Bytes: 64},
			}},
			want: "clusterfile: partial write: 2/3 I/O nodes ok; failed [1] (node 1: disk on fire)",
		},
		{
			name: "failed and cancelled",
			err: PartialError{Op: "read", Outcomes: []NodeOutcome{
				{IONode: 0, State: OutcomeFailed, Err: errors.New("boom")},
				{IONode: 1, State: OutcomeCancelled, Err: context.Canceled},
				{IONode: 2, State: OutcomeCancelled, Err: context.Canceled},
			}},
			want: "clusterfile: partial read: 0/3 I/O nodes ok; failed [0] (node 0: boom); cancelled [1 2]",
		},
		{
			name: "cancelled only",
			err: PartialError{Op: "redistribute", Outcomes: []NodeOutcome{
				{IONode: 3, State: OutcomeCancelled, Err: context.Canceled},
			}},
			want: "clusterfile: partial redistribute: 0/1 I/O nodes ok; cancelled [3]",
		},
	}
	for _, tc := range cases {
		if got := tc.err.Error(); got != tc.want {
			t.Errorf("%s:\n got  %q\n want %q", tc.name, got, tc.want)
		}
	}
}

func TestPartialErrorUnwrap(t *testing.T) {
	sentinel := errors.New("sentinel")
	pe := &PartialError{Op: "write", Outcomes: []NodeOutcome{
		{IONode: 0, State: OutcomeOK},
		{IONode: 1, State: OutcomeCancelled, Err: context.Canceled},
		{IONode: 2, State: OutcomeFailed, Err: fmt.Errorf("wrapped: %w", sentinel)},
	}}
	if !errors.Is(pe, sentinel) {
		t.Error("errors.Is does not reach the failed node's error")
	}
	// Failed dominates cancelled in the unwrap order.
	if errors.Is(pe, context.Canceled) {
		t.Error("cancelled error unwrapped ahead of the hard failure")
	}
	var got *PartialError
	if !errors.As(fmt.Errorf("op: %w", pe), &got) || got != pe {
		t.Error("errors.As does not recover the PartialError through wrapping")
	}

	cancelledOnly := &PartialError{Op: "read", Outcomes: []NodeOutcome{
		{IONode: 0, State: OutcomeCancelled, Err: context.DeadlineExceeded},
	}}
	if !errors.Is(cancelledOnly, context.DeadlineExceeded) {
		t.Error("cancel-only partial does not unwrap to the context error")
	}
	if (&PartialError{Op: "write"}).Unwrap() != nil {
		t.Error("empty partial unwraps to a non-nil error")
	}
}

func TestPartialErrorLookups(t *testing.T) {
	pe := &PartialError{Op: "write", Outcomes: []NodeOutcome{
		{IONode: 0, State: OutcomeOK, Bytes: 10},
		{IONode: 1, State: OutcomeFailed, Err: errors.New("x")},
		{IONode: 2, State: OutcomeOK, Bytes: 20},
		{IONode: 3, State: OutcomeCancelled, Err: context.Canceled},
	}}
	if got := pe.Nodes(OutcomeOK); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("OK nodes = %v, want [0 2]", got)
	}
	if o := pe.Outcome(2); o == nil || o.Bytes != 20 {
		t.Errorf("Outcome(2) = %+v", o)
	}
	if pe.Outcome(7) != nil {
		t.Error("Outcome of an uninvolved node is non-nil")
	}
}

// TestOutcomeSetQuorum exercises the replication accounting directly:
// a group that reaches quorum absorbs its replica failure into the
// degraded report; a group that misses quorum fails the operation.
func TestOutcomeSetQuorum(t *testing.T) {
	// Subfile 0 needs 1 of 2 replica acks: node 1's failure is absorbed.
	s := newOutcomeSet("write")
	s.group(groupKey(0), 1)
	s.ok(0, 64)
	s.groupOK(groupKey(0))
	s.fail(1, errors.New("replica down"))
	err, degraded := s.finalize()
	if err != nil {
		t.Fatalf("quorum met but operation failed: %v", err)
	}
	if degraded == nil {
		t.Fatal("absorbed replica failure did not surface as degraded")
	}
	if failed := degraded.Nodes(OutcomeFailed); len(failed) != 1 || failed[0] != 1 {
		t.Errorf("degraded failed nodes = %v, want [1]", failed)
	}

	// Same shape but quorum 2 of 2: now the group misses quorum.
	s = newOutcomeSet("write")
	s.group(groupKey(0), 2)
	s.ok(0, 64)
	s.groupOK(groupKey(0))
	s.fail(1, errors.New("replica down"))
	err, degraded = s.finalize()
	if err == nil {
		t.Fatal("missed quorum but operation succeeded")
	}
	if degraded != nil {
		t.Fatal("failed operation also reported degraded")
	}
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("finalize error is %T, want *PartialError", err)
	}

	// Mixed outcomes across groups: sub 0 absorbs its failure, sub 1 is
	// clean, and a cancelled node that credited no group still counts
	// against cleanliness, not against quorum.
	s = newOutcomeSet("write")
	s.group(groupKey(0), 1)
	s.group(groupKey(1), 1)
	s.ok(0, 8)
	s.groupOK(groupKey(0))
	s.ok(2, 8)
	s.groupOK(groupKey(1))
	s.fail(1, errors.New("late"))
	s.cancel(3, context.Canceled)
	err, degraded = s.finalize()
	if err != nil {
		t.Fatalf("all groups met quorum but operation failed: %v", err)
	}
	if degraded == nil {
		t.Fatal("mixed outcomes did not surface as degraded")
	}
	if got := degraded.Nodes(OutcomeCancelled); len(got) != 1 || got[0] != 3 {
		t.Errorf("degraded cancelled nodes = %v, want [3]", got)
	}

	// Fully clean with groups: neither error nor degraded.
	s = newOutcomeSet("write")
	s.group(groupKey(0), 2)
	s.ok(0, 8)
	s.groupOK(groupKey(0))
	s.ok(1, 8)
	s.groupOK(groupKey(0))
	err, degraded = s.finalize()
	if err != nil || degraded != nil {
		t.Fatalf("clean finalize = (%v, %v), want (nil, nil)", err, degraded)
	}
}

func TestChecksumRange(t *testing.T) {
	st, err := MemStorageFactory("f", 0)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("the quick brown fox jumps over the lazy dog")
	if err := st.EnsureLen(int64(len(data))); err != nil {
		t.Fatal(err)
	}
	if err := st.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}

	whole, err := ChecksumRange(st, 0, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if whole == 0 {
		t.Fatal("checksum of non-trivial data is zero")
	}
	again, _ := ChecksumRange(st, 0, int64(len(data)))
	if again != whole {
		t.Fatal("checksum is not deterministic")
	}

	// Beyond-EOF bytes count as zeroes: the checksum over a window that
	// overhangs the store must equal the checksum of the zero-padded
	// image, which a second store materializes explicitly.
	padded, _ := MemStorageFactory("f", 1)
	if err := padded.EnsureLen(int64(len(data)) + 100); err != nil {
		t.Fatal(err)
	}
	if err := padded.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	overhang, err := ChecksumRange(st, 0, int64(len(data))+100)
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := ChecksumRange(padded, 0, int64(len(data))+100)
	if err != nil {
		t.Fatal(err)
	}
	if overhang != explicit {
		t.Fatal("zero-fill tail checksums differently from explicit zeroes")
	}

	// Sub-windows see position-dependent sums.
	a, _ := ChecksumRange(st, 0, 10)
	b, _ := ChecksumRange(st, 10, 10)
	if a == b {
		t.Fatal("distinct windows collide (suspiciously)")
	}

	if _, err := ChecksumRange(st, -1, 4); err == nil {
		t.Error("negative offset accepted")
	}
	if _, err := ChecksumRange(st, 0, -4); err == nil {
		t.Error("negative length accepted")
	}
	if sum, err := ChecksumRange(st, 5, 0); err != nil || sum != 0 {
		t.Errorf("empty window = (%d, %v), want (0, nil)", sum, err)
	}
}

// failFirstWrite is a store whose first WriteAt fails.
type failFirstWrite struct {
	Storage
	writes int
}

var errFirstWrite = errors.New("first write fails")

func (f *failFirstWrite) WriteAt(p []byte, off int64) error {
	f.writes++
	if f.writes == 1 {
		return errFirstWrite
	}
	return f.Storage.WriteAt(p, off)
}

// TestScatterRangeReportsFirstError: a scatter whose first write fails
// returns that error, even though the projection's later periods would
// have written cleanly.
func TestScatterRangeReportsFirstError(t *testing.T) {
	mem, err := MemStorageFactory("f", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.EnsureLen(32); err != nil {
		t.Fatal(err)
	}
	st := &failFirstWrite{Storage: mem}
	// Bytes {0,1} and {4,5} of every 8, over four periods: 16 bytes.
	p := &redist.Projection{Set: falls.Set{falls.MustLeaf(0, 1, 4, 2)}, Period: 8, Bytes: 4}
	err = ScatterRange(st, make([]byte, 16), p, 0, 31)
	if !errors.Is(err, errFirstWrite) {
		t.Fatalf("ScatterRange = %v, want the first write's error", err)
	}
	if st.writes != 1 {
		t.Fatalf("%d writes after the first one failed, want none", st.writes-1)
	}
}
