package membership

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"psrahgadmm/internal/transport"
)

func TestMarkDownEpochAndFilters(t *testing.T) {
	tr := NewTracker(6)
	if tr.Epoch() != 0 || tr.LiveCount() != 6 {
		t.Fatalf("fresh tracker: epoch %d live %d", tr.Epoch(), tr.LiveCount())
	}
	if !tr.MarkDown(2, errors.New("boom")) {
		t.Fatal("first MarkDown should report a new death")
	}
	if tr.MarkDown(2, errors.New("again")) {
		t.Fatal("second MarkDown of the same rank must be idempotent")
	}
	tr.MarkDown(0, errors.New("boom"))
	if tr.Epoch() != 2 || tr.LiveCount() != 4 {
		t.Fatalf("after two deaths: epoch %d live %d", tr.Epoch(), tr.LiveCount())
	}
	if tr.Alive(2) || !tr.Alive(3) {
		t.Fatal("aliveness wrong")
	}
	if got := tr.Live([]int{0, 1, 2, 3}); !reflect.DeepEqual(got, []int{1, 3}) {
		t.Fatalf("Live filter: %v", got)
	}
	if l := tr.FirstLive([]int{0, 2, 4, 5}); l != 4 {
		t.Fatalf("leader election: got %d want 4", l)
	}
	if l := tr.FirstLive([]int{0, 2}); l != -1 {
		t.Fatalf("all-dead set must elect -1, got %d", l)
	}
	if got := tr.Live([]int{0, 1, 2, 3, 4, 5}); !reflect.DeepEqual(got, []int{1, 3, 4, 5}) {
		t.Fatalf("live ranks: %v", got)
	}
	if !reflect.DeepEqual(tr.Dead(), []int{0, 2}) {
		t.Fatalf("dead: %v", tr.Dead())
	}
}

func TestObserveExtractsPeerDown(t *testing.T) {
	tr := NewTracker(4)
	cause := &transport.PeerDownError{Peer: 3, Cause: errors.New("conn reset")}
	wrapped := fmt.Errorf("collective: scatter: %w", cause)
	rank, ok := tr.Observe(wrapped)
	if !ok || rank != 3 {
		t.Fatalf("Observe: rank %d ok %v", rank, ok)
	}
	if tr.Alive(3) {
		t.Fatal("peer 3 should be dead")
	}
	if _, ok := tr.Observe(errors.New("not a peer failure")); ok {
		t.Fatal("generic errors must not mark anyone down")
	}
	if tr.Epoch() != 1 {
		t.Fatalf("epoch %d", tr.Epoch())
	}
}

func TestOnDownHookAndRestore(t *testing.T) {
	tr := NewTracker(5)
	var mu sync.Mutex
	var downs []int
	tr.OnDown(func(rank int, cause error) {
		mu.Lock()
		downs = append(downs, rank)
		mu.Unlock()
	})
	tr.MarkDown(4, errors.New("x"))
	tr.MarkDown(4, errors.New("x")) // no second event
	tr.MarkDown(1, errors.New("y"))
	mu.Lock()
	got := append([]int(nil), downs...)
	mu.Unlock()
	if !reflect.DeepEqual(got, []int{4, 1}) {
		t.Fatalf("down events: %v", got)
	}

	if err := tr.Restore(7, []int{0, 2}); err != nil {
		t.Fatal(err)
	}
	if tr.Epoch() != 7 || tr.LiveCount() != 3 {
		t.Fatalf("restored: epoch %d live %d", tr.Epoch(), tr.LiveCount())
	}
	if !tr.Alive(4) || tr.Alive(0) {
		t.Fatal("restore must replace, not merge, the dead set")
	}
	if err := tr.Restore(1, []int{9}); err == nil {
		t.Fatal("out-of-world restore must fail")
	}
}

func TestIncarnationRejoin(t *testing.T) {
	tr := NewTracker(4)
	if tr.Incarnation(2) != 0 {
		t.Fatalf("fresh incarnation: %d", tr.Incarnation(2))
	}
	if tr.MarkUp(2) {
		t.Fatal("MarkUp of a live rank must be a no-op")
	}
	tr.MarkDown(2, errors.New("boom"))
	if !tr.MarkUp(2) {
		t.Fatal("MarkUp of a dead rank must revive it")
	}
	if !tr.Alive(2) || tr.Incarnation(2) != 1 || tr.Cause(2) != nil {
		t.Fatalf("after rejoin: alive %v inc %d cause %v", tr.Alive(2), tr.Incarnation(2), tr.Cause(2))
	}
	if tr.Epoch() != 2 || tr.LiveCount() != 4 {
		t.Fatalf("after death+rejoin: epoch %d live %d", tr.Epoch(), tr.LiveCount())
	}
	// Incarnation 1 can die again — death stays monotone per incarnation.
	if !tr.MarkDown(2, errors.New("boom again")) {
		t.Fatal("new incarnation must be killable")
	}
	if tr.MarkDown(2, errors.New("dup")) {
		t.Fatal("second death of the same incarnation must be idempotent")
	}
	if !tr.MarkUp(2) || tr.Incarnation(2) != 2 {
		t.Fatalf("second rejoin: inc %d", tr.Incarnation(2))
	}
}

func TestMarkUpAtIdempotent(t *testing.T) {
	tr := NewTracker(4)
	tr.MarkDown(1, errors.New("boom"))
	if !tr.MarkUpAt(1, 1) {
		t.Fatal("first MarkUpAt must apply")
	}
	if tr.MarkUpAt(1, 1) {
		t.Fatal("replayed MarkUpAt with the same incarnation must be a no-op")
	}
	if tr.MarkUpAt(1, 0) {
		t.Fatal("incarnation 0 is the original life, never a rejoin")
	}
	if !tr.Alive(1) || tr.Incarnation(1) != 1 || tr.Epoch() != 2 {
		t.Fatalf("after MarkUpAt: alive %v inc %d epoch %d", tr.Alive(1), tr.Incarnation(1), tr.Epoch())
	}
	// Unnoticed death + rejoin: the rank looks alive locally but the
	// authoritative observer reports a newer incarnation.
	if !tr.MarkUpAt(1, 3) || tr.Incarnation(1) != 3 {
		t.Fatalf("newer incarnation must be adopted: inc %d", tr.Incarnation(1))
	}
	if err := tr.Restore(5, []int{0}); err != nil {
		t.Fatal(err)
	}
	if tr.Incarnation(1) != 0 {
		t.Fatalf("restore must reset incarnations, got %d", tr.Incarnation(1))
	}
}

func TestConcurrentMarkDown(t *testing.T) {
	tr := NewTracker(64)
	var wg sync.WaitGroup
	for r := 0; r < 32; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tr.MarkDown(r, errors.New("race"))
			tr.MarkDown(r, errors.New("race"))
		}(r)
	}
	wg.Wait()
	if tr.Epoch() != 32 || tr.LiveCount() != 32 {
		t.Fatalf("epoch %d live %d", tr.Epoch(), tr.LiveCount())
	}
}
