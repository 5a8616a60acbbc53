package wlg

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"psrahgadmm/internal/collective"
	"psrahgadmm/internal/simnet"
	"psrahgadmm/internal/sparse"
	"psrahgadmm/internal/transport"
	"psrahgadmm/internal/wire"
)

// TestGGRejectsMalformedRequest verifies the Group Generator fails loudly
// on a corrupt report rather than mis-grouping.
func TestGGRejectsMalformedRequest(t *testing.T) {
	topo := simnet.Topology{Nodes: 2, WorkersPerNode: 1}
	f := transport.NewChanFabric(WorldSize(topo))
	defer f.Close()
	cfg := Config{Topo: topo, MaxIter: 1}

	done := make(chan error, 1)
	go func() { done <- RunGG(f.Endpoint(GGRank(topo)), cfg) }()

	// A request with the wrong payload arity.
	if err := f.Endpoint(0).Send(GGRank(topo), wire.Control(tagGGRequest, 7)); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "malformed") {
			t.Fatalf("GG error = %v, want malformed-request failure", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("GG did not fail on malformed request")
	}
}

// TestMemberRefusesShortCountControl: over TCP a fail-stop member's
// contributor count comes from another process. A count control with no
// ints must fail the member's RunWorker with an error wrapping
// collective.ErrPayloadKind, not panic it with an index out of range.
func TestMemberRefusesShortCountControl(t *testing.T) {
	// The Leader's part, scripted: the aggregate, then an empty count.
	_, err := scriptedMember(t,
		wire.SparseMsg(iterTag(0, offIntraBc), sparse.FromDense([]float64{1, 2})),
		wire.Control(iterTag(0, offIntraBc2)))
	if !errors.Is(err, collective.ErrPayloadKind) {
		t.Fatalf("member: %v, want an error wrapping ErrPayloadKind", err)
	}
}

// scriptedMember runs fail-stop member 1 of a 1 × 2 world for one
// iteration against a scripted Leader that sends msgs, and returns the
// whether ApplyW was called and the member's error. ComputeW gives 2 values.
func scriptedMember(t *testing.T, msgs ...wire.Message) (applied bool, err error) {
	t.Helper()
	topo := simnet.Topology{Nodes: 1, WorkersPerNode: 2}
	f := transport.NewChanFabric(WorldSize(topo))
	defer f.Close()
	for _, m := range msgs {
		if err := f.Endpoint(0).Send(1, m); err != nil {
			t.Fatal(err)
		}
	}
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("panicked: %v", v)
		}
	}()
	err = RunWorker(f.Endpoint(1), Config{Topo: topo, MaxIter: 1}, WorkerFuncs{
		ComputeW: func(int) []float64 { return make([]float64, 2) },
		ApplyW:   func(int, []float64, int) { applied = true },
	})
	return applied, err
}

// TestMemberRefusesForeignDimension: a fail-stop member takes the Leader's
// aggregate only at its own dimension. A 5-dim aggregate to a member whose
// contribution has 2 fails RunWorker with an error wrapping
// collective.ErrPayloadKind, and ApplyW never sees it.
func TestMemberRefusesForeignDimension(t *testing.T) {
	applied, err := scriptedMember(t,
		wire.SparseMsg(iterTag(0, offIntraBc), sparse.FromDense([]float64{1, 2, 3, 4, 5})),
		wire.Control(iterTag(0, offIntraBc2), 2))
	if !errors.Is(err, collective.ErrPayloadKind) || applied {
		t.Fatalf("member: %v, ApplyW called %v; want an ErrPayloadKind error and no ApplyW", err, applied)
	}
}

// TestMemberRefusesContributorCountOutOfRange: the count ApplyW divides by
// lies in [1, the world's workers]; a Leader's 0, −1 or 3 in a world of 2
// fails the member with an error wrapping collective.ErrPayloadKind before
// ApplyW, and 1 and 2 are taken.
func TestMemberRefusesContributorCountOutOfRange(t *testing.T) {
	for _, n := range []int64{0, -1, 3, 1 << 40, 1, 2} {
		applied, err := scriptedMember(t,
			wire.SparseMsg(iterTag(0, offIntraBc), sparse.FromDense([]float64{1, 2})),
			wire.Control(iterTag(0, offIntraBc2), n))
		if ok := n >= 1 && n <= 2; ok {
			if err != nil || !applied {
				t.Fatalf("count %d: %v, ApplyW called %v; want it applied", n, err, applied)
			}
			continue
		}
		if !errors.Is(err, collective.ErrPayloadKind) || applied {
			t.Fatalf("count %d: %v, ApplyW called %v; want an ErrPayloadKind error and no ApplyW", n, err, applied)
		}
	}
}

// TestGGStopsOnClosedEndpoint verifies RunGG unwinds with ErrClosed when
// its endpoint dies mid-service (a crashed coordinator must not hang the
// process).
func TestGGStopsOnClosedEndpoint(t *testing.T) {
	topo := simnet.Topology{Nodes: 2, WorkersPerNode: 1}
	f := transport.NewChanFabric(WorldSize(topo))
	defer f.Close()
	cfg := Config{Topo: topo, MaxIter: 3}
	ep := f.Endpoint(GGRank(topo))

	done := make(chan error, 1)
	go func() { done <- RunGG(ep, cfg) }()
	time.Sleep(10 * time.Millisecond)
	ep.Close()
	select {
	case err := <-done:
		if !errors.Is(err, transport.ErrClosed) {
			t.Fatalf("GG error = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("GG did not unwind after endpoint close")
	}
}

// TestWorkerFailureThenTeardown verifies the failure model the runtime
// shares with MPI: a silently dead peer leaves BSP partners blocked (there
// is deliberately no failure detector in the data path), the crashed
// worker's own RunWorker returns an error, and a job-level teardown
// (closing the fabric) unwinds every survivor with a transport error
// rather than wrong data or a permanent hang.
func TestWorkerFailureThenTeardown(t *testing.T) {
	topo := simnet.Topology{Nodes: 2, WorkersPerNode: 2}
	f := transport.NewChanFabric(WorldSize(topo))
	cfg := Config{Topo: topo, MaxIter: 1000} // long run; failure cuts it short

	var wg sync.WaitGroup
	errs := make([]error, topo.Size())
	crashed := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = RunGG(f.Endpoint(GGRank(topo)), cfg)
	}()
	for r := 0; r < topo.Size(); r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			dim := 4
			funcs := WorkerFuncs{
				ComputeW: func(iter int) []float64 {
					if r == 3 && iter == 5 {
						// Simulate a crash: close our endpoint mid-run.
						f.Endpoint(r).Close()
					}
					return make([]float64, dim)
				},
				ApplyW: func(int, []float64, int) {},
			}
			errs[r] = RunWorker(f.Endpoint(r), cfg, funcs)
			if r == 3 {
				close(crashed)
			}
		}(r)
	}

	select {
	case <-crashed:
	case <-time.After(10 * time.Second):
		f.Close()
		t.Fatal("crashed worker did not unwind")
	}
	if errs[3] == nil {
		t.Fatal("crashed worker reported no error")
	}
	// Job teardown: every survivor must unwind promptly.
	f.Close()
	unwound := make(chan struct{})
	go func() { wg.Wait(); close(unwound) }()
	select {
	case <-unwound:
	case <-time.After(10 * time.Second):
		t.Fatal("survivors deadlocked after teardown")
	}
	failed := 0
	for _, err := range errs {
		if err != nil {
			failed++
		}
	}
	if failed < 2 {
		t.Fatalf("only %d workers observed the failure", failed)
	}
}

// TestWorkerFailurePropagates relies on peers blocking on the dead rank;
// verify the remaining workers see transport errors rather than wrong
// data by checking the error text mentions the transport layer.
func TestWorkerErrorsAreDescriptive(t *testing.T) {
	topo := simnet.Topology{Nodes: 1, WorkersPerNode: 2}
	f := transport.NewChanFabric(WorldSize(topo))
	defer f.Close()
	cfg := Config{Topo: topo, MaxIter: 5}
	// Close the GG before anyone starts: leaders' reports must error.
	f.Endpoint(GGRank(topo)).Close()

	var wg sync.WaitGroup
	errs := make([]error, topo.Size())
	leaderDone := make(chan struct{})
	for r := 0; r < topo.Size(); r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			funcs := WorkerFuncs{
				ComputeW: func(int) []float64 { return make([]float64, 2) },
				ApplyW:   func(int, []float64, int) {},
			}
			errs[r] = RunWorker(f.Endpoint(r), cfg, funcs)
			if r == 0 {
				close(leaderDone)
			}
		}(r)
	}
	// The non-leader blocks waiting for a broadcast the failed leader will
	// never send; once the leader has unwound, tear the fabric down to
	// release it (in production the process exits here).
	select {
	case <-leaderDone:
	case <-time.After(10 * time.Second):
		t.Fatal("leader did not unwind after GG death")
	}
	f.Close()
	wg.Wait()
	if errs[0] == nil {
		t.Fatal("leader survived a dead GG")
	}
	if !strings.Contains(errs[0].Error(), "GG request") && !strings.Contains(errs[0].Error(), "GG reply") {
		t.Fatalf("leader error %v lacks context", errs[0])
	}
}
