package wlg

import (
	"errors"
	"testing"
	"time"

	"psrahgadmm/internal/simnet"
	"psrahgadmm/internal/transport"
)

// happyFuncs returns trivially valid worker callbacks for rank r.
func happyFuncs(dim int) func(rank int) WorkerFuncs {
	return func(rank int) WorkerFuncs {
		return WorkerFuncs{
			ComputeW: func(iter int) []float64 { return rankVec(dim, rank) },
			ApplyW:   func(iter int, w []float64, n int) {},
		}
	}
}

func TestRunCompletesWithoutFaults(t *testing.T) {
	topo := simnet.Topology{Nodes: 2, WorkersPerNode: 2}
	cfg := Config{Topo: topo, MaxIter: 3, GroupThreshold: 2}
	fab := transport.NewChanFabric(WorldSize(topo))
	defer fab.Close()
	if _, err := RunWithInfo(fab, cfg, happyFuncs(3)); err != nil {
		t.Fatal(err)
	}
}

// TestRunAbortsOnWorkerDeath is the WLG-level no-hang guarantee: when one
// worker dies mid-run, Run must return an error instead of leaving the
// Leader (blocked on the dead worker's contribution), the GG, and the
// other workers deadlocked forever.
func TestRunAbortsOnWorkerDeath(t *testing.T) {
	topo := simnet.Topology{Nodes: 2, WorkersPerNode: 2}
	cfg := Config{Topo: topo, MaxIter: 20, GroupThreshold: 2}
	fab := transport.NewFaultFabric(
		transport.NewChanFabric(WorldSize(topo)),
		transport.FaultPlan{KillAfterSends: map[int]int{1: 3}},
	)
	defer fab.Close()

	done := make(chan error, 1)
	go func() { _, err := RunWithInfo(fab, cfg, happyFuncs(3)); done <- err }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Run succeeded despite a killed worker")
		}
		if errors.Is(err, transport.ErrTimeout) {
			t.Fatalf("death surfaced as a timeout: %v", err)
		}
		t.Logf("aborted with: %v", err)
	case <-time.After(60 * time.Second):
		t.Fatal("Run deadlocked after worker death")
	}
}

// TestRunSurfacesTypedPeerError kills a Leader by fiat before the run
// starts. Its node's members address the Leader directly (targeted Send of
// their contribution, targeted Recv of the broadcast), so their very first
// touch of the dead rank must produce a *PeerDownError — and Run must
// prefer it over the abort's ErrClosed noise.
func TestRunSurfacesTypedPeerError(t *testing.T) {
	topo := simnet.Topology{Nodes: 2, WorkersPerNode: 2}
	cfg := Config{Topo: topo, MaxIter: 5, GroupThreshold: 2}
	fab := transport.NewFaultFabric(
		transport.NewChanFabric(WorldSize(topo)),
		transport.FaultPlan{},
	)
	defer fab.Close()
	fab.Kill(2) // Leader of node 1; rank 3 must report it by name

	done := make(chan error, 1)
	go func() { _, err := RunWithInfo(fab, cfg, happyFuncs(3)); done <- err }()
	select {
	case err := <-done:
		var pd *transport.PeerDownError
		if !errors.As(err, &pd) {
			t.Fatalf("err = %v, want *PeerDownError", err)
		}
		if pd.Peer != 2 {
			t.Fatalf("PeerDownError.Peer = %d, want 2", pd.Peer)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("Run deadlocked after pre-run kill")
	}
}
