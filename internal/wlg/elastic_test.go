package wlg

import (
	"errors"
	"sync"
	"testing"
	"time"

	"psrahgadmm/internal/collective"
	"psrahgadmm/internal/membership"
	"psrahgadmm/internal/simnet"
	"psrahgadmm/internal/sparse"
	"psrahgadmm/internal/transport"
	"psrahgadmm/internal/vec"
	"psrahgadmm/internal/wire"
)

// elasticRecorder wires a full elastic world over a (possibly faulty)
// fabric and records every surviving worker's applied aggregates and
// contributor counts per iteration. It enforces a deadline: elastic runs
// must terminate, not hang.
type elasticRecorder struct {
	agg    [][][]float64
	counts [][]int
	info   *RunInfo
}

func runElastic(t *testing.T, fab transport.Fabric, cfg Config, dim int) *elasticRecorder {
	t.Helper()
	topo := cfg.Topo
	rec := &elasticRecorder{
		agg:    make([][][]float64, topo.Size()),
		counts: make([][]int, topo.Size()),
	}
	var mu sync.Mutex
	for r := range rec.agg {
		rec.agg[r] = make([][]float64, cfg.MaxIter)
		rec.counts[r] = make([]int, cfg.MaxIter)
	}
	funcs := func(rank int) WorkerFuncs {
		return WorkerFuncs{
			ComputeW: func(iter int) []float64 { return rankVec(dim, rank) },
			ApplyW: func(iter int, w []float64, n int) {
				mu.Lock()
				rec.agg[rank][iter] = vec.Clone(w)
				rec.counts[rank][iter] = n
				mu.Unlock()
			},
		}
	}
	type outcome struct {
		info *RunInfo
		err  error
	}
	done := make(chan outcome, 1)
	go func() {
		info, err := RunWithInfo(fab, cfg, funcs)
		done <- outcome{info, err}
	}()
	select {
	case o := <-done:
		if o.err != nil {
			t.Fatalf("elastic run failed: %v", o.err)
		}
		rec.info = o.info
	case <-time.After(120 * time.Second):
		t.Fatal("elastic run hung")
	}
	return rec
}

// TestElasticHappyPathExactConsensus: with nobody dying and the threshold
// clamped to all nodes, the elastic protocol is exact consensus — every
// worker applies the full-world sum with the full contributor count, and
// the run reports itself undegraded.
func TestElasticHappyPathExactConsensus(t *testing.T) {
	topo := simnet.Topology{Nodes: 3, WorkersPerNode: 2}
	cfg := Config{Topo: topo, MaxIter: 4, Elastic: true}
	fab := transport.NewChanFabric(WorldSize(topo))
	defer fab.Close()
	rec := runElastic(t, fab, cfg, 5)

	want := float64(int(1)<<topo.Size() - 1)
	for r := 0; r < topo.Size(); r++ {
		for iter := 0; iter < cfg.MaxIter; iter++ {
			if rec.counts[r][iter] != topo.Size() {
				t.Fatalf("rank %d iter %d contributors = %d, want %d", r, iter, rec.counts[r][iter], topo.Size())
			}
			for j, got := range rec.agg[r][iter] {
				if got != want {
					t.Fatalf("rank %d iter %d slot %d = %v, want %v", r, iter, j, got, want)
				}
			}
		}
	}
	if rec.info.Degraded() || rec.info.LiveWorkers != topo.Size() || rec.info.Epoch != 0 {
		t.Fatalf("happy path reported degraded: %+v", rec.info)
	}
}

// TestElasticLeaderDeathReelection kills a node's Leader before the run
// starts — the exact scenario that makes the fail-stop runtime return a
// PeerDownError (TestRunSurfacesTypedPeerError). Elastic mode must instead
// re-elect the node's surviving rank as Leader and complete every
// iteration, with the dead rank's contribution absent from every sum.
func TestElasticLeaderDeathReelection(t *testing.T) {
	topo := simnet.Topology{Nodes: 2, WorkersPerNode: 2}
	cfg := Config{Topo: topo, MaxIter: 5, Elastic: true}
	fab := transport.NewFaultFabric(transport.NewChanFabric(WorldSize(topo)), transport.FaultPlan{})
	fab.Kill(2) // Leader of node 1; rank 3 must take over
	defer fab.Close()
	rec := runElastic(t, fab, cfg, 3)

	// Survivors: ranks 0, 1 (node 0) and 3 (node 1, now Leader).
	want := float64(1<<0 + 1<<1 + 1<<3)
	for _, r := range []int{0, 1, 3} {
		for iter := 0; iter < cfg.MaxIter; iter++ {
			if rec.counts[r][iter] != 3 {
				t.Fatalf("rank %d iter %d contributors = %d, want 3", r, iter, rec.counts[r][iter])
			}
			if rec.agg[r][iter][0] != want {
				t.Fatalf("rank %d iter %d sum = %v, want %v (dead rank leaked in?)",
					r, iter, rec.agg[r][iter][0], want)
			}
		}
	}
	if !rec.info.Degraded() || rec.info.LiveWorkers != 3 || rec.info.Epoch != 1 {
		t.Fatalf("degradation summary: %+v", rec.info)
	}
}

// TestElasticMidRunLeaderKill kills a Leader partway through the run (send
// count triggered): its members are mid-protocol when the death surfaces,
// so recovery exercises the GG's result cache and the re-election loop
// rather than a clean boundary. The run must still complete every
// iteration for every survivor.
func TestElasticMidRunLeaderKill(t *testing.T) {
	topo := simnet.Topology{Nodes: 2, WorkersPerNode: 2}
	cfg := Config{Topo: topo, MaxIter: 20, Elastic: true}
	fab := transport.NewFaultFabric(
		transport.NewChanFabric(WorldSize(topo)),
		transport.FaultPlan{Seed: 3, KillAfterSends: map[int]int{2: 5}},
	)
	defer fab.Close()
	rec := runElastic(t, fab, cfg, 3)

	for _, r := range []int{0, 1, 3} {
		for iter := 0; iter < cfg.MaxIter; iter++ {
			if rec.agg[r][iter] == nil {
				t.Fatalf("survivor %d never applied iteration %d", r, iter)
			}
			// Own contribution must always be in the sum the rank applies.
			if ranks := decodeRanks(rec.agg[r][iter][0], topo.Size()); !ranks[r] {
				t.Fatalf("rank %d iter %d: own contribution missing from %v", r, iter, ranks)
			}
		}
	}
	if !rec.info.Degraded() || rec.info.LiveWorkers != 3 {
		t.Fatalf("degradation summary: %+v", rec.info)
	}
}

// TestElasticWholeNodeDeath removes node 1 entirely mid-run (both ranks
// killed). The GG must prune the dead node from its flush expectations —
// the remainder group condition is "no unaccounted node can still
// contribute", not "every node reported" — so the surviving nodes' groups
// keep flushing and the run completes.
func TestElasticWholeNodeDeath(t *testing.T) {
	topo := simnet.Topology{Nodes: 3, WorkersPerNode: 2}
	cfg := Config{Topo: topo, MaxIter: 15, Elastic: true}
	fab := transport.NewFaultFabric(
		transport.NewChanFabric(WorldSize(topo)),
		transport.FaultPlan{Seed: 4, KillAfterSends: map[int]int{2: 6, 3: 6}},
	)
	defer fab.Close()
	rec := runElastic(t, fab, cfg, 3)

	for _, r := range []int{0, 1, 4, 5} {
		for iter := 0; iter < cfg.MaxIter; iter++ {
			if rec.agg[r][iter] == nil {
				t.Fatalf("survivor %d never applied iteration %d", r, iter)
			}
		}
	}
	if !rec.info.Degraded() || rec.info.LiveWorkers != 4 {
		t.Fatalf("degradation summary: %+v", rec.info)
	}
}

// rankInfos runs an elastic world rank by rank and returns each worker's
// own RunInfo; a rank whose own endpoint was killed gets nil.
func rankInfos(t *testing.T, fab transport.Fabric, cfg Config) []*RunInfo {
	t.Helper()
	topo := cfg.Topo
	infos := make([]*RunInfo, topo.Size())
	errs := make([]error, topo.Size()+1)
	var wg sync.WaitGroup
	wg.Add(topo.Size() + 1)
	go func() {
		defer wg.Done()
		errs[topo.Size()] = RunGG(fab.Endpoint(GGRank(topo)), cfg)
	}()
	for r := 0; r < topo.Size(); r++ {
		go func(r int) {
			defer wg.Done()
			infos[r], errs[r] = RunWorkerInfo(fab.Endpoint(r), cfg, WorkerFuncs{
				ComputeW: func(iter int) []float64 { return rankVec(3, r) },
				ApplyW:   func(iter int, w []float64, n int) {},
			})
		}(r)
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(120 * time.Second):
		t.Fatal("elastic run hung")
	}
	for r, err := range errs {
		if errors.Is(err, transport.ErrClosed) && r < topo.Size() {
			infos[r] = nil // killed: the casualty, not a survivor
		} else if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return infos
}

// TestElasticShortRoundsJudgedByGroup: a grouped round sums only its
// group, so a fault-free grouped run is not degraded on any rank — every
// round used to count as short because its contributor count was below
// the world's. A run that loses a worker or a whole node still leaves the
// ranks of untouched nodes degraded: the Group Generator's verdict reaches
// them with the aggregate.
func TestElasticShortRoundsJudgedByGroup(t *testing.T) {
	topo := simnet.Topology{Nodes: 4, WorkersPerNode: 2}
	// Threshold 3 leaves a remainder group of one node.
	for _, threshold := range []int{1, 2, 3} {
		cfg := Config{Topo: topo, MaxIter: 8, Elastic: true, GroupThreshold: threshold}
		fab := transport.NewChanFabric(WorldSize(topo))
		for r, info := range rankInfos(t, fab, cfg) {
			if info.Degraded() {
				t.Errorf("threshold %d: fault-free rank %d reported degraded: %+v", threshold, r, info)
			}
		}
		fab.Close()
	}

	topo = simnet.Topology{Nodes: 3, WorkersPerNode: 2}
	for _, tc := range []struct {
		name   string
		killed []int
	}{
		{"one worker", []int{3}},
		// Every group the survivors form is full: only the lost node shows.
		{"whole node", []int{2, 3}},
	} {
		cfg := Config{Topo: topo, MaxIter: 8, Elastic: true}
		fab := transport.NewFaultFabric(transport.NewChanFabric(WorldSize(topo)), transport.FaultPlan{})
		for _, r := range tc.killed {
			fab.Kill(r)
		}
		infos := rankInfos(t, fab, cfg)
		fab.Close()
		for _, r := range []int{0, 1, 4, 5} {
			if infos[r] == nil || !infos[r].Degraded() || infos[r].ShortRounds == 0 {
				t.Errorf("%s lost: untouched rank %d reported %+v, want short rounds", tc.name, r, infos[r])
			}
		}
	}
}

// TestElasticSurvivesMessageLoss runs the elastic world over a lossy
// fabric: every wait is budget-bounded and every exchange has a recovery
// path (re-contribution to the GG, recovery from its cache, the ack'd
// farewell), so a few percent of dropped messages must cost staleness at
// worst, never a hang or an abort — the bounded-retry contract end to end.
func TestElasticSurvivesMessageLoss(t *testing.T) {
	topo := simnet.Topology{Nodes: 2, WorkersPerNode: 2}
	cfg := Config{Topo: topo, MaxIter: 8, Elastic: true}
	fab := transport.NewFaultFabric(
		transport.NewChanFabric(WorldSize(topo)),
		transport.FaultPlan{Seed: 6, DropProb: 0.02},
	)
	defer fab.Close()
	rec := runElastic(t, fab, cfg, 3)

	for r := 0; r < topo.Size(); r++ {
		for iter := 0; iter < cfg.MaxIter; iter++ {
			if rec.agg[r][iter] == nil {
				t.Fatalf("rank %d never applied iteration %d", r, iter)
			}
		}
	}
	if rec.info.Epoch != 0 {
		t.Fatalf("message loss was escalated to a death: %+v", rec.info)
	}
}

// TestStartIterRunsTail: StartIter makes both runtimes execute exactly the
// iterations [StartIter, MaxIter) with absolute iteration numbers — the
// property checkpoint resume relies on.
func TestStartIterRunsTail(t *testing.T) {
	topo := simnet.Topology{Nodes: 2, WorkersPerNode: 2}
	for _, elastic := range []bool{false, true} {
		cfg := Config{Topo: topo, MaxIter: 6, StartIter: 4, Elastic: elastic}
		fab := transport.NewChanFabric(WorldSize(topo))
		var mu sync.Mutex
		seen := make(map[int]map[int]bool) // rank → iterations applied
		funcs := func(rank int) WorkerFuncs {
			return WorkerFuncs{
				ComputeW: func(iter int) []float64 { return rankVec(2, rank) },
				ApplyW: func(iter int, w []float64, n int) {
					mu.Lock()
					if seen[rank] == nil {
						seen[rank] = map[int]bool{}
					}
					seen[rank][iter] = true
					mu.Unlock()
				},
			}
		}
		if _, err := RunWithInfo(fab, cfg, funcs); err != nil {
			t.Fatalf("elastic=%v: %v", elastic, err)
		}
		fab.Close()
		for r := 0; r < topo.Size(); r++ {
			if len(seen[r]) != 2 || !seen[r][4] || !seen[r][5] {
				t.Fatalf("elastic=%v rank %d applied %v, want exactly {4, 5}", elastic, r, seen[r])
			}
		}
	}
}

// TestStartIterValidation: StartIter outside [0, MaxIter) is a config
// error, not a silent empty run.
func TestStartIterValidation(t *testing.T) {
	topo := simnet.Topology{Nodes: 1, WorkersPerNode: 1}
	for _, si := range []int{-1, 3, 4} {
		cfg := Config{Topo: topo, MaxIter: 3, StartIter: si}
		if err := cfg.Validate(); err == nil {
			t.Fatalf("StartIter %d accepted", si)
		}
	}
}

// TestContributeSkipsStaleNotReady: a worker that asked the GG to recover a
// round while still a member, and was then elected Leader in the same
// round, finds the late "not ready" reply on the tag its contribution
// waits on. The Leader must re-contribute and take the ready reply that
// follows — not read the stale frame as a result of 0 contributors, which
// would make every rank of its node apply z = 0 that round.
func TestContributeSkipsStaleNotReady(t *testing.T) {
	topo := simnet.Topology{Nodes: 2, WorkersPerNode: 2}
	fab := transport.NewChanFabric(WorldSize(topo))
	defer fab.Close()
	const iter = 3
	gg := fab.Endpoint(GGRank(topo))
	// The scripted GG: the late reply to the recover request, then the
	// reply to the contribution.
	for _, m := range []wire.Message{
		wire.Control(iterTag(iter, offElReplyCtl), elStatusNotReady, 0, 0),
		wire.Control(iterTag(iter, offElReplyCtl), elStatusReady, 4, 0),
		wire.SparseMsg(iterTag(iter, offElReplyW), sparse.FromDense([]float64{1, 0, 2, 0})),
	} {
		if err := gg.Send(0, m); err != nil {
			t.Fatal(err)
		}
	}
	w := &elasticWorker{ep: fab.Endpoint(0), gg: GGRank(topo), tr: membership.NewTracker(topo.Size())}
	res, err := w.contribute(iter, sparse.FromDense([]float64{0, 1, 0, 1}), 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.contributors != 4 || res.w.Dim != 4 || res.w.NNZ() != 2 {
		t.Fatalf("contributors %d, aggregate %v; want 4 and the ready reply's", res.contributors, res.w)
	}
	// The stale reply cost one re-contribution: the GG holds two.
	once := collective.RetryPolicy{Attempts: 1, BaseDelay: time.Second}
	for i := 0; i < 2; i++ {
		m, err := collective.RecvRetry(gg, 0, tagElControl, once)
		if err != nil || len(m.Ints) != 4 || m.Ints[0] != elKindContribute {
			t.Fatalf("contribution %d at the GG: %v %v", i, m.Ints, err)
		}
	}
}
