package wlg

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"psrahgadmm/internal/collective"
	"psrahgadmm/internal/membership"
	"psrahgadmm/internal/simnet"
	"psrahgadmm/internal/sparse"
	"psrahgadmm/internal/transport"
	"psrahgadmm/internal/vec"
	"psrahgadmm/internal/watchdog"
	"psrahgadmm/internal/wire"
)

// TestElasticRejoinFoldsWorkerBack is the WLG fail-recover acceptance
// test: a Leader is killed mid-protocol, its node recovers under the
// survivor, and then the dead rank comes back as a new incarnation via
// Config.Rejoin. The rejoiner must receive a grant (join iteration, warm
// start), execute exactly the tail [joinIter, MaxIter), and the whole
// world — including ranks that never exchanged a message with it — must
// re-admit it at the same boundary, restoring the full contributor count.
func TestElasticRejoinFoldsWorkerBack(t *testing.T) {
	topo := simnet.Topology{Nodes: 2, WorkersPerNode: 2}
	cfg := Config{Topo: topo, MaxIter: 30, Elastic: true}
	fab := transport.NewFaultFabric(
		transport.NewChanFabric(WorldSize(topo)),
		// Rank 2 (Leader of node 1) dies on its 5th send: one complete
		// iteration, then mid-contribution — rank 3 recovers through the
		// GG cache and takes over the node.
		transport.FaultPlan{Seed: 11, KillAfterSends: map[int]int{2: 5}},
	)
	defer fab.Close()

	const dim = 3
	var mu sync.Mutex
	agg := make([]map[int][]float64, topo.Size())
	counts := make([]map[int]int, topo.Size())
	for r := range agg {
		agg[r] = map[int][]float64{}
		counts[r] = map[int]int{}
	}
	record := func(rank int) WorkerFuncs {
		return WorkerFuncs{
			ComputeW: func(iter int) []float64 { return rankVec(dim, rank) },
			ApplyW: func(iter int, w []float64, n int) {
				mu.Lock()
				agg[rank][iter] = vec.Clone(w)
				counts[rank][iter] = n
				mu.Unlock()
			},
		}
	}

	type exit struct {
		rank int
		info *RunInfo
		err  error
	}
	var wg sync.WaitGroup
	ggErr := make(chan error, 1)
	exits := make(chan exit, topo.Size()+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		ggErr <- RunGG(fab.Endpoint(GGRank(topo)), cfg)
	}()
	start := func(rank int, c Config, f WorkerFuncs) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			info, err := RunWorkerInfo(fab.Endpoint(rank), c, f)
			exits <- exit{rank, info, err}
		}()
	}
	for r := 0; r < topo.Size(); r++ {
		start(r, cfg, record(r))
	}

	var rej struct {
		called   int
		joinIter int
		warm     []float64
		cnt      int
	}
	rcfg := cfg
	rcfg.Rejoin = true
	rfuncs := record(2)
	rfuncs.Rejoined = func(joinIter int, w []float64, n int) {
		mu.Lock()
		rej.called++
		rej.joinIter = joinIter
		rej.warm = vec.Clone(w)
		rej.cnt = n
		mu.Unlock()
	}

	// Coordinator: the killed rank's exit (its own endpoint closed) is the
	// signal a real launcher would see; revive the slot and start the new
	// incarnation. Everyone else must finish cleanly.
	deadline := time.After(120 * time.Second)
	rejoined := false
	finals := make([]*RunInfo, topo.Size())
	for finished := 0; finished < topo.Size()+1; {
		select {
		case e := <-exits:
			finished++
			if e.rank == 2 && !rejoined {
				if !errors.Is(e.err, transport.ErrClosed) {
					t.Fatalf("killed rank exited with %v, want its own ErrClosed", e.err)
				}
				fab.Revive(2)
				rejoined = true
				start(2, rcfg, rfuncs)
				continue
			}
			if e.err != nil {
				t.Fatalf("rank %d failed: %v", e.rank, e.err)
			}
			finals[e.rank] = e.info
		case <-deadline:
			t.Fatal("rejoin run hung")
		}
	}
	wg.Wait()
	if err := <-ggErr; err != nil {
		t.Fatalf("GG failed: %v", err)
	}

	mu.Lock()
	defer mu.Unlock()
	if rej.called != 1 {
		t.Fatalf("Rejoined called %d times, want 1", rej.called)
	}
	if rej.joinIter < 2 || rej.joinIter >= cfg.MaxIter {
		t.Fatalf("join iteration %d outside the useful range [2, %d)", rej.joinIter, cfg.MaxIter)
	}
	// A cold grant (no warm start) is only possible before the first
	// flush, which pins the join boundary to the very start of the run.
	if rej.warm == nil && rej.joinIter > 2 {
		t.Fatalf("no warm start despite joining at iteration %d", rej.joinIter)
	}
	if rej.warm != nil && (len(rej.warm) != dim || rej.cnt < 1) {
		t.Fatalf("warm start dim=%d contributors=%d", len(rej.warm), rej.cnt)
	}

	// The new incarnation executes exactly the granted tail.
	for iter := rej.joinIter; iter < cfg.MaxIter; iter++ {
		if agg[2][iter] == nil {
			t.Fatalf("rejoiner never applied iteration %d (joined at %d)", iter, rej.joinIter)
		}
	}
	// Survivors never miss an iteration.
	for _, r := range []int{0, 1, 3} {
		for iter := 0; iter < cfg.MaxIter; iter++ {
			if agg[r][iter] == nil {
				t.Fatalf("survivor %d never applied iteration %d", r, iter)
			}
		}
	}
	// Full-world restoration: the final round's consensus carries every
	// rank's contribution with the full contributor count, on every rank —
	// the WLG analogue of "contributor scaling grows back".
	last := cfg.MaxIter - 1
	for r := 0; r < topo.Size(); r++ {
		if counts[r][last] != topo.Size() {
			t.Fatalf("rank %d final contributors = %d, want %d", r, counts[r][last], topo.Size())
		}
		ranks := decodeRanks(agg[r][last][0], topo.Size())
		for p := 0; p < topo.Size(); p++ {
			if !ranks[p] {
				t.Fatalf("rank %d final sum misses rank %d: %v", r, p, ranks)
			}
		}
	}
	// Every final membership view is whole again — including on ranks 0/1,
	// which only learn both the death and the rejoin through the log.
	for r, info := range finals {
		if info == nil {
			t.Fatalf("rank %d reported no RunInfo", r)
		}
		if info.LiveWorkers != topo.Size() {
			t.Fatalf("rank %d final view: %d live, want %d", r, info.LiveWorkers, topo.Size())
		}
	}
}

// TestRejoinAnnouncementIdempotent drives the GG's rejoin handshake
// directly: duplicated announcements (a loss-driven re-announce or a
// fabric-duplicated frame) must re-serve the SAME grant — one join
// iteration, one incarnation — and a duplicate straggling in after the
// rejoiner's farewell must not corrupt the done accounting the GG's
// termination depends on.
func TestRejoinAnnouncementIdempotent(t *testing.T) {
	topo := simnet.Topology{Nodes: 1, WorkersPerNode: 2}
	cfg := Config{Topo: topo, MaxIter: 3, Elastic: true}
	fab := transport.NewChanFabric(WorldSize(topo))
	defer fab.Close()
	gg := GGRank(topo)
	ggDone := make(chan error, 1)
	go func() { ggDone <- RunGG(fab.Endpoint(gg), cfg) }()

	ep0, ep1 := fab.Endpoint(0), fab.Endpoint(1)
	announce := func() []int64 {
		t.Helper()
		if err := ep1.Send(gg, wire.Control(tagElControl, elKindRejoin, 0, 0, 0)); err != nil {
			t.Fatal(err)
		}
		m, err := ep1.Recv(gg, tagElRejoinReply)
		if err != nil {
			t.Fatal(err)
		}
		return m.Ints
	}
	farewell := func(ep transport.Endpoint) {
		t.Helper()
		if err := ep.Send(gg, wire.Control(tagElControl, elKindDone, 0, 0, 0)); err != nil {
			t.Fatal(err)
		}
		if _, err := ep.Recv(gg, collective.AckTag(tagElControl)); err != nil {
			t.Fatal(err)
		}
	}

	g1 := announce()
	g2 := announce()
	if !reflect.DeepEqual(g1, g2) {
		t.Fatalf("duplicate announcement changed the grant:\n%v\n%v", g1, g2)
	}
	// Nothing has contributed: maxIterSeen is StartIter-1, so the join
	// boundary is iteration 1, incarnation 1, cold start, nobody dead, and
	// the log holds exactly this grant.
	want := []int64{1, 1, 0, 0, 0, 1, 1, 1}
	if !reflect.DeepEqual(g1, want) {
		t.Fatalf("grant = %v, want %v", g1, want)
	}

	// Farewell, then a straggler duplicate: the grant is still re-served
	// (same bytes), but done accounting survives — proven by the GG
	// terminating once rank 0 also says goodbye.
	farewell(ep1)
	if g3 := announce(); !reflect.DeepEqual(g3, want) {
		t.Fatalf("post-farewell duplicate changed the grant: %v", g3)
	}
	farewell(ep0)
	select {
	case err := <-ggDone:
		if err != nil {
			t.Fatalf("GG failed: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("GG hung: the straggling duplicate announcement resurrected done accounting")
	}
}

// TestElasticToleratesDuplicationAndReordering runs the full elastic
// world over a fabric that duplicates and reorders frames. Every exchange
// is either idempotent (contributions are deduplicated by node, cache
// replies and broadcasts carry identical content per iteration, farewells
// are ack'd) or iteration-tag-scoped, so at-least-once, out-of-order
// delivery must cost at most staleness — never a wrong aggregate, a false
// death, or a hang.
func TestElasticToleratesDuplicationAndReordering(t *testing.T) {
	topo := simnet.Topology{Nodes: 2, WorkersPerNode: 2}
	cfg := Config{Topo: topo, MaxIter: 8, Elastic: true}
	fab := transport.NewFaultFabric(
		transport.NewChanFabric(WorldSize(topo)),
		transport.FaultPlan{Seed: 13, DupProb: 0.05, ReorderProb: 0.05},
	)
	defer fab.Close()
	rec := runElastic(t, fab, cfg, 3)

	for r := 0; r < topo.Size(); r++ {
		for iter := 0; iter < cfg.MaxIter; iter++ {
			if rec.agg[r][iter] == nil {
				t.Fatalf("rank %d never applied iteration %d", r, iter)
			}
			// Duplicates must never double-count: every applied sum is a
			// subset-sum of distinct rank contributions (a held/duplicated
			// frame may cost a member staleness — its contribution skipped
			// for the round — but the power-of-two encoding would expose
			// any contribution entering a sum twice as a non-subset value).
			if got := rec.agg[r][iter][0]; got != float64(int64(got)) || int64(got) <= 0 ||
				int64(got) >= 1<<topo.Size() {
				t.Fatalf("rank %d iter %d: sum %v is not a subset of distinct contributions", r, iter, got)
			}
		}
	}
	if rec.info.Epoch != 0 {
		t.Fatalf("duplication/reordering was escalated to a death: %+v", rec.info)
	}
	if dups := fab.InjectedDups(); dups == 0 {
		t.Fatalf("plan injected no duplicates — the test exercised nothing")
	}
}

// TestRejoinClearsTheLeadersScreen: a Leader whose screen indicted a member
// forgets those strikes, and the baseline, once the member comes back as a
// new incarnation — as the engine's readmission does — so the first spike
// of the new life is forgiven instead of quarantining it again. No clock:
// the Leader's screen and rejoin log are driven directly.
func TestRejoinClearsTheLeadersScreen(t *testing.T) {
	const victim, joinIter = 1, 10
	topo := simnet.Topology{Nodes: 1, WorkersPerNode: 3}
	w := &worker{
		rank:   0,
		tr:     membership.NewTracker(WorldSize(topo)),
		screen: watchdog.NewScreen(watchdog.ScreenConfig{Enabled: true}, WorldSize(topo)),
	}
	steady := sparse.FromDense([]float64{1, 1, 1})
	spike := sparse.FromDense([]float64{1000, 1000, 1000})
	for range 4 {
		if w.screen.ObserveSparse(victim, steady) {
			t.Fatal("a steady contribution was flagged")
		}
	}
	for range 2 {
		if !w.screen.ObserveSparse(victim, spike) {
			t.Fatal("a spike was not flagged")
		}
	}
	if !w.screen.Indicted(victim) || !w.tr.Quarantine(victim) {
		t.Fatal("the victim was not indicted and quarantined")
	}
	w.joinLog = []int64{victim, joinIter, 1} // its probation ended in incarnation 1
	w.applyJoins(joinIter)
	if !w.tr.Alive(victim) || w.tr.Quarantined(victim) || w.tr.Incarnation(victim) != 1 {
		t.Fatal("the rejoin did not readmit the victim")
	}
	if w.screen.Indicted(victim) {
		t.Fatal("the new incarnation starts indicted by the old one's strikes")
	}
	w.screen.ObserveSparse(victim, spike)
	if w.screen.Indicted(victim) {
		t.Fatal("the new incarnation's first spike indicted it")
	}
	// The log is re-applied every boundary; a known incarnation clears
	// nothing, so a sustained attack by the new life still indicts it
	// (once its baseline has forgotten the forgiven spike).
	for range 30 {
		w.screen.ObserveSparse(victim, steady)
	}
	for range 2 {
		w.screen.ObserveSparse(victim, spike)
	}
	w.applyJoins(joinIter + 1)
	if !w.screen.Indicted(victim) {
		t.Fatal("re-applying the log cleared the new incarnation's strikes")
	}
}
