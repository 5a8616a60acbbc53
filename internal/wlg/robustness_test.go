package wlg

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"psrahgadmm/internal/collective"
	"psrahgadmm/internal/membership"
	"psrahgadmm/internal/simnet"
	"psrahgadmm/internal/sparse"
	"psrahgadmm/internal/transport"
	"psrahgadmm/internal/wire"
)

// TestGGRejectsMalformedRequest verifies the Group Generator fails loudly
// on a corrupt report rather than mis-grouping: a fail-stop request whose
// arity is not 2, an elastic control whose arity is not 4, and an elastic
// control of no known kind each fail RunGG with an error wrapping
// collective.ErrPayloadKind.
func TestGGRejectsMalformedRequest(t *testing.T) {
	topo := simnet.Topology{Nodes: 2, WorkersPerNode: 1}
	for _, tc := range []struct {
		name    string
		elastic bool
		req     wire.Message
		want    string
	}{
		{"fail-stop request of one int", false, wire.Control(tagGGRequest, 7), "malformed"},
		{"elastic control of three ints", true, wire.Control(tagElControl, elKindContribute, 0, 0), "malformed"},
		{"elastic control of an unknown kind", true, wire.Control(tagElControl, 99, 0, 0, 0), "unknown"},
	} {
		f := transport.NewChanFabric(WorldSize(topo))
		cfg := Config{Topo: topo, MaxIter: 1, Elastic: tc.elastic}

		done := make(chan error, 1)
		go func() { done <- RunGG(f.Endpoint(GGRank(topo)), cfg) }()

		if err := f.Endpoint(0).Send(GGRank(topo), tc.req); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: GG error = %v, want a %s-request failure", tc.name, err, tc.want)
			}
			if !errors.Is(err, collective.ErrPayloadKind) {
				t.Errorf("%s: GG error = %v, want it to wrap ErrPayloadKind", tc.name, err)
			}
		case <-time.After(5 * time.Second):
			t.Errorf("%s: GG did not fail on the request", tc.name)
		}
		f.Close()
	}
}

// TestGGRefusesStrangeRequests: the fail-stop Group Generator takes a
// request only from the node's Leader, once per node and iteration, for an
// iteration of the run. Each row's scripted Leaders send one such request
// among requests that complete the run, so a GG that takes it flushes and
// returns nil; it must instead fail with an error wrapping
// collective.ErrPayloadKind. A repeat used to count as a second node and
// flush the round early, with the last Leader never answered.
func TestGGRefusesStrangeRequests(t *testing.T) {
	topo := simnet.Topology{Nodes: 2, WorkersPerNode: 2} // Leaders 0 and 2, the GG 4
	type req struct{ from, node, iter int }
	for _, tc := range []struct {
		name string
		reqs []req
	}{
		{"not the node's Leader", []req{{1, 0, 0}, {2, 1, 0}}},
		{"node outside the world", []req{{0, 2, 0}, {2, 1, 0}}},
		{"second request for one iteration", []req{{0, 0, 0}, {0, 0, 0}}},
		{"iteration past MaxIter", []req{{0, 0, 1}, {2, 1, 1}}},
	} {
		f := transport.NewChanFabric(WorldSize(topo))
		for _, r := range tc.reqs {
			if err := f.Endpoint(r.from).Send(GGRank(topo), wire.Control(tagGGRequest, int64(r.node), int64(r.iter))); err != nil {
				t.Fatal(err)
			}
		}
		err := RunGG(f.Endpoint(GGRank(topo)), Config{Topo: topo, MaxIter: 1})
		f.Close()
		if !errors.Is(err, collective.ErrPayloadKind) {
			t.Errorf("%s: GG returned %v, want an error wrapping ErrPayloadKind", tc.name, err)
		}
	}
}

// TestLeaderRefusesStrangeGroup: a fail-stop Leader runs the PSR only over
// a group the GG could have formed. A reply that repeats a node, leaves out
// the Leader's own, or names node Nodes — whose Leader rank is the GG's own
// — fails RunWorker before ApplyW. The last used to send the Leader's PSR
// to the GG and wait on it forever, hence the timer, which only a failing
// run reaches.
func TestLeaderRefusesStrangeGroup(t *testing.T) {
	topo := simnet.Topology{Nodes: 2, WorkersPerNode: 1} // Leaders 0 and 1, the GG 2
	for _, tc := range []struct {
		nodes []int64
		want  string
	}{
		{[]int64{0, 0}, "duplicate rank 0"},
		{[]int64{1}, "rank 0 not in group"},
		{[]int64{0, 2}, "node 2 outside [0, 2)"},
	} {
		f := transport.NewChanFabric(WorldSize(topo))
		if err := f.Endpoint(GGRank(topo)).Send(0, wire.Control(iterTag(0, offGGReply), tc.nodes...)); err != nil {
			t.Fatal(err)
		}
		applied := false
		done := make(chan error, 1)
		go func() {
			done <- RunWorker(f.Endpoint(0), Config{Topo: topo, MaxIter: 1}, WorkerFuncs{
				ComputeW: func(int) []float64 { return []float64{1, 2} },
				ApplyW:   func(int, []float64, int) { applied = true },
			})
		}()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), tc.want) || applied {
				t.Errorf("reply %v: %v, ApplyW called %v; want an error containing %q and no ApplyW", tc.nodes, err, applied, tc.want)
			}
		case <-time.After(time.Minute):
			t.Errorf("reply %v: the Leader still waits after a minute", tc.nodes)
		}
		f.Close()
	}
}

// TestElasticResultRefusesStrangeControl: an elastic rank takes a result
// control only with a known status word and, when ready, a contributor
// count in [1, the world's workers]. A count of 0 used to reach the
// z-update, whose n > 0 guard then made z = 0.
func TestElasticResultRefusesStrangeControl(t *testing.T) {
	topo := simnet.Topology{Nodes: 2, WorkersPerNode: 2}
	const iter = 1
	for _, tc := range []struct {
		status, count int64
		ok            bool
	}{
		{elStatusReady, 4, true},
		{elStatusReady, 1, true},
		{elStatusNotReady, 0, true},
		{elStatusReady, 0, false},
		{elStatusReady, -1, false},
		{elStatusReady, 5, false},
		{2, 4, false},
		{-1, 0, false},
	} {
		fab := transport.NewChanFabric(WorldSize(topo))
		gg := fab.Endpoint(GGRank(topo))
		for _, m := range []wire.Message{
			wire.Control(iterTag(iter, offElReplyCtl), tc.status, tc.count, 0),
			wire.SparseMsg(iterTag(iter, offElReplyW), sparse.FromDense([]float64{1, 0, 2})),
		} {
			if err := gg.Send(0, m); err != nil {
				t.Fatal(err)
			}
		}
		w := &worker{ep: fab.Endpoint(0), cfg: Config{Topo: topo}, gg: GGRank(topo), tr: membership.NewTracker(topo.Size())}
		res, ready, err := w.awaitResult(GGRank(topo), iter, offElReplyCtl, 3)
		fab.Close()
		if tc.ok {
			if err != nil || ready != (tc.status == elStatusReady) || ready && res.contributors != int(tc.count) {
				t.Errorf("status %d count %d: ready %v, %d contributors, %v; want it taken", tc.status, tc.count, ready, res.contributors, err)
			}
			continue
		}
		if !errors.Is(err, collective.ErrPayloadKind) || ready {
			t.Errorf("status %d count %d: ready %v, %v; want an error wrapping ErrPayloadKind", tc.status, tc.count, ready, err)
		}
	}
}

// TestElasticGGRefusesStrangeContribution: the elastic Group Generator
// takes a node sum only from a worker of that node, for a node of the
// world, counting 1 to WorkersPerNode workers, and a node sum or a recovery
// request only for the sender's own node and an iteration in [StartIter,
// MaxIter). It takes quarantine evidence only against another rank of the
// sender's node, for an iteration in the same range. Each row's request is
// followed by every worker's farewell, so a GG that takes it returns nil;
// it must instead fail with an error wrapping collective.ErrPayloadKind. A
// contribution for iteration 2^40 used to be served as a ready round and
// move the next rejoin grant's join iteration to 2^40+2, where the
// rejoiner never re-enters, and a rank on node 1 could get rank 0
// quarantined.
func TestElasticGGRefusesStrangeContribution(t *testing.T) {
	topo := simnet.Topology{Nodes: 2, WorkersPerNode: 2} // node 0: ranks 0, 1; node 1: ranks 2, 3
	const contrib, recov, quar = elKindContribute, elKindRecover, elKindQuarantine
	for _, tc := range []struct {
		name                          string
		kind, from, node, iter, count int
	}{
		{"node outside the world", contrib, 0, 2, 1, 1},
		{"negative node", contrib, 0, -1, 1, 1},
		{"sender on another node", contrib, 2, 0, 1, 1},
		{"no contributors", contrib, 0, 0, 1, 0},
		{"more contributors than the node holds", contrib, 0, 0, 1, 3},
		{"contribution for iteration 2^40", contrib, 0, 0, 1 << 40, 1},
		{"contribution for iteration MaxIter", contrib, 0, 0, 4, 1},
		{"contribution before StartIter", contrib, 0, 0, 0, 1},
		{"recovery for iteration 2^40", recov, 0, 0, 1 << 40, 0},
		{"recovery before StartIter", recov, 0, 0, 0, 0},
		{"recovery for another node", recov, 0, 1, 2, 0},
		{"recovery for a node outside the world", recov, 0, 2, 2, 0},
		// A quarantine's node field names the victim and its count the
		// victim's incarnation.
		{"quarantine of a rank outside the world", quar, 0, 4, 1, 0},
		{"quarantine of a negative rank", quar, 0, -1, 1, 0},
		{"quarantine of a rank on another node", quar, 2, 0, 1, 0},
		{"quarantine of the sender itself", quar, 1, 1, 1, 0},
		{"quarantine for iteration 2^40", quar, 0, 1, 1 << 40, 0},
		{"quarantine for iteration MaxIter", quar, 0, 1, 4, 0},
		{"quarantine before StartIter", quar, 0, 1, 0, 0},
	} {
		fab := transport.NewChanFabric(WorldSize(topo))
		gg := GGRank(topo)
		from := fab.Endpoint(tc.from)
		msgs := []wire.Message{wire.Control(tagElControl, int64(tc.kind), int64(tc.node), int64(tc.iter), int64(tc.count))}
		if tc.kind == contrib {
			msgs = append(msgs, wire.SparseMsg(iterTag(tc.iter, offElGGW), sparse.FromDense([]float64{1, 0, 2})))
		}
		for _, m := range msgs {
			if err := from.Send(gg, m); err != nil {
				t.Fatal(err)
			}
		}
		for r := 0; r < topo.Size(); r++ {
			if err := fab.Endpoint(r).Send(gg, wire.Control(tagElControl, elKindDone, int64(topo.NodeOf(r)), 0, 0)); err != nil {
				t.Fatal(err)
			}
		}
		err := RunGG(fab.Endpoint(gg), Config{Topo: topo, StartIter: 1, MaxIter: 4, Elastic: true})
		fab.Close()
		if !errors.Is(err, collective.ErrPayloadKind) {
			t.Errorf("%s: GG returned %v, want an error wrapping ErrPayloadKind", tc.name, err)
		}
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

// TestRejoinRefusesStrangeGrant: a rejoining rank takes its grant only
// with at least the five header ints, a join iteration at or past its
// StartIter, a warm-start word of 0 or 1, with a warm start a contributor
// count in [1, the world's workers], and a dead set of at most the world's
// workers, each a worker rank, that fits in the grant. A refused grant
// fails the handshake with an error wrapping collective.ErrPayloadKind
// before WorkerFuncs.Rejoined runs. Counts of 0 and −3 used to reach
// Rejoined, whose z-update then warm-started z = 0; a dead-set count of
// MaxInt64 overflowed the slice bound and panicked the rejoiner.
func TestRejoinRefusesStrangeGrant(t *testing.T) {
	topo := simnet.Topology{Nodes: 1, WorkersPerNode: 2} // rank 1 rejoins; the GG is 2
	for _, tc := range []struct {
		start int
		grant []int64 // [joinIter, incarnation, haveW, warmCount, nDead]
		ok    bool
	}{
		{0, []int64{1, 1, 0, 0, 0}, true},
		{0, []int64{1, 1, 1, 2, 0}, true},
		{3, []int64{3, 1, 1, 1, 0}, true},
		{0, []int64{1, 1, 0, 0, 1, 0}, true},
		{0, []int64{1, 1, 0, 0, math.MaxInt64}, false},
		{0, []int64{1, 1, 0, 0, 3, 0, 0, 0}, false},
		{0, []int64{1, 1, 0, 0, -1}, false},
		{0, []int64{1, 1, 0, 0, 2, 0}, false},
		{0, []int64{1, 1, 0, 0, 1, 99}, false},
		{0, []int64{1, 1, 0, 0, 1, -1}, false},
		{0, []int64{1, 1, 0, 0, 1, 2}, false},
		{0, []int64{1, 1, 0, 0}, false},
		{0, []int64{1, 1, 1, 0, 0}, false},
		{0, []int64{1, 1, 1, -3, 0}, false},
		{0, []int64{1, 1, 1, 3, 0}, false},
		{0, []int64{1, 1, 2, 1, 0}, false},
		{0, []int64{1, 1, -1, 1, 0}, false},
		{0, []int64{-5, 1, 0, 0, 0}, false},
		{3, []int64{2, 1, 0, 0, 0}, false},
	} {
		fab := transport.NewChanFabric(WorldSize(topo))
		gg := fab.Endpoint(GGRank(topo))
		msgs := []wire.Message{wire.Control(tagElRejoinReply, tc.grant...)}
		if tc.grant[2] != 0 {
			msgs = append(msgs, wire.SparseMsg(tagElRejoinW, sparse.FromDense([]float64{1, 0, 2})))
		}
		for _, m := range msgs {
			if err := gg.Send(1, m); err != nil {
				t.Fatal(err)
			}
		}
		cfg := Config{Topo: topo, StartIter: tc.start, MaxIter: 8, Elastic: true, Rejoin: true}
		w := &worker{ep: fab.Endpoint(1), cfg: cfg, rank: 1, gg: GGRank(topo), tr: membership.NewTracker(topo.Size())}
		rejoined := false
		joinIter, err := w.rejoinStart(WorkerFuncs{Rejoined: func(j int, bigW []float64, n int) {
			rejoined = true
			if j != int(tc.grant[0]) || (bigW != nil) != (tc.grant[2] == 1) || bigW != nil && n != int(tc.grant[3]) {
				t.Errorf("grant %v: Rejoined(%d, %v, %d)", tc.grant, j, bigW, n)
			}
		}})
		fab.Close()
		if tc.ok {
			if err != nil || !rejoined || joinIter != int(tc.grant[0]) {
				t.Errorf("grant %v at StartIter %d: join iteration %d, Rejoined called %v, %v; want it taken", tc.grant, tc.start, joinIter, rejoined, err)
			}
			continue
		}
		if !errors.Is(err, collective.ErrPayloadKind) || rejoined {
			t.Errorf("grant %v at StartIter %d: Rejoined called %v, %v; want an error wrapping ErrPayloadKind", tc.grant, tc.start, rejoined, err)
		}
	}
}
