// Elastic (fail-survive) mode of the WLG runtime: worker deaths shrink the
// world instead of aborting it.
//
// Every rank keeps its own membership.Tracker fed exclusively by transport
// evidence — a failed send or receive against a dead peer surfaces a typed
// *transport.PeerDownError, which marks the peer down. Views converge
// because death is monotone and every rank eventually touches a dead peer
// it depends on. A node's Leader is re-elected deterministically as the
// first live rank of the node (membership.Tracker.FirstLive), so ranks
// that have seen the same evidence elect the same Leader with no election
// messages.
//
// Inter-node aggregation changes shape relative to the fail-stop runtime:
// instead of the leader-to-leader PSR-Allreduce, each Leader sends its
// node's sum to the Group Generator, which batches nodes into groups
// (arrival order, same GQ threshold as Algorithm 2), sums each group, and
// replies to the contributing Leaders. The payloads are the same sparse
// frames the fail-stop protocol ships, encoded by the same per-rank codec
// state, so CodecBudgetBytes and every byte count mean one thing in both
// modes. The GG also CACHES every flushed
// (iteration, node) result. The cache is what makes re-election sound: a
// result exists if and only if the GG holds it, so a member orphaned by
// its Leader's death first asks the GG to recover the result — a hit means
// the old Leader had finished the round before dying; a miss guarantees no
// member of the node has the result, so the survivors can safely re-elect
// and re-run the round (the GG deduplicates re-sent contributions by
// node). This trades the PSR-Allreduce's bandwidth optimality for a single
// authoritative place to recover from, which is the robustness point of
// this mode.
//
// Waits on peers are bounded by cfg.retry (package collective): a retry
// budget expiring against a LIVE peer is staleness, not death — the Leader
// skips that member's contribution for the round (counted in
// RunInfo.Skipped) and nobody is pruned. Only transport evidence removes a
// rank from the world.
//
// Termination: each worker sends a "done" control to the GG when it
// finishes (or gives up); the GG exits once every worker rank is done or
// dead, so it never waits on a crashed worker's farewell.
package wlg

import (
	"errors"
	"fmt"
	"slices"

	"psrahgadmm/internal/collective"
	"psrahgadmm/internal/exchange"
	"psrahgadmm/internal/membership"
	"psrahgadmm/internal/sparse"
	"psrahgadmm/internal/transport"
	"psrahgadmm/internal/watchdog"
	"psrahgadmm/internal/wire"
)

// Elastic-mode tags. The per-iteration offsets live in the same iterTag
// windows as the fail-stop protocol's — the two protocols never share a
// run, so reuse is safe — and the fixed control tag sits beside
// tagGGRequest, below tagIterBase and far below the collective package's
// ack band. A round result's aggregate follows its control on the next
// offset (sendResult, awaitResult).
const (
	offElMemberW  = 0 // member → Leader: encoded contribution w_i
	offElReplyCtl = 2 // GG → requester: Control[status, contributors, short, log...]
	offElReplyW   = 3 // GG → requester: group aggregate
	offElBcCtl    = 5 // Leader → member: Control[status, contributors, short, log...]
	offElBcW      = 6 // Leader → member: group aggregate
	offElGGW      = 7 // Leader → GG: node sum (follows the contribute control)

	// tagElControl carries every worker→GG control in elastic mode:
	// Ints = [kind, node, iteration, count].
	tagElControl int32 = 520

	elKindContribute = 1 // a Leader's node sum is on its way
	elKindRecover    = 2 // an orphaned member asks for a cached result
	elKindDone       = 3 // this rank will send nothing more
	// elKindQuarantine publishes a Leader's quarantine evidence:
	// Ints = [kind, victim rank, trip iteration, victim incarnation]. The
	// GG folds it into the rejoin log as a membership.QuarantineLogEntry
	// triple, where it piggybacks on every control reply exactly like a
	// death/rejoin record. At-least-once with idempotent application: the
	// Leader re-sends each round until the log confirms the entry, and
	// the GG ignores evidence for a rank already quarantined, dead, or
	// reincarnated past the indicted incarnation.
	elKindQuarantine = 5

	elStatusNotReady = 0
	elStatusReady    = 1

	// elasticCycles bounds a member's elect→send→wait→recover loop per
	// iteration; recontributeCap bounds a Leader's contribute→reply loop
	// against the GG. Both exist so message loss degrades into an error
	// instead of an infinite loop; each cycle already carries a full retry
	// budget, so hitting these caps means the fabric is effectively gone.
	elasticCycles   = 8
	recontributeCap = 4
)

// RunInfo summarizes how degraded an elastic run ended up.
type RunInfo struct {
	// Epoch counts the deaths this view absorbed (membership epoch).
	Epoch int
	// LiveWorkers is the surviving worker count.
	LiveWorkers int
	// Skipped counts member contributions a Leader's gather skipped
	// because the retry budget expired against a live peer (bounded
	// staleness, not death).
	Skipped int64
	// ShortRounds counts iterations whose group averaged fewer workers
	// than its nodes hold, or ran while some node of the world had lost
	// every rank; a full group of a grouped run is not short. The Group
	// Generator judges this at flush, and the verdict travels with the
	// aggregate, so this catches degradation a rank never locally
	// witnessed: workers on an unaffected node exchange no messages with
	// a dead peer (aggregation routes through the GG) and their tracker
	// stays pristine, but the verdict still reaches them.
	ShortRounds int64
	// Flagged counts member contributions a Leader's screen excluded from
	// the node sum as outliers (Config.Screen).
	Flagged int64
	// SelfQuarantines counts how many times this rank discovered itself
	// quarantined and entered probation.
	SelfQuarantines int
}

// Degraded reports whether the run lost anything: a death, a skipped or
// screened-out contribution, or a short round.
func (ri *RunInfo) Degraded() bool {
	return ri.Epoch > 0 || ri.Skipped > 0 || ri.ShortRounds > 0 || ri.Flagged > 0 || ri.SelfQuarantines > 0
}

// groupResult is one flushed group's outcome: its aggregate, how many
// workers the aggregate sums, and the GG's verdict on whether the round
// was short (see RunInfo.ShortRounds).
type groupResult struct {
	w            *sparse.Vector
	contributors int
	short        bool
}

// control is the control frame of a ready result, [status, contributors,
// short, log...]: the layout of the GG's replies and the Leader's
// broadcast alike.
func (r *groupResult) control(log []int64) []int64 {
	short := int64(0)
	if r.short {
		short = 1
	}
	return append(append(make([]int64, 0, 3+len(log)), elStatusReady, int64(r.contributors), short), log...)
}

// sendResult sends a ready result to rank to: ctl on the iteration's
// offset off, the aggregate on the next. The GG's replies and the Leader's
// broadcast both send through here; awaitResult reads what it sends.
func sendResult(ep transport.Endpoint, to, iter, off int, ctl []int64, agg *sparse.Vector) error {
	if err := ep.Send(to, wire.Control(iterTag(iter, off), ctl...)); err != nil {
		return err
	}
	return ep.Send(to, wire.SparseMsg(iterTag(iter, off+1), agg))
}

// awaitResult reads what src sent through sendResult on the iteration's
// offset off, checking the control's length, status word and contributor
// count before it uses a field, and keeps the rejoin log a reply of either
// status carries. ready is false with a nil error on a "not ready" status.
func (w *elasticWorker) awaitResult(src, iter, off, dim int) (res groupResult, ready bool, err error) {
	ctl, err := collective.RecvRetry(w.ep, src, iterTag(iter, off), w.pol)
	if err != nil {
		return groupResult{}, false, err
	}
	if err := controlInts(&ctl, 3); err != nil {
		return groupResult{}, false, err
	}
	switch status, n := ctl.Ints[0], ctl.Ints[1]; {
	case status != elStatusReady && status != elStatusNotReady:
		return groupResult{}, false, fmt.Errorf("wlg: rank %d iter %d: status %d from %d: %w",
			w.rank, iter, status, src, collective.ErrPayloadKind)
	case status == elStatusReady && (n < 1 || n > int64(w.cfg.Topo.Size())):
		// ApplyW divides by the count: it lies in [1, every worker].
		return groupResult{}, false, fmt.Errorf("wlg: rank %d iter %d: contributor count %d from %d outside [1, %d]: %w",
			w.rank, iter, n, src, w.cfg.Topo.Size(), collective.ErrPayloadKind)
	}
	w.noteJoins(ctl.Ints[3:])
	if ctl.Ints[0] != elStatusReady {
		return groupResult{}, false, nil
	}
	wm, err := collective.RecvRetry(w.ep, src, iterTag(iter, off+1), w.pol)
	if err != nil {
		return groupResult{}, false, err
	}
	agg, err := collective.SparsePayload(&wm, dim)
	if err != nil {
		return groupResult{}, false, err
	}
	return groupResult{agg, int(ctl.Ints[1]), ctl.Ints[2] != 0}, true, nil
}

// elasticWorker is one rank's state for the fail-survive protocol.
type elasticWorker struct {
	ep      transport.Endpoint
	cfg     Config
	rank    int
	node    int
	gg      int
	members []int // all ranks of this node, rank order (election order)
	tr      *membership.Tracker
	pol     collective.RetryPolicy
	codec   exchange.Codec
	acc     *sparse.Accumulator // the Leader's node-sum scratch
	skipped int64
	short   int64
	// joinLog is the newest copy of the GG's rejoin log (see rejoin.go):
	// flattened (rank, joinIter, incarnation) triples applied at
	// iteration boundaries so every rank re-admits a rejoiner at the
	// same iteration. Quarantine evidence rides the same log as
	// membership.QuarantineLogEntry triples (negative first element).
	joinLog []int64
	// screen is the contribution screen (nil when Config.Screen is off).
	// Every rank carries one — Leaders score gathered member
	// contributions with it, every rank self-observes its own encoded
	// contribution to keep a baseline for probation, and a quarantined
	// rank judges its self-probes against that baseline.
	screen *watchdog.Screen
	// selfQuar is set by applyJoins when the log indicts THIS rank's
	// current incarnation; cleared when probation earns a new one.
	selfQuar  bool
	flagged   int64
	selfQuars int
	// quorumTol is the robust tolerance f: once MORE than quorumTol ranks
	// are quarantined in this view, the trim can no longer out-vote the
	// remaining poison and the run aborts (watchdog.ErrQuorumLost, exit 6
	// in psra-worker). -1 disables the bound (mean aggregation). The bound
	// counts RANKS against the GG's node-granular tolerance, which is
	// conservative: it aborts no later than a node-exact bound would.
	quorumTol int
}

// runWorkerElastic executes the elastic worker loop. The returned RunInfo
// reflects THIS rank's final membership view; the error is non-nil only
// for unrecoverable failures (the GG gone, the fabric closed, recovery
// budgets exhausted) — peer deaths are absorbed, not returned.
func runWorkerElastic(ep transport.Endpoint, cfg Config, f WorkerFuncs) (*RunInfo, error) {
	topo := cfg.Topo
	rank := ep.Rank()
	codec, err := cfg.codec()
	if err != nil {
		return nil, fmt.Errorf("wlg: %w", err)
	}
	spec, err := collective.ResolveAgg(cfg.Aggregator, cfg.TrimF)
	if err != nil {
		return nil, fmt.Errorf("wlg: %w", err)
	}
	w := &elasticWorker{
		ep:        ep,
		cfg:       cfg,
		rank:      rank,
		node:      topo.NodeOf(rank),
		gg:        GGRank(topo),
		members:   topo.WorkersOf(topo.NodeOf(rank)),
		tr:        membership.NewTracker(topo.Size()),
		pol:       cfg.retry,
		codec:     codec,
		acc:       sparse.NewAccumulator(0),
		screen:    watchdog.NewScreen(cfg.Screen, topo.Size()),
		quorumTol: spec.Tolerance(topo.Nodes),
	}
	// Elastic retries converge on shared targets (a dead Leader, the GG);
	// decorrelated jitter spreads the survivors' attempts instead of
	// letting them thunder the transport in lockstep.
	w.pol.Jitter = true
	info := func() *RunInfo {
		return &RunInfo{
			Epoch:           w.tr.Epoch(),
			LiveWorkers:     w.tr.LiveCount(),
			Skipped:         w.skipped,
			ShortRounds:     w.short,
			Flagged:         w.flagged,
			SelfQuarantines: w.selfQuars,
		}
	}
	// Tell the GG this rank is finished on every exit path — including
	// give-ups — so its done-or-dead accounting never waits on a rank that
	// will stay silent. The farewell is ack'd and re-sent on loss (the GG
	// treats duplicates idempotently): a dropped farewell must not strand
	// the GG. A failed farewell means the GG itself is gone, which is moot.
	defer func() {
		_ = collective.SendAck(ep, w.gg, wire.Control(tagElControl, elKindDone, int64(w.node), 0, 0), w.pol)
	}()

	startIter := cfg.StartIter
	if cfg.Rejoin {
		// A returning incarnation first obtains its grant: the join
		// iteration, the dead set, and (when available) a warm start. A
		// grant at or past MaxIter degenerates to zero iterations and an
		// immediate farewell — still a clean exit.
		joinIter, err := w.rejoinStart(f)
		if err != nil {
			return info(), err
		}
		startIter = joinIter
	}

	// A rank that rejoined starts with a clean top-k residual by
	// construction (the State is created fresh for the new incarnation).
	st := exchange.NewState(cfg.Codec, cfg.CodecBudgetBytes)

	var dense []float64 // the densified aggregate handed to ApplyW
	wd := newWatch(cfg, rank)
	for iter := startIter; iter < cfg.MaxIter; iter++ {
		raw := f.ComputeW(iter)
		// Divergence is not a membership fact: a poisoned contribution (or
		// aggregate, below) is an unrecoverable per-rank error that tears
		// the run down — the elastic machinery only absorbs peer deaths.
		if err := wd.checkOwn(iter, raw); err != nil {
			return info(), err
		}
		// A fresh vector per round, unlike the fail-stop loop's reused one:
		// a fabric that reorders may still hold last round's frame, which
		// must not be rewritten under it.
		own := sparse.FromDense(raw)
		encodeContribution(codec, st, own)
		// Self-observe the encoded contribution: the baseline this builds
		// is what a quarantined incarnation's probation judges its
		// self-probes against. Flagged observations never enter the
		// baseline, so a compromise cannot drag its own baseline up.
		w.screen.ObserveSparse(w.rank, own)
		res, err := w.iterate(iter, own)
		if errors.Is(err, errSelfQuarantined) {
			// The log indicts this incarnation. Enter probation: screen
			// local probes until watchdog.QuarantineRounds consecutive
			// clean ones, then re-enter through the rejoin handshake as a
			// fresh incarnation (or run out the clock and exit degraded).
			w.selfQuars++
			joinIter, perr := w.probation(iter, f)
			if perr != nil {
				return info(), perr
			}
			// The new incarnation starts with a clean error-feedback
			// residual, like any other rejoiner.
			st = exchange.NewState(cfg.Codec, cfg.CodecBudgetBytes)
			iter = joinIter - 1
			continue
		}
		if err != nil {
			return info(), err
		}
		dense = res.w.ToDenseInto(dense)
		if err := wd.checkAgg(iter, dense); err != nil {
			return info(), err
		}
		if res.short {
			w.short++
		}
		f.ApplyW(iter, dense, res.contributors)
	}
	return info(), nil
}

// iterate runs one elastic iteration: elect the node's Leader, follow the
// member or Leader path, and recover through the GG when the Leader is
// lost mid-round. Each cycle either returns a result or strictly narrows
// the world (a death observed) or burns one bounded recovery attempt.
func (w *elasticWorker) iterate(iter int, own *sparse.Vector) (groupResult, error) {
	for cycle := 0; cycle < elasticCycles; cycle++ {
		// Fold the rejoin log in BEFORE electing — on every cycle, not
		// just at iteration entry, because a recover reply inside this
		// loop may have just delivered the entry (e.g. the proof that the
		// Leader this rank keeps waiting on died and will only be back at
		// a later iteration). Every rank that holds the log sees the same
		// world for the same iteration.
		w.applyJoins(iter)
		if w.selfQuar {
			return groupResult{}, errSelfQuarantined
		}
		if w.quorumTol >= 0 && w.tr.QuarantinedCount() > w.quorumTol {
			return groupResult{}, &watchdog.QuorumError{Quarantined: w.tr.QuarantinedCount(), F: w.quorumTol}
		}
		leader := w.tr.FirstLive(w.members)
		if leader < 0 { // self is alive in its own view; defensive only
			return groupResult{}, fmt.Errorf("wlg: rank %d iter %d: node %d has no live ranks", w.rank, iter, w.node)
		}
		if leader == w.rank {
			return w.leadIterate(iter, own)
		}

		// Member path: hand the contribution to the Leader, wait for the
		// aggregate. A re-sent contribution (same Leader after a recover
		// miss) sits unconsumed under the iteration-scoped tag — harmless.
		if err := w.ep.Send(leader, wire.SparseMsg(iterTag(iter, offElMemberW), own)); err != nil {
			if _, down := w.tr.Observe(err); down {
				continue // Leader died: re-elect
			}
			return groupResult{}, fmt.Errorf("wlg: rank %d iter %d send to leader %d: %w", w.rank, iter, leader, err)
		}
		res, ready, err := w.awaitResult(leader, iter, offElBcCtl, own.Dim)
		if ready {
			return res, nil
		}
		if _, down := w.tr.Observe(err); err != nil && !down && !errors.Is(err, collective.ErrUnavailable) {
			return groupResult{}, fmt.Errorf("wlg: rank %d iter %d await leader %d: %w", w.rank, iter, leader, err)
		}

		// The Leader is dead or silent. If it completed the round before
		// vanishing the GG has the result cached; a miss proves nobody in
		// the node has it, so re-electing and re-running is safe.
		res, hit, err := w.recoverFromGG(iter, own.Dim)
		if err != nil {
			return groupResult{}, err
		}
		if hit {
			return res, nil
		}
	}
	return groupResult{}, fmt.Errorf("wlg: rank %d iter %d: no result after %d recovery cycles: %w",
		w.rank, iter, elasticCycles, collective.ErrUnavailable)
}

// leadIterate is the Leader path: gather the live members' contributions,
// contribute the node sum to the GG, broadcast the group aggregate back.
// Each live member gets the full retry budget; one that stays silent
// through it is skipped for the round.
func (w *elasticWorker) leadIterate(iter int, own *sparse.Vector) (groupResult, error) {
	w.acc.Reset(own.Dim)
	w.acc.Add(own)
	count := 1
	for _, m := range w.tr.Live(w.members) {
		if m == w.rank {
			continue
		}
		msg, err := collective.RecvRetry(w.ep, m, iterTag(iter, offElMemberW), w.pol)
		if err != nil {
			if _, down := w.tr.Observe(err); down {
				continue // dead: excluded from this round
			}
			if errors.Is(err, collective.ErrUnavailable) {
				// Alive but silent: skip the contribution, never prune.
				// The member still receives the broadcast below (messages
				// queue), so it is only stale, not stuck.
				w.skipped++
				continue
			}
			return groupResult{}, fmt.Errorf("wlg: leader %d iter %d gather from %d: %w", w.rank, iter, m, err)
		}
		sv, err := collective.SparsePayload(&msg, own.Dim)
		if err != nil {
			return groupResult{}, fmt.Errorf("wlg: leader %d iter %d gather from %d: %w", w.rank, iter, m, err)
		}
		if w.screen.ObserveSparse(m, sv) {
			// An outlier stays out of the node sum and its count; reaching
			// the strike limit quarantines the member — locally at once
			// (this gather and every later one excludes it), globally
			// through the evidence published below.
			w.flagged++
			if w.screen.Strikes(m) >= w.screen.StrikeLimit() {
				w.tr.Quarantine(m)
			}
			continue
		}
		w.acc.Add(sv)
		count++
	}
	if w.screen != nil {
		w.reportQuarantines(iter)
	}

	res, err := w.contribute(iter, w.acc.Sum(), count)
	if err != nil {
		return groupResult{}, err
	}

	// Broadcast to every live member — including skipped ones, whose late
	// contributions stay unconsumed. A failed send is death evidence. The
	// control forwards the GG's verdict and the rejoin log, so members
	// that only ever talk to their Leader still learn about granted
	// rejoins in time.
	bc := res.control(w.joinLog)
	for _, m := range w.tr.Live(w.members) {
		if m == w.rank {
			continue
		}
		if err := sendResult(w.ep, m, iter, offElBcCtl, bc, res.w); err != nil {
			w.tr.Observe(err)
		}
	}
	return res, nil
}

// contribute sends the node sum to the GG and awaits the group reply,
// re-contributing on a lost exchange or a "not ready" reply (the GG
// deduplicates by node, so at-least-once is safe). A "not ready" reply on
// this tag answers a recover request this rank made as a member earlier
// in the round, before it was elected Leader.
func (w *elasticWorker) contribute(iter int, sum *sparse.Vector, count int) (groupResult, error) {
	for attempt := 0; attempt < recontributeCap; attempt++ {
		if err := w.ep.Send(w.gg, wire.Control(tagElControl, elKindContribute, int64(w.node), int64(iter), int64(count))); err != nil {
			return groupResult{}, fmt.Errorf("wlg: leader %d iter %d contribute: %w", w.rank, iter, err)
		}
		if err := w.ep.Send(w.gg, wire.SparseMsg(iterTag(iter, offElGGW), sum)); err != nil {
			return groupResult{}, fmt.Errorf("wlg: leader %d iter %d contribute payload: %w", w.rank, iter, err)
		}
		res, ready, err := w.awaitResult(w.gg, iter, offElReplyCtl, sum.Dim)
		if ready {
			return res, nil
		}
		if err != nil && !errors.Is(err, collective.ErrUnavailable) {
			return groupResult{}, fmt.Errorf("wlg: leader %d iter %d GG reply: %w", w.rank, iter, err)
		}
	}
	return groupResult{}, fmt.Errorf("wlg: leader %d iter %d: GG unresponsive after %d contributions: %w",
		w.rank, iter, recontributeCap, collective.ErrUnavailable)
}

// recoverFromGG asks the GG for the cached (iter, node) result. hit=false
// with a nil error means the round was never flushed (or the reply was
// lost): the caller re-elects and retries.
func (w *elasticWorker) recoverFromGG(iter, dim int) (res groupResult, hit bool, err error) {
	if err := w.ep.Send(w.gg, wire.Control(tagElControl, elKindRecover, int64(w.node), int64(iter), 0)); err != nil {
		return groupResult{}, false, fmt.Errorf("wlg: rank %d iter %d recover: %w", w.rank, iter, err)
	}
	// A lost request or reply is a miss: the caller re-requests, and the
	// cache serves repeatedly.
	res, hit, err = w.awaitResult(w.gg, iter, offElReplyCtl, dim)
	if err != nil && !errors.Is(err, collective.ErrUnavailable) {
		return groupResult{}, false, fmt.Errorf("wlg: rank %d iter %d recover reply: %w", w.rank, iter, err)
	}
	return res, hit, nil
}

// runGGElastic is the elastic Group Generator: an any-source control loop
// that batches node contributions into groups, caches every flushed
// result for recovery, and terminates when every worker rank is done or
// dead.
func runGGElastic(ep transport.Endpoint, cfg Config) error {
	topo := cfg.Topo
	threshold := cfg.threshold()
	tr := membership.NewTracker(topo.Size())
	// The GG's policy stays deterministic (no jitter): its worst-case
	// block — waiting out a dead Leader's never-arriving payload — must
	// stay strictly shorter than a live Leader's total re-contribution
	// budget, or Leaders would exhaust recontributeCap against a GG that
	// is merely busy. A jittered attempt waits at least half the
	// deterministic delay, so recontributeCap (4) jittered worker budgets
	// still cover one deterministic GG budget twice over; a jittered GG
	// budget could stretch to several times the deterministic one and
	// break that margin — which is exactly what jitter's clamp prevents on
	// the side that retries, not the side others wait behind.
	pol := cfg.retry
	rj := newGGRejoin(tr, topo.Size(), cfg.StartIter)
	// The GG is the single combine point of the elastic topology, which is
	// exactly what a robust (non-associative) aggregator needs: the
	// aggregator is applied here, at node granularity, over the node sums of
	// one group. Leaders still SUM their members — the screen, not the
	// statistic, is the intra-node defense — so the trim bound is on nodes.
	spec, err := collective.ResolveAgg(cfg.Aggregator, cfg.TrimF)
	if err != nil {
		return fmt.Errorf("wlg: %w", err)
	}
	var ws collective.Workspace // the flush's combine scratch
	var srcs []*sparse.Vector
	dim := -1 // learned from the first contribution; every later one must match
	type entry struct {
		node, leader int
		w            *sparse.Vector
		count        int64
	}
	type key struct{ iter, node int }
	queues := make(map[int][]*entry)    // iteration → GQ (arrival order, sorted at flush)
	cache := make(map[key]*groupResult) // flushed results, the recovery source
	done := make([]bool, topo.Size())

	// nodeActive: some rank of the node may still contribute for an
	// iteration — alive, not done, and (for a rejoined incarnation) past
	// its join boundary, so a revival never blocks a remainder group from
	// an iteration the rejoiner will not participate in. allDone: nobody
	// will ever talk to the GG again (a revived, not-yet-done rank keeps
	// the GG serving until the rejoiner's own farewell).
	nodeActive := func(n, iter int) bool {
		for _, r := range topo.WorkersOf(n) {
			if !done[r] && tr.Alive(r) && rj.activeAt(r, iter) {
				return true
			}
		}
		return false
	}
	allDone := func() bool {
		for r := 0; r < topo.Size(); r++ {
			// A quarantined rank is excluded from aggregation but NOT done:
			// it is probing locally and will either announce a rejoin or
			// send its farewell. Counting it as gone would let the GG exit
			// while the victim's re-admission handshake is still coming.
			if !done[r] && (tr.Alive(r) || tr.Quarantined(r)) {
				return false
			}
		}
		return true
	}
	// nodeLost: some node of the world has no rank left that serves the
	// iteration (each is dead, quarantined, or a rejoiner not yet at its
	// join boundary). No group hears from such a node, so its loss shows
	// in no group's count.
	nodeLost := func(iter int) bool {
	nodes:
		for n := 0; n < topo.Nodes; n++ {
			for _, r := range topo.WorkersOf(n) {
				if tr.Alive(r) && rj.activeAt(r, iter) {
					continue nodes
				}
			}
			return true
		}
		return false
	}
	reply := func(to, iter int, res *groupResult) {
		if err := sendResult(ep, to, iter, offElReplyCtl, res.control(rj.log), res.w); err != nil {
			tr.Observe(err) // a dead Leader's successor recovers from the cache
		}
	}
	flush := func(iter int, q []*entry) {
		// Arrival decided who is in the group; node id decides the order
		// its entries are summed in, so the aggregate's bits do not depend
		// on which Leader reached the GG first.
		slices.SortFunc(q, func(a, b *entry) int { return a.node - b.node })
		cnt := q[0].count
		for _, e := range q[1:] {
			cnt += e.count
		}
		// CombineSparse yields the sum under the mean and center × len(q)
		// over the union support otherwise; the workers' ApplyW divides by
		// cnt = Σ counts, so with near-uniform node sizes a robust consensus
		// lands on the robust center of the per-worker contributions. The
		// round is short when the group's nodes sent fewer workers than
		// they hold, or when some node of the world is gone.
		srcs = srcs[:0]
		for _, e := range q {
			srcs = append(srcs, e.w)
		}
		res := &groupResult{
			w:            ws.CombineSparse(spec, dim, srcs, nil),
			contributors: int(cnt),
			short:        cnt < int64(len(q)*topo.WorkersPerNode) || nodeLost(iter),
		}
		rj.noteFlush(iter, res.w, cnt)
		for _, e := range q {
			cache[key{iter, e.node}] = res
		}
		for _, e := range q {
			reply(e.leader, iter, res)
		}
	}
	accounted := func(iter, node int) bool {
		if _, ok := cache[key{iter, node}]; ok {
			return true
		}
		for _, e := range queues[iter] {
			if e.node == node {
				return true
			}
		}
		return false
	}
	maybeFlush := func(iter int) {
		for len(queues[iter]) >= threshold {
			q := queues[iter]
			queues[iter] = q[threshold:]
			flush(iter, q[:threshold])
		}
		if len(queues[iter]) == 0 {
			delete(queues, iter)
			return
		}
		// The remainder group flushes once no unaccounted node can still
		// contribute — the elastic version of "every node has reported".
		for n := 0; n < topo.Nodes; n++ {
			if nodeActive(n, iter) && !accounted(iter, n) {
				return
			}
		}
		q := queues[iter]
		delete(queues, iter)
		flush(iter, q)
	}
	// A death or a farewell can complete the "nobody else will report"
	// condition of any pending remainder, so re-check them all.
	recheck := func() {
		for iter := range queues {
			maybeFlush(iter)
		}
	}

	// ownRound refuses a contribution or recovery request for a node the
	// sender does not belong to or an iteration outside the run: either
	// would reach the rejoin boundary (maxSeen+2) and the result cache.
	ownRound := func(what string, from, node, iter int) error {
		if node < 0 || node >= topo.Nodes || topo.NodeOf(from) != node {
			return fmt.Errorf("wlg: GG %s from %d for node %d, which it does not belong to: %w",
				what, from, node, collective.ErrPayloadKind)
		}
		if iter < cfg.StartIter || iter >= cfg.MaxIter {
			return fmt.Errorf("wlg: GG %s from node %d for iteration %d outside [%d, %d): %w",
				what, node, iter, cfg.StartIter, cfg.MaxIter, collective.ErrPayloadKind)
		}
		return nil
	}

	for !allDone() {
		m, err := ep.Recv(transport.AnySource, tagElControl)
		if err != nil {
			if _, down := tr.Observe(err); down {
				recheck()
				continue
			}
			return fmt.Errorf("wlg: GG recv: %w", err)
		}
		if len(m.Ints) != 4 {
			return fmt.Errorf("wlg: GG malformed elastic request from %d", m.From)
		}
		kind, node, iter, count := m.Ints[0], int(m.Ints[1]), int(m.Ints[2]), m.Ints[3]
		from := int(m.From)
		switch kind {
		case elKindDone:
			done[from] = true
			// Acknowledge so the sender's SendAck stops re-sending;
			// duplicates from lost acks land here again, idempotently.
			if err := ep.Send(from, wire.Control(collective.AckTag(tagElControl), 0)); err != nil {
				tr.Observe(err)
			}
			recheck()
		case elKindContribute:
			if err := ownRound("contribution", from, node, iter); err != nil {
				return err
			}
			// The Leader's count is its own plus its gathered members'.
			if count < 1 || count > int64(topo.WorkersPerNode) {
				return fmt.Errorf("wlg: GG contribution from %d for node %d of %d workers: %w",
					from, node, count, collective.ErrPayloadKind)
			}
			rj.observe(iter)
			// The node sum follows on the per-iteration tag; per-sender
			// ordering pairs it with this control. A lost payload drops
			// the contribution — the Leader re-contributes.
			wm, err := collective.RecvRetry(ep, from, iterTag(iter, offElGGW), pol)
			if err != nil {
				if _, down := tr.Observe(err); !down && !errors.Is(err, collective.ErrUnavailable) {
					return fmt.Errorf("wlg: GG contribution payload from %d: %w", from, err)
				}
				recheck()
				continue
			}
			sv, err := collective.SparsePayload(&wm, dim)
			if err != nil {
				return fmt.Errorf("wlg: GG contribution payload from %d: %w", from, err)
			}
			dim = sv.Dim
			if res, ok := cache[key{iter, node}]; ok {
				reply(from, iter, res) // already flushed: serve the cache
				continue
			}
			replaced := false
			for _, e := range queues[iter] {
				if e.node == node {
					// A re-elected (or retrying) Leader supersedes the
					// node's queued entry — never a double count.
					e.leader, e.w, e.count = from, sv, count
					replaced = true
					break
				}
			}
			if !replaced {
				queues[iter] = append(queues[iter], &entry{node: node, leader: from, w: sv, count: count})
			}
			maybeFlush(iter)
		case elKindQuarantine:
			// A Leader's screen evidence: Ints = [kind, victim, iter, inc].
			// noteQuarantine applies it idempotently (incarnation-guarded,
			// ignored for dead/already-quarantined/reincarnated ranks) and
			// appends the log triple every live rank folds in; a fresh
			// quarantine can complete a pending remainder group's "nobody
			// else will report" condition, hence the recheck.
			victim := node
			if victim < 0 || victim >= topo.Size() {
				return fmt.Errorf("wlg: GG quarantine evidence for invalid rank %d from %d", victim, from)
			}
			if rj.noteQuarantine(victim, iter, int(count)) {
				recheck()
			}
		case elKindRecover:
			if err := ownRound("recovery request", from, node, iter); err != nil {
				return err
			}
			rj.observe(iter)
			if res, ok := cache[key{iter, node}]; ok {
				reply(from, iter, res)
			} else if err := ep.Send(from, wire.Control(iterTag(iter, offElReplyCtl), append([]int64{elStatusNotReady, 0, 0}, rj.log...)...)); err != nil {
				tr.Observe(err)
			}
		case elKindRejoin:
			// A returning incarnation of rank `from`. admit is idempotent
			// for duplicates (loss-driven re-announces, fabric-duplicated
			// frames): the same grant is re-served and no second
			// incarnation is minted. Only a FRESH grant clears the done
			// flag — a duplicated announce straggling in after the
			// rejoiner's farewell must not resurrect the done accounting,
			// or the GG would wait forever for a second farewell.
			grant, fresh := rj.admit(from)
			if fresh {
				done[from] = false
			}
			if err := ep.Send(from, wire.Control(tagElRejoinReply, rj.grantInts(grant)...)); err != nil {
				tr.Observe(err)
				recheck()
				continue
			}
			if grant.warm != nil {
				if err := ep.Send(from, wire.SparseMsg(tagElRejoinW, grant.warm)); err != nil {
					tr.Observe(err)
					recheck()
				}
			}
		default:
			return fmt.Errorf("wlg: GG unknown elastic request kind %d from %d", kind, m.From)
		}
	}
	return nil
}
