package core

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"psrahgadmm/internal/dataset"
	"psrahgadmm/internal/exchange"
	"psrahgadmm/internal/membership"
	"psrahgadmm/internal/simnet"
	"psrahgadmm/internal/solver"
	"psrahgadmm/internal/transport"
	"psrahgadmm/internal/vec"
	"psrahgadmm/internal/watchdog"
)

// corruptRetryCap bounds how many times one iteration's round may be
// retried because a frame failed its integrity check. CRC32C drops are
// independent per frame, so legitimate corruption clears in one or two
// attempts; a link that fails this many rounds in a row is poisoned and
// the run aborts with the corrupt cause instead of spinning.
const corruptRetryCap = 8

// RunOptions carries the optional evaluation inputs of a run.
type RunOptions struct {
	// Test enables per-iteration accuracy reporting.
	Test *dataset.Dataset
	// FStar enables relative-error reporting (paper eq. 18) against a
	// reference optimum, e.g. from ReferenceOptimum.
	FStar float64
	// HaveFStar distinguishes FStar == 0 from "not provided".
	HaveFStar bool
	// OnIteration, when non-nil, observes each IterStat as it is
	// produced (progress reporting in the CLIs).
	OnIteration func(IterStat)
	// Checkpoint, when non-nil, enables periodic snapshots and — with
	// Resume set — restart from the store's latest snapshot. See
	// CheckpointOptions for the exactness contract.
	Checkpoint *CheckpointOptions
	// afterRound, when non-nil, gets the run's environment after each
	// round's stats and before the divergence check: where an in-package
	// test plants state the fault plan cannot express, or checks a round.
	afterRound func(iter int, env *strategyEnv)
}

// Run trains L1-regularized logistic regression on train with the
// configured algorithm and virtual cluster, returning the per-iteration
// history. Runs are deterministic: equal inputs give bit-identical
// histories.
//
// Run contains the ONE iteration loop of the engine. Everything
// algorithm-specific lives behind the strategy triple the registry binds
// to cfg.Algorithm: the ConsensusStrategy executes the round, the
// SyncModel decides admission, and the ExchangeCodec fixes the wire
// format. The loop itself only does bookkeeping every variant shares —
// residuals, evaluation cadence, adaptive penalty, early stopping.
//
// Failure semantics are selected by Config.Elastic:
//
//   - Fail-stop (default): if the communication fabric fails mid-run (a
//     rank killed by Config.Faults, a closed endpoint), Run aborts the
//     iteration, unblocks every worker goroutine, and returns the partial
//     Result accumulated so far ALONGSIDE the error — callers get the
//     history up to the failure instead of a deadlock.
//   - Fail-survive (Elastic): a death is absorbed into the membership
//     view, the failed round retries over the survivors, and the run
//     continues to MaxIter on the shrunken world with the z-update
//     averaging over live shards. Run returns an error only when the
//     failure is not peer loss or no workers survive. Both exit paths set
//     Z, SystemTime, and the membership fields of Result.
func Run(cfg Config, train *dataset.Dataset, opts RunOptions) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.fill()
	if train.Rows() < cfg.Topo.Size() {
		return nil, fmt.Errorf("core: %d rows cannot feed %d workers", train.Rows(), cfg.Topo.Size())
	}
	ax, err := cfg.axes()
	if err != nil { // unreachable after Validate
		return nil, err
	}

	ws := newWorkers(cfg, train)
	// One scratch fabric serves every in-run collective; rank numbering
	// matches the virtual topology so link classes resolve correctly.
	// A fault plan wraps it for deterministic failure injection. Zero-copy
	// is safe here: every collective is barrier-aligned, the workspaces
	// ship only their private chunk scratch, and aborted-round stragglers
	// are tag-matched but never payload-read.
	var fab transport.Fabric = transport.NewChanFabricZeroCopy(cfg.Topo.Size())
	var ffab *transport.FaultFabric
	if cfg.Faults != nil {
		ffab = transport.NewFaultFabric(fab, *cfg.Faults)
		fab = ffab
	}
	defer fab.Close()

	// The membership tracker is the single source of truth for who is
	// alive. Deaths are observed from collective goroutines, so their
	// count (IterStat.PeerDowns) is atomic.
	members := membership.NewTracker(cfg.Topo.Size())
	var peerDowns atomic.Int64
	members.OnDown(func(int, error) { peerDowns.Add(1) })

	env := &strategyEnv{
		ws:      ws,
		fab:     fab,
		codec:   ax.codec,
		sync:    syncModel{ax.sync, cfg.MinBarrier, cfg.MaxDelay},
		dim:     train.Dim(),
		members: members,
		elastic: cfg.Elastic,
		// The aggregator spec rides every PSR/shard collective job as the
		// owner-side combine step.
		agg: ax.agg,
	}
	// The contribution screen (nil when disabled) scores every
	// contribution at the inspect chokepoint; sweep turns its verdicts
	// into membership transitions at iteration boundaries.
	env.screen = watchdog.NewScreen(cfg.Screen, cfg.Topo.Size())
	if f := cfg.Faults; f != nil && len(f.ByzantineAtIteration) > 0 {
		env.byz = make([]byzRank, cfg.Topo.Size())
		for r, bf := range f.ByzantineAtIteration {
			env.byz[r] = byzRank{mode: bf.Mode, from: bf.Iteration, until: bf.Until}
		}
	}
	// The stateStore owns the consensus state's placement — the shard map,
	// the one-block full map when replicated — and allocates every worker's
	// storage under it (see statestore.go).
	env.store = newStateStore(env, ax.sharded, cfg.ShardBlocks)
	// The top-k codecs carry per-rank error-feedback state: the residual
	// of dropped (and quantized-away) mass, merged back before the next
	// selection, plus the adaptive k driven by CodecBudgetBytes. Every
	// other codec leaves states nil, keeping the encode path — and every
	// golden history — byte-identical to the stateless engine.
	if exchange.IsTopK(ax.codec.Kind()) {
		env.states = make([]*exchange.State, cfg.Topo.Size())
		for r := range env.states {
			s := exchange.NewState(ax.codec.Kind(), cfg.CodecBudgetBytes)
			s.DisableErrorFeedback = cfg.codecNoErrorFeedback
			s.AgeScoring = cfg.CodecAgeScoring
			if cfg.CodecTopK > 0 {
				s.K = cfg.CodecTopK
				s.KMin = cfg.CodecTopK
			}
			env.states[r] = s
		}
	}
	// The run's persistent goroutine sets: the compute pool executes
	// x-updates, the crew serves collective membership. Both are created
	// once so steady-state rounds spawn nothing.
	env.pool = newComputePool()
	defer env.pool.close()
	env.crew = newCrew(env)
	defer env.crew.close()
	strat, err := newStrategy(ax.consensus, env, cfg)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", cfg.Algorithm, err)
	}

	// Scheduled kills and rejoins, fired at iteration starts. In elastic
	// mode the death is also recorded in the membership view at the same
	// boundary, making elastic chaos runs deterministic: the rank leaves
	// the world before any collective can race against discovering it. A
	// rejoin is the mirror image: the fabric endpoint reopens, the tracker
	// revives the rank as a new incarnation, and the worker's consensus
	// view warm-starts from the cluster's current iterate — all before the
	// round, so the strategies simply see one more live rank.
	killAt := make(map[int][]int)
	rejoinAt := make(map[int][]int)
	// Corruption and NaN injections share the boundary mechanism but fire
	// at most ONCE per run: the entry is deleted when executed, so a
	// post-rollback replay of the same iteration is not re-poisoned (the
	// whole point of the rollback is to get past the fault).
	corruptAt := make(map[int][]int)
	nanAt := make(map[int][]int)
	if ffab != nil {
		for r, it := range cfg.Faults.KillAtIteration {
			killAt[it] = append(killAt[it], r)
		}
		for r, it := range cfg.Faults.RejoinAtIteration {
			rejoinAt[it] = append(rejoinAt[it], r)
		}
		for r, it := range cfg.Faults.CorruptAtIteration {
			corruptAt[it] = append(corruptAt[it], r)
		}
		for r, it := range cfg.Faults.NaNAtIteration {
			nanAt[it] = append(nanAt[it], r)
		}
		for _, m := range []map[int][]int{killAt, rejoinAt, corruptAt, nanAt} {
			for _, rs := range m {
				sort.Ints(rs)
			}
		}
	}

	res := &Result{Config: cfg, History: make([]IterStat, 0, cfg.MaxIter)}
	// z̄ and its predecessor track their supports and swap every iteration.
	zPrev := &zSummary{z: make([]float64, train.Dim())}
	zbar := &zSummary{z: make([]float64, train.Dim())}

	// finish stamps the shared exit-path fields — on success AND on
	// failure, so a partial Result is never missing Z, SystemTime, or the
	// membership view.
	finish := func() {
		res.SystemTime = res.TotalCalTime + res.TotalCommTime
		alive, counts := members.Alive, env.store.liveCounts()
		if members.LiveCount() == 0 {
			// Nobody is alive: summarize everyone, counted afresh.
			alive = func(int) bool { return true }
			counts = env.store.smap.LiveCounts(nil, alive)
		}
		z := &zSummary{z: make([]float64, env.dim)}
		env.store.assembleInto(z, alive, counts)
		res.Z = z.z
		res.LiveWorkers = members.LiveCount()
		res.Epoch = members.Epoch()
		res.Degraded = res.LiveWorkers < len(ws)
	}
	fail := func(iter int, err error) (*Result, error) {
		finish()
		return res, fmt.Errorf("core: iteration %d: %w", iter, err)
	}

	startIter := 0
	if opts.Checkpoint != nil && opts.Checkpoint.Resume {
		startIter, err = restoreCheckpoint(opts.Checkpoint, &cfg, env, strat, zPrev.z, res)
		if err != nil {
			return nil, fmt.Errorf("core: resume: %w", err)
		}
		zPrev.rescan()
		// Replay scheduled kills and rejoins that predate the snapshot, in
		// iteration order, so the fabric agrees with the restored
		// membership view (a rank killed then revived must end up open).
		for it := 0; it < startIter; it++ {
			for _, r := range killAt[it] {
				ffab.Kill(r)
			}
			for _, r := range rejoinAt[it] {
				ffab.Revive(r)
			}
		}
	}

	// The divergence watchdog (nil when disabled) plus rollback
	// bookkeeping. histBase maps History indices to iterations: entry i is
	// iteration startIter+i, which a rollback's truncation must respect on
	// resumed runs.
	wd := watchdog.New(cfg.Watchdog)
	rollbacks := 0
	histBase := startIter

	// A round that fails because peers died is retried over the survivors
	// (elastic mode only). Each death shrinks the world by one, and a
	// retry can surface at most one fresh death per observing member, so
	// 2·world+4 attempts bounds any real cascade; hitting the cap means
	// the round is failing for a reason retries cannot fix.
	retryCap := 2*cfg.Topo.Size() + 4
	// Bound the liveness predicate once: a per-iteration members.Alive
	// method value would heap-allocate a closure on the steady-state path
	// the bench snapshot pins at zero.
	isAlive := members.Alive
	for iter := startIter; iter < cfg.MaxIter; iter++ {
		env.curIter = iter
		for _, r := range killAt[iter] {
			ffab.Kill(r)
			if cfg.Elastic {
				members.MarkDown(r, &transport.PeerDownError{Peer: r, Cause: errScheduledKill})
			}
		}
		for _, r := range rejoinAt[iter] {
			if members.Alive(r) {
				continue // e.g. a KillAfterSends trigger that never fired
			}
			ffab.Revive(r)
			env.readmit(r, zPrev.z)
			members.MarkUp(r)
		}
		if env.reconciles() && members.LiveCount() == 0 {
			return fail(iter, errors.New("no live workers remain"))
		}
		if rs := corruptAt[iter]; len(rs) > 0 {
			for _, r := range rs {
				ffab.ArmCorrupt(r)
			}
			delete(corruptAt, iter)
		}
		if rs := nanAt[iter]; len(rs) > 0 {
			for _, r := range rs {
				ws[r].poisonNaN = true
			}
			delete(nanAt, iter)
		}

		var timing iterTiming
		lostRetries, corruptRetries := 0, 0
		for {
			var err error
			timing, err = strat.Round(cfg, iter)
			if err == nil {
				break
			}
			if errors.Is(err, errRoundCorrupt) {
				// A checksum-dropped frame is a recoverable loss in ANY
				// failure mode: the fabric is healthy, nobody consumed bad
				// bytes, and a fresh attempt under a new tag window re-ships
				// the round. Bounded so a persistently poisoned link becomes
				// a typed failure instead of an infinite retry.
				if corruptRetries >= corruptRetryCap {
					return fail(iter, fmt.Errorf("giving up after %d corrupt-frame round retries: %w", corruptRetries, err))
				}
				corruptRetries++
				res.CorruptRetries++
				continue
			}
			if !cfg.Elastic || !errors.Is(err, errPeersLost) ||
				members.LiveCount() == 0 || lostRetries >= retryCap {
				// Partial results travel with the error: everything up
				// to the failed iteration is valid history.
				return fail(iter, err)
			}
			lostRetries++
			// Failed attempts charge no virtual time: the simulated
			// cluster's clock models healthy progress, and a retried
			// round re-runs from the reconciled state.
		}

		// Quarantine boundary: probe quarantined ranks (possibly readmitting
		// them), quarantine live ranks the screen indicts,
		// and enforce the robust quorum bound — all BEFORE this iteration's
		// stats, so LiveWorkers, the assembled z̄, and the objective reflect
		// the post-transition world.
		if env.screen != nil {
			if qerr := env.sweep(cfg, iter, zPrev.z, res); qerr != nil {
				return fail(iter, qerr)
			}
		}

		live := env.liveWorkers()
		// Adaptive k: every live rank observes the same round total, so the
		// per-rank states stay in lockstep and selection k is identical
		// across ranks — the property the deterministic-history contract
		// needs.
		if env.states != nil && timing.bytes > 0 {
			for _, w := range live {
				env.states[w.rank].Adapt(timing.bytes)
			}
		}
		stat := IterStat{
			Iter:        iter,
			Objective:   nan(),
			RelError:    nan(),
			Accuracy:    nan(),
			CalTime:     timing.cal,
			CommTime:    timing.comm,
			Bytes:       timing.bytes,
			Rho:         cfg.Rho,
			LiveWorkers: members.LiveCount(),
			Epoch:       members.Epoch(),
			PeerDowns:   peerDowns.Load(),
		}
		// Per-rank consensus-state footprint: max over live ranks, reported
		// every iteration under every sync model.
		var resident int64
		for _, w := range live {
			if rb := w.residentBytes(); rb > resident {
				resident = rb
			}
		}
		stat.ResidentBytes = resident
		env.store.assembleInto(zbar, isAlive, env.store.liveCounts())
		stat.PrimalRes, stat.DualRes = residuals(live, zbar, zPrev, cfg.Rho)
		if iter%cfg.EvalEvery == 0 || iter == cfg.MaxIter-1 {
			stat.Objective = globalObjective(cfg, live, zbar.z)
			// Paper eq. 18: |f − f*| / |f*|. Gate on HaveFStar (f* = 0 is a
			// legitimate optimum for trivially separable data, though the
			// ratio is then undefined and stays NaN).
			if opts.HaveFStar && absf(opts.FStar) != 0 {
				stat.RelError = absf(stat.Objective-opts.FStar) / absf(opts.FStar)
			}
			if opts.Test != nil {
				stat.Accuracy = opts.Test.Accuracy(zbar.z)
			}
		}
		zbar, zPrev = zPrev, zbar
		res.History = append(res.History, stat)
		res.TotalCalTime += timing.cal
		res.TotalCommTime += timing.comm
		res.TotalBytes += timing.bytes
		if opts.OnIteration != nil {
			opts.OnIteration(stat)
		}
		if opts.afterRound != nil {
			opts.afterRound(iter, env)
		}
		// Divergence check BEFORE the adaptive penalty and the checkpoint
		// save: a poisoned iteration must neither steer ρ nor be persisted
		// as a "good" snapshot. The iterate scan runs first — a NaN that a
		// zero gather or a sparse merge masked out of the residuals is still
		// poison in somebody's x/y/z. Scanning the view's stored values is
		// scanning all of z the rank holds: zA is the view's values or +0, and
		// no producer drops a NaN or Inf from the support. The trip names the
		// global coordinate.
		if wd != nil {
			var trip *watchdog.TripError
			for _, w := range live {
				bad := watchdog.ScanNonFinite([]string{"x", "y"}, w.xA, w.yA)
				if bad == "" {
					bad = watchdog.ScanSparse("z", w.zSparse)
				}
				if bad != "" {
					trip = &watchdog.TripError{Iter: iter, Reason: fmt.Sprintf("non-finite iterate on rank %d: %s", w.rank, bad)}
					break
				}
			}
			if trip == nil {
				haveObj := iter%cfg.EvalEvery == 0 || iter == cfg.MaxIter-1
				trip = wd.Observe(iter, stat.PrimalRes, stat.DualRes, stat.Objective, haveObj)
			}
			if trip != nil {
				ck := opts.Checkpoint
				if rollbacks >= watchdog.MaxRollbacks || ck == nil || ck.Store == nil {
					return fail(iter, trip)
				}
				toIter, ok, rerr := rollbackToSnapshot(ck, &cfg, env, strat, zPrev.z, res)
				if rerr != nil {
					return fail(iter, fmt.Errorf("rollback after %v: %w", trip, rerr))
				}
				if !ok {
					return fail(iter, fmt.Errorf("no checkpoint to roll back to: %w", trip))
				}
				zPrev.rescan()
				rollbacks++
				// The snapshot restored iterates, z_prev, ρ, strategy
				// scalars, and the virtual-clock totals; everything derived
				// since is discarded: history past the snapshot, the codec
				// error-feedback residuals (they describe contributions of a
				// timeline that no longer happened), and the watchdog's own
				// baseline (the replay builds a fresh one).
				res.History = res.History[:toIter-histBase]
				if env.states != nil {
					for _, s := range env.states {
						s.Reset()
					}
				}
				wd.Reset()
				res.Rollbacks = append(res.Rollbacks, RollbackEvent{TripIter: iter, ToIter: toIter, Reason: trip.Reason})
				iter = toIter - 1
				continue
			}
		}
		if cfg.AdaptiveRho {
			if newRho := adaptRho(cfg.Rho, stat.PrimalRes, stat.DualRes); newRho != cfg.Rho {
				cfg.Rho = newRho
				setRho(ws, newRho)
			}
		}
		if ck := opts.Checkpoint; ck != nil && ck.Store != nil && (iter+1)%ck.interval() == 0 {
			if err := saveCheckpoint(ck, cfg, env, strat, iter+1, zPrev.z, res); err != nil {
				return fail(iter, fmt.Errorf("checkpoint: %w", err))
			}
		}
		if cfg.Tol > 0 && stat.PrimalRes <= cfg.Tol && stat.DualRes <= cfg.Tol {
			res.Stopped = true
			break
		}
	}
	finish()
	return res, nil
}

func absf(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// ReferenceOptimum computes a tight approximation of the global optimum
// f* = min_x Σ f_i(x) + λ‖x‖₁ by running the exact single-group algorithm
// (one node, one worker per data shard is unnecessary — a single worker
// holding all data suffices) for many iterations with a tight subproblem
// tolerance. Used as the denominator of the paper's relative-error metric.
func ReferenceOptimum(train *dataset.Dataset, rho, lambda float64, iters int) (float64, []float64, error) {
	if iters <= 0 {
		iters = 300
	}
	cfg := Config{
		Algorithm: GCADMM,
		Topo:      simnet.Topology{Nodes: 1, WorkersPerNode: 1},
		Rho:       rho,
		Lambda:    lambda,
		MaxIter:   iters,
		EvalEvery: iters, // only the last evaluation matters
	}
	cfg.Tron.GradTol = 1e-8
	cfg.Tron.MaxIter = 200
	res, err := Run(cfg, train, RunOptions{})
	if err != nil {
		return 0, nil, err
	}
	best := res.FinalObjective()
	// The objective at intermediate iterates can dip below the final
	// evaluation point only through numerical noise; guard by also
	// checking the final z directly and keeping the smaller of the two.
	scratch := make([]float64, train.Dim())
	obj := solver.NewLogisticProx(train.X, train.Labels, rho, scratch, scratch)
	atZ := obj.LocalLoss(res.Z) + lambda*vec.Nrm1(res.Z)
	if isNaN(best) || atZ < best {
		best = atZ
	}
	return best, vec.Clone(res.Z), nil
}
