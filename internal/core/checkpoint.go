package core

import (
	"errors"
	"fmt"

	"psrahgadmm/internal/checkpoint"
	"psrahgadmm/internal/exchange"
	"psrahgadmm/internal/sparse"
)

// Checkpoint/resume for the in-process engine: the crash-recovery half of
// the failure model. Every k iterations the engine serializes the full
// resumable state — (iter, ρ, every worker's (x, y, z), z_prev, the
// membership view, the virtual-clock totals, and any strategy-private
// scalars — into one exchange.Snapshot blob and hands it to the store.
// A resumed run restores all of it before the loop and continues from the
// snapshot's iteration.
//
// Exactness contract: under BSP every collective completes inside its
// round, so a snapshot at an iteration boundary is the COMPLETE state and
// a resumed run's history is bit-identical to the uninterrupted run from
// that iteration on (resume_test.go asserts this). Under SSP/async the
// in-flight pending computations are deliberately not serialized: a
// resumed run restarts them from the snapshot's clocks, which perturbs
// admission order — resume is then a warm start, not a replay.

// CheckpointOptions configures periodic snapshots for Run.
type CheckpointOptions struct {
	// Store persists the snapshot blobs (checkpoint.NewDirStore for
	// crash-safe files, checkpoint.MemStore for tests).
	Store checkpoint.Store
	// Every saves a snapshot after each k-th iteration; 0 defaults to 10.
	Every int
	// Resume loads the store's latest snapshot before the first
	// iteration and continues from it. A missing snapshot is not an
	// error — the run simply starts fresh (so one flag serves both the
	// first launch and every restart).
	Resume bool
}

func (c *CheckpointOptions) interval() int {
	if c.Every > 0 {
		return c.Every
	}
	return 10
}

// buildSnapshot captures the state a run must restore to continue from
// nextIter. Dead workers' state is captured too — it is frozen at their
// last applied update and harmless, and keeping every rank makes the
// format independent of who died when.
//
// The snapshot ALIASES zPrev and every worker's x, y and sparse z: it is
// built between rounds, when nothing writes them, and saveCheckpoint has
// encoded it before the loop moves on. It must not outlive that.
func buildSnapshot(cfg Config, env *strategyEnv, strat ConsensusStrategy, nextIter int, zPrev []float64, res *Result) *exchange.Snapshot {
	snap := &exchange.Snapshot{
		Algorithm:  string(cfg.Algorithm),
		Iter:       int32(nextIter),
		Rho:        cfg.Rho,
		Epoch:      int32(env.members.Epoch()),
		ZPrev:      zPrev,
		TotalCal:   res.TotalCalTime,
		TotalComm:  res.TotalCommTime,
		TotalBytes: res.TotalBytes,
	}
	for _, r := range env.members.Dead() {
		snap.Dead = append(snap.Dead, int32(r))
	}
	// The one strategy scalar, when the strategy keeps it: star, flat and
	// ring after any round; tree and group-local (which rebuild everything
	// from the workers each round) never, so they write none.
	if b := strat.frame().busyUntil; b != 0 {
		snap.Strategy = []float64{b}
	}
	snap.Workers = make([]exchange.WorkerSnap, 0, len(env.ws))
	for _, w := range env.ws {
		snap.Workers = append(snap.Workers, w.snap())
	}
	return snap
}

// snap is the worker's PSCK record. z travels once, as the sparse view
// (restore rebuilds zA from it), so ZDense stays empty. The record aliases
// the worker's slices (see buildSnapshot).
func (w *worker) snap() exchange.WorkerSnap {
	return exchange.WorkerSnap{
		Rank:     int32(w.rank),
		Clock:    w.clock,
		CalTotal: w.calTotal,
		XA:       w.xA,
		YA:       w.yA,
		ZIdx:     w.zSparse.Index,
		ZVal:     w.zSparse.Value,
	}
}

// restore loads a record checkSnap accepted, copying INTO xA and yA (the
// solver aliases yA). keepZ copies the sparse view and refreshes zA from
// it; a dense copy of the subscription written alongside it (ZDense, earlier
// builds) says nothing more and is not read.
func (w *worker) restore(s *exchange.WorkerSnap) {
	copy(w.xA, s.XA)
	copy(w.yA, s.YA)
	w.keepZ(&sparse.Vector{Dim: w.dim, Index: s.ZIdx, Value: s.ZVal})
	w.clock = s.Clock
	w.calTotal = s.CalTotal
}

func saveCheckpoint(ck *CheckpointOptions, cfg Config, env *strategyEnv, strat ConsensusStrategy, nextIter int, zPrev []float64, res *Result) error {
	return ck.Store.Save(exchange.EncodeSnapshot(buildSnapshot(cfg, env, strat, nextIter, zPrev, res)))
}

// restoreCheckpoint loads the store's snapshot (if any) into the run's
// state and returns the iteration to continue from — 0 when the store is
// empty. It validates that the snapshot matches this run's algorithm,
// world size, and per-worker shapes: resuming onto a different config or
// dataset is an error, not silent corruption.
func restoreCheckpoint(ck *CheckpointOptions, cfg *Config, env *strategyEnv, strat ConsensusStrategy, zPrev []float64, res *Result) (int, error) {
	if ck.Store == nil {
		return 0, nil
	}
	snap, ok, err := loadSnapshot(ck.Store)
	if !ok {
		return 0, err
	}
	return applySnapshot(snap, cfg, env, strat, zPrev, res, true)
}

// rollbackToSnapshot is the mid-run variant of restoreCheckpoint, used when
// the watchdog trips: the last good snapshot's numeric state (iterates,
// z_prev, ρ, strategy scalars, virtual-clock totals) is restored, but the
// CURRENT membership view is kept — deaths observed since the snapshot are
// monotone facts (those endpoints are closed) and must not be resurrected
// by a numeric rollback. It returns the iteration to replay from and ok =
// false when the store holds no snapshot to roll back to.
func rollbackToSnapshot(ck *CheckpointOptions, cfg *Config, env *strategyEnv, strat ConsensusStrategy, zPrev []float64, res *Result) (int, bool, error) {
	if ck == nil || ck.Store == nil {
		return 0, false, nil
	}
	snap, ok, err := loadSnapshot(ck.Store)
	if !ok {
		return 0, false, err
	}
	iter, err := applySnapshot(snap, cfg, env, strat, zPrev, res, false)
	return iter, err == nil, err
}

// loadSnapshot decodes the store's snapshot; ok is false when the store
// holds none or it does not decode.
func loadSnapshot(st checkpoint.Store) (snap *exchange.Snapshot, ok bool, err error) {
	blob, ok, err := st.Load()
	if err != nil || !ok {
		return nil, false, err
	}
	snap, err = exchange.DecodeSnapshot(blob)
	return snap, err == nil, err
}

// checkSnap reports how s does not fit this worker. A CRC-valid file is
// still outside input, and keepZ trusts its argument to be a well-formed
// sparse vector inside the rank's subscription.
func (w *worker) checkSnap(s *exchange.WorkerSnap) error {
	width := 0 // the subscription's
	for i := range w.smap.Subs[w.rank] {
		lo, hi := w.sub(i)
		width += hi - lo
	}
	if len(s.XA) != len(w.xA) || len(s.YA) != len(w.yA) || (len(s.ZDense) != 0 && len(s.ZDense) != width) {
		return errors.New("state shape does not match this dataset (or its shard layout)")
	}
	z := sparse.Vector{Dim: w.dim, Index: s.ZIdx, Value: s.ZVal}
	if err := z.Check(); err != nil {
		return fmt.Errorf("z view: %w", err)
	}
	inside := 0
	for i := range w.smap.Subs[w.rank] {
		from, to := z.Range(w.sub(i))
		inside += to - from
	}
	if inside != z.NNZ() {
		return fmt.Errorf("z view: %d of %d entries lie outside the rank's subscription", z.NNZ()-inside, z.NNZ())
	}
	return nil
}

// applySnapshot validates snap against the run and copies its state into
// the live workers, returning the snapshot's iteration. restoreMembers
// additionally restores the membership view (epoch + dead set) — wanted on
// startup resume, forbidden mid-run (see rollbackToSnapshot).
func applySnapshot(snap *exchange.Snapshot, cfg *Config, env *strategyEnv, strat ConsensusStrategy, zPrev []float64, res *Result, restoreMembers bool) (int, error) {
	if snap.Algorithm != string(cfg.Algorithm) {
		return 0, fmt.Errorf("core: snapshot is for algorithm %q, run uses %q", snap.Algorithm, cfg.Algorithm)
	}
	if len(snap.Workers) != len(env.ws) {
		return 0, fmt.Errorf("core: snapshot has %d workers, run has %d", len(snap.Workers), len(env.ws))
	}
	if len(snap.ZPrev) != env.dim {
		return 0, fmt.Errorf("core: snapshot dimension %d, run dimension %d", len(snap.ZPrev), env.dim)
	}
	if len(snap.Strategy) > 1 {
		return 0, fmt.Errorf("core: snapshot carries %d strategy scalars, a strategy keeps at most one", len(snap.Strategy))
	}
	seen := make([]bool, len(env.ws))
	for i := range snap.Workers {
		s := &snap.Workers[i]
		r := int(s.Rank)
		if r < 0 || r >= len(env.ws) || seen[r] {
			return 0, fmt.Errorf("core: snapshot worker %d has invalid rank %d", i, r)
		}
		seen[r] = true
		if err := env.ws[r].checkSnap(s); err != nil {
			return 0, fmt.Errorf("core: snapshot rank %d %w", r, err)
		}
	}
	// Every record is valid: no worker is touched unless all can be.
	for i := range snap.Workers {
		env.ws[snap.Workers[i].Rank].restore(&snap.Workers[i])
	}
	cfg.Rho = snap.Rho
	setRho(env.ws, snap.Rho)
	if restoreMembers {
		dead := make([]int, len(snap.Dead))
		for i, r := range snap.Dead {
			dead[i] = int(r)
		}
		if err := env.members.Restore(int(snap.Epoch), dead); err != nil {
			return 0, err
		}
		env.store.dropCounts()
	}
	strat.frame().busyUntil = 0
	if len(snap.Strategy) == 1 {
		strat.frame().busyUntil = snap.Strategy[0]
	}
	copy(zPrev, snap.ZPrev)
	res.TotalCalTime = snap.TotalCal
	res.TotalCommTime = snap.TotalComm
	res.TotalBytes = snap.TotalBytes
	return int(snap.Iter), nil
}
