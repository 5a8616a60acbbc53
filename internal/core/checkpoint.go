package core

import (
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

// resumableStrategy is implemented by consensus strategies carrying
// cross-round scalar state beyond the workers and clocks (the star
// master's next-free time, the ring/flat collective serialization times).
// Strategies without such state — tree and group rebuild everything from
// the workers each round — simply do not implement it.
type resumableStrategy interface {
	stateSnapshot() []float64
	stateRestore(vals []float64) error
}

func scalarRestore(what string, dst []*float64, vals []float64) error {
	if len(vals) != len(dst) {
		return fmt.Errorf("core: %s: want %d strategy scalars, snapshot has %d", what, len(dst), len(vals))
	}
	for i, p := range dst {
		*p = vals[i]
	}
	return nil
}

func (st *starStrategy) stateSnapshot() []float64 { return []float64{st.masterFreeAt} }
func (st *starStrategy) stateRestore(vals []float64) error {
	return scalarRestore("star", []*float64{&st.masterFreeAt}, vals)
}

func (st *flatStrategy) stateSnapshot() []float64 { return []float64{st.lastEnd} }
func (st *flatStrategy) stateRestore(vals []float64) error {
	return scalarRestore("flat", []*float64{&st.lastEnd}, vals)
}

func (st *ringStrategy) stateSnapshot() []float64 { return []float64{st.lastRingEnd} }
func (st *ringStrategy) stateRestore(vals []float64) error {
	return scalarRestore("ring", []*float64{&st.lastRingEnd}, vals)
}

// buildSnapshot captures the state a run must restore to continue from
// nextIter. Dead workers' state is captured too — it is frozen at their
// last applied update and harmless, and keeping every rank makes the
// format independent of who died when.
func buildSnapshot(cfg Config, env *strategyEnv, strat ConsensusStrategy, nextIter int, zPrev []float64, res *Result) *exchange.Snapshot {
	snap := &exchange.Snapshot{
		Algorithm:  string(cfg.Algorithm),
		Iter:       int32(nextIter),
		Rho:        cfg.Rho,
		Epoch:      int32(env.members.Epoch()),
		ZPrev:      append([]float64(nil), zPrev...),
		TotalCal:   res.TotalCalTime,
		TotalComm:  res.TotalCommTime,
		TotalBytes: res.TotalBytes,
	}
	for _, r := range env.members.Dead() {
		snap.Dead = append(snap.Dead, int32(r))
	}
	if rs, ok := strat.(resumableStrategy); ok {
		snap.Strategy = rs.stateSnapshot()
	}
	snap.Workers = make([]exchange.WorkerSnap, 0, len(env.ws))
	for _, w := range env.ws {
		// The z state travels in the layout the rank holds: the compact
		// subscribed-block concatenation (the full dimension replicated).
		// The PSCK format is the same for every placement — only the
		// slice's length differs.
		snap.Workers = append(snap.Workers, exchange.WorkerSnap{
			Rank:     int32(w.rank),
			Clock:    w.clock,
			CalTotal: w.calTotal,
			XA:       append([]float64(nil), w.xA...),
			YA:       append([]float64(nil), w.yA...),
			ZDense:   append([]float64(nil), w.zStore...),
			ZIdx:     append([]int32(nil), w.zSparse.Index...),
			ZVal:     append([]float64(nil), w.zSparse.Value...),
		})
	}
	return snap
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
	blob, ok, err := ck.Store.Load()
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, nil
	}
	snap, err := exchange.DecodeSnapshot(blob)
	if err != nil {
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
	blob, ok, err := ck.Store.Load()
	if err != nil || !ok {
		return 0, false, err
	}
	snap, err := exchange.DecodeSnapshot(blob)
	if err != nil {
		return 0, false, err
	}
	iter, err := applySnapshot(snap, cfg, env, strat, zPrev, res, false)
	if err != nil {
		return 0, false, err
	}
	return iter, true, nil
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
	seen := make([]bool, len(env.ws))
	for i := range snap.Workers {
		s := &snap.Workers[i]
		r := int(s.Rank)
		if r < 0 || r >= len(env.ws) || seen[r] {
			return 0, fmt.Errorf("core: snapshot worker %d has invalid rank %d", i, r)
		}
		seen[r] = true
		w := env.ws[r]
		if len(s.XA) != len(w.xA) || len(s.YA) != len(w.yA) || len(s.ZDense) != len(w.zStore) {
			return 0, fmt.Errorf("core: snapshot rank %d state shape does not match this dataset (or its shard layout)", r)
		}
		if len(s.ZIdx) != len(s.ZVal) {
			return 0, fmt.Errorf("core: snapshot rank %d sparse z index/value length mismatch", r)
		}
		// Copy INTO the existing slices: the worker's solver aliases yA
		// (and zA) — reassigning the slice headers would silently detach
		// the objective from the dual variable. The sparse view is rebuilt
		// fresh.
		copy(w.xA, s.XA)
		copy(w.yA, s.YA)
		copy(w.zStore, s.ZDense)
		w.zSparse = &sparse.Vector{
			Dim:   w.dim,
			Index: append([]int32(nil), s.ZIdx...),
			Value: append([]float64(nil), s.ZVal...),
		}
		w.clock = s.Clock
		w.calTotal = s.CalTotal
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
	}
	if rs, ok := strat.(resumableStrategy); ok {
		if err := rs.stateRestore(snap.Strategy); err != nil {
			return 0, err
		}
	} else if len(snap.Strategy) > 0 {
		return 0, fmt.Errorf("core: snapshot carries %d strategy scalars but %s keeps none", len(snap.Strategy), cfg.Algorithm)
	}
	copy(zPrev, snap.ZPrev)
	res.TotalCalTime = snap.TotalCal
	res.TotalCommTime = snap.TotalComm
	res.TotalBytes = snap.TotalBytes
	return int(snap.Iter), nil
}
