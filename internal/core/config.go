// Package core implements the paper's algorithm family as compositions of
// three orthogonal strategy axes:
//
//   - ConsensusStrategy (strategy.go, consensus_*.go): HOW the aggregate
//     W = Σ(yᵢ + ρxᵢ) is formed and z redistributed — star, ring, flat
//     PSR, staged aggregation tree, group-local.
//   - sync model (syncmodel.go): WHEN a round admits its participants —
//     BSP barrier, SSP partial barrier (Min_barrier/Max_delay), or
//     bounded-delay async.
//   - exchange codec (package exchange): WHAT travels — exact sparse,
//     quantized sparse, top-k, dense fp64, or dense fp32.
//
// Named algorithms are registry entries (registry.go) binding one triple:
// PSRA-HGADMM is (tree, bsp, sparse), ADMMLib is (ring, ssp, dense-f32),
// AD-ADMM is (star, ssp, dense), and so on — see Variants() for the full
// zoo, including compositions the paper's monoliths could not express. A
// registered name is how a run says its composition; Config.Codec and
// Config.Aggregator override one axis value each and inherit when empty.
//
// The engine executes real numerics (TRON subproblem solves, exact sparse
// aggregation through the collective implementations) under a deterministic
// virtual clock from package simnet. Given equal (Config, data), two runs
// produce bit-identical histories.
package core

import (
	"fmt"
	"math"

	"psrahgadmm/internal/collective"
	"psrahgadmm/internal/exchange"
	"psrahgadmm/internal/simnet"
	"psrahgadmm/internal/solver"
	"psrahgadmm/internal/transport"
	"psrahgadmm/internal/watchdog"
)

// Algorithm names one registered consensus-ADMM variant (see registry.go
// for the bindings and Algorithms()/Variants() for enumeration).
type Algorithm string

// The paper's variants plus the registered strategy compositions.
const (
	PSRAHGADMM Algorithm = "psra-hgadmm"
	PSRAADMM   Algorithm = "psra-admm"
	GRADMM     Algorithm = "gr-admm"
	ADMMLib    Algorithm = "admmlib"
	ADADMM     Algorithm = "ad-admm"
	GCADMM     Algorithm = "gc-admm"
	// PSRAHGADMMGroup is the group-local reading of the paper's Algorithms
	// 1–3, which are ambiguous about how far a group's aggregate propagates
	// (see DESIGN.md): one grouping round per iteration, each group computing
	// z from its own members only, so fast groups never wait for slow nodes —
	// the reading Figure 7's straggler isolation requires. PSRAHGADMM is the
	// other one: group partials re-enter the GG queue and merge in a staged
	// tree until W is exact global consensus, which Figure 5's convergence
	// requires.
	PSRAHGADMMGroup Algorithm = "psra-hgadmm-group"
	// PSRAHGADMMSSPQ8 is a composition the monolithic switch could not
	// express: the staged aggregation tree under SSP with an 8-bit
	// quantized sparse exchange.
	PSRAHGADMMSSPQ8 Algorithm = "psra-hgadmm-ssp-q8"
	// PSRAADMMAsync drives the flat PSR-Allreduce asynchronously.
	PSRAADMMAsync Algorithm = "psra-admm-async"
	// GRADMMSSP runs GR-ADMM's sparse Leader ring under ADMMLib's SSP
	// barrier — isolating the codec at identical topology and sync.
	GRADMMSSP Algorithm = "gr-admm-ssp"
	// PSRAHGADMMTopK is the staged aggregation tree with the top-k
	// error-feedback codec: only the k largest-magnitude coordinates of
	// each contribution travel; dropped mass carries into the next round.
	PSRAHGADMMTopK Algorithm = "psra-hgadmm-topk"
	// PSRAHGADMMTopKQ8 composes top-k selection with 8-bit quantization:
	// the k survivors travel as 5-byte entries, and the quantization error
	// joins the dropped coordinates in the residual.
	PSRAHGADMMTopKQ8 Algorithm = "psra-hgadmm-topk-q8"
	// PSRAADMMTopK drives the flat PSR-Allreduce with the top-k codec —
	// the composition the zero-alloc budget test pins.
	PSRAADMMTopK Algorithm = "psra-admm-topk"
	// PSRAHGADMMSharded is the staged aggregation tree over block-sharded
	// consensus state: the model is block-partitioned with PSR-style
	// owners, each rank holds only the blocks its data touches, and no
	// rank materializes the full model.
	PSRAHGADMMSharded Algorithm = "psra-hgadmm-sharded"
	// PSRAHGADMMShardedSSP runs the block-sharded staged aggregation tree
	// under node-granular SSP: stale nodes' cached contributions keep
	// feeding their subscribed blocks for up to Max_delay rounds while the
	// fresh quorum advances, and each block still averages over its live
	// subscribers.
	PSRAHGADMMShardedSSP Algorithm = "psra-hgadmm-sharded-ssp"
	// PSRAHGADMMShardedAsync drives the block-sharded staged aggregation
	// tree asynchronously (quorum of one, bounded delay).
	PSRAHGADMMShardedAsync Algorithm = "psra-hgadmm-sharded-async"
	// PSRAADMMRobust is the flat PSR-Allreduce with the trimmed-mean
	// robust aggregator: each owner drops the TrimF largest and smallest
	// contributions per coordinate before averaging, tolerating up to
	// TrimF Byzantine workers.
	PSRAADMMRobust Algorithm = "psra-admm-robust"
	// PSRAHGADMMRobust is the staged aggregation tree under trimmed-mean,
	// forced to a single merge of every node partial (the robust statistic
	// needs all contributions at one combine point) — node-granularity
	// Byzantine tolerance.
	PSRAHGADMMRobust Algorithm = "psra-hgadmm-robust"
	// GCADMMMedian is the master-worker star with the coordinate-median
	// aggregator — the classic robust-aggregation baseline.
	GCADMMMedian Algorithm = "gc-admm-median"
	// PSRAADMMShardedRobust composes trimmed-mean with block-sharded
	// state: each block owner trims over that block's live subscribers.
	PSRAADMMShardedRobust Algorithm = "psra-admm-sharded-robust"
)

// Config parameterizes one training run.
type Config struct {
	Algorithm Algorithm
	// Topo lays out the virtual cluster. The worker count is Topo.Size().
	Topo simnet.Topology
	// Rho is the ADMM penalty parameter.
	Rho float64
	// Lambda is the L1 regularization weight (paper: λ = 1).
	Lambda float64
	// MaxIter is the outer iteration count (paper: 100).
	MaxIter int
	// GroupThreshold is the WLG GQ batching threshold in nodes
	// (PSRA-HGADMM only). 0 or out of range means all nodes — exact
	// global consensus, the paper's "ungrouped" baseline.
	GroupThreshold int
	// MinBarrier is the SSP partial-barrier size in workers (ADMMLib,
	// AD-ADMM). 0 defaults to half the workers, the paper's setting.
	MinBarrier int
	// MaxDelay is the SSP staleness bound in rounds. 0 defaults to 5, the
	// paper's setting.
	MaxDelay int
	// Tron configures the subproblem solver.
	Tron solver.TronOptions
	// Cost is the virtual-time model. Zero value defaults to
	// simnet.Tianhe2Like().
	Cost simnet.CostModel
	// Stragglers optionally injects slow nodes (Figure 7).
	Stragglers simnet.Stragglers
	// Jitter optionally injects mild per-worker compute variance (real
	// clusters always have some; it is what makes SSP staleness real).
	Jitter simnet.Jitter
	// EvalEvery computes objective/accuracy every k iterations (default 1).
	EvalEvery int
	// Tol enables residual-based early stopping: the run ends once both
	// the primal residual ‖r‖ = sqrt(Σ‖xᵢ−z‖²) and the dual residual
	// ‖s‖ = ρ√N‖z−z_prev‖ fall below Tol. 0 disables (fixed MaxIter, the
	// paper's protocol).
	Tol float64
	// AdaptiveRho enables residual-balancing penalty adaptation (the
	// AADMM idea the paper cites): ρ×=2 when ‖r‖ > 10·‖s‖, ρ/=2 in the
	// opposite regime (see adaptRho). The residual norms are globally
	// agreed scalars, so the extra communication is negligible.
	AdaptiveRho bool
	// Codec overrides the exchange codec for this run — e.g.
	// exchange.SparseQ8, the Q-GADMM-style lossy option that quantizes every
	// communicated w contribution to 8 value bits against a max-abs scale.
	// Empty inherits the registered variant's Codec axis value. An override
	// is held to the same rules as a registration: the kind must exist and
	// compose with the variant's consensus strategy (the tree, flat and
	// group-local strategies have no dense wire format).
	Codec exchange.Kind
	// CodecBudgetBytes targets the top-k codecs' adaptive selection: after
	// every round each live rank steers its selection budget k so the
	// observed per-iteration trace bytes approach this figure, clamped to
	// the state's [KMin, KMax]. All ranks observe the same round total, so
	// k stays identical across ranks and runs stay deterministic. 0 keeps
	// the default fixed k (dim/2, clamped). Ignored by non-topk codecs.
	CodecBudgetBytes int64
	// CodecTopK, when positive, sets the top-k codecs' selection size
	// directly (and its floor under adaptation), overriding the dim/2
	// default. With CodecBudgetBytes zero the selection stays fixed at
	// this k. Ignored by non-topk codecs.
	CodecTopK int
	// CodecAgeScoring weights the top-k codecs' selection by residual age:
	// a coordinate that has waited a rounds in the error-feedback residual
	// scores |v|·(1+a) instead of |v|, so starved coordinates ship before
	// their accumulated mass overshoots. Ignored by non-topk codecs.
	CodecAgeScoring bool
	// codecNoErrorFeedback disables the top-k codecs' residual accumulator
	// — the ablation knob behind the in-package acceptance test that shows
	// error feedback is load-bearing. Dropped coordinates are then lost
	// forever and convergence stalls short of the optimum.
	codecNoErrorFeedback bool
	// Faults, when non-nil, wraps the engine's scratch fabric in a
	// transport.FaultFabric injecting the described drops, delays,
	// partitions, and rank kills deterministically from the plan's seed.
	// A killed rank surfaces as a typed transport.PeerDownError; Run then
	// aborts cleanly with partial results instead of hanging. Test/chaos
	// tooling only — production failures arrive through the TCP fabric's
	// own detection.
	Faults *transport.FaultPlan
	// Elastic switches the failure model from fail-stop to fail-survive:
	// a dead rank is pruned from the membership view instead of aborting
	// the run, the z-update averages over the survivors (keeping degraded
	// consensus exact under BSP), and training continues to MaxIter on
	// the shrunken world. IterStat.LiveWorkers/Epoch and
	// Result.Degraded report the attrition. Kills scheduled via
	// Faults.KillAtIteration are deterministic in elastic mode: the rank
	// leaves the world at the iteration boundary, before any collective
	// can fail on it.
	//
	// Elastic also enables fail-recover: ranks scheduled through
	// Faults.RejoinAtIteration come back at their iteration boundary as a
	// new incarnation — fabric reopened, membership revived, consensus
	// view warm-started from the cluster's current iterate — and the
	// z-update's contributor scaling grows back, so a kill-then-rejoin
	// run converges to the same full-data optimum as an undisturbed one.
	Elastic bool
	// ShardedState switches the consensus state from replicated z to
	// block-sharded z: the model splits into ShardBlocks contiguous blocks
	// with deterministic owners (block b → group position b mod p), each
	// rank subscribes only to the blocks its shard's features touch, and
	// the z-update scales per block by its live subscriber count
	// (general-form consensus). No rank materializes the full model;
	// IterStat.ResidentBytes reports the per-rank footprint. There is one
	// state layout (statestore.go) — False is the same engine under the map
	// with one block that every rank subscribes to, reduced by the classic
	// PSR-Allreduce, and stays bit-identical to its goldens — so sharding
	// composes with every sync model (BSP, SSP, async); only the consensus
	// axis is constrained (flat/star/tree — the ring hierarchy and
	// group-local consensus assume full-width aggregates). The
	// psra-hgadmm-sharded* variants set this implicitly.
	ShardedState bool
	// ShardBlocks is the sharded-state block count (0 defaults to the
	// worker count, the PSR chunk layout). More blocks than workers means
	// each owner holds several blocks; subscriptions get finer and per-rank
	// residency drops on sparse data. Ignored unless sharding is on.
	ShardBlocks int
	// Watchdog enables divergence monitoring: NaN/Inf escaping into any
	// live worker's x/y/z, non-finite residuals or objective, and
	// residual/objective explosions relative to a sliding window of
	// healthy iterations. On a trip the engine rolls every rank back to
	// the last checkpoint (when RunOptions.Checkpoint has a store and a
	// usable snapshot) at the iteration boundary — re-seeding codec
	// error-feedback state and recording the event in Result.Rollbacks —
	// and aborts with an error wrapping watchdog.ErrDiverged once
	// Watchdog.MaxRollbacks is exhausted or no snapshot exists.
	Watchdog watchdog.Config
	// Aggregator selects the consensus reduce statistic: "mean" (the
	// default — the exact sum, bit-identical to the pre-robust engine),
	// "trimmed-mean" (drop the TrimF largest and smallest contributions
	// per coordinate before averaging), or "coordinate-median". Empty
	// inherits the registered variant's Aggregator axis value. The robust
	// statistics are non-associative, so they require a consensus strategy
	// with a single combine point: flat/star/tree, not ring or group-local;
	// with sharded state only the flat strategy reduces per block with
	// per-block contributor sets.
	Aggregator string
	// TrimF is trimmed-mean's per-side trim count — the number of
	// Byzantine contributors the reduce tolerates. Defaults to 1 when the
	// trimmed-mean aggregator is selected, and must leave something to
	// average: 2·TrimF < the contributions meeting at the combine point
	// (workers for flat and star, node partials for the tree). Other
	// aggregators ignore it. It is also the robust quorum bound: once more
	// than TrimF ranks are quarantined the run aborts with an error
	// wrapping watchdog.ErrQuorumLost.
	TrimF int
	// Screen enables contribution screening: every contribution entering a
	// consensus reduce is scored against its sender's own EWMA baselines
	// (norm and Δ-norm), consecutive outliers quarantine the rank, and
	// QuarantineRounds consecutive clean probes re-admit it. See
	// watchdog.ScreenConfig.
	Screen watchdog.ScreenConfig
	// QuarantineRounds is how many consecutive clean probe observations a
	// quarantined rank must produce before re-admission. Default 3.
	QuarantineRounds int
}

func (c *Config) fill() {
	if c.MinBarrier <= 0 || c.MinBarrier > c.Topo.Size() {
		c.MinBarrier = (c.Topo.Size() + 1) / 2
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = 5
	}
	if c.Cost == (simnet.CostModel{}) {
		c.Cost = simnet.Tianhe2Like()
	}
	if c.EvalEvery <= 0 {
		c.EvalEvery = 1
	}
	if c.GroupThreshold < 1 || c.GroupThreshold > c.Topo.Nodes {
		c.GroupThreshold = c.Topo.Nodes
	}
	if c.QuarantineRounds <= 0 {
		c.QuarantineRounds = 3
	}
}

// runAxes is where one run sits on the strategy axes: the registered
// variant mapped through the Config's per-run overrides.
type runAxes struct {
	consensus ConsensusKind
	sync      SyncKind
	codec     exchange.Codec
	sharded   bool
	agg       collective.AggSpec
}

// axes resolves and checks the run's strategy axes: the composition
// rules, and the trim count against the fan-in of the combine point it
// will meet — node partials for the tree, workers for flat and star. Topo
// must already be valid.
func (c Config) axes() (runAxes, error) {
	v, ok := Lookup(c.Algorithm)
	if !ok {
		return runAxes{}, fmt.Errorf("core: unknown algorithm %q", c.Algorithm)
	}
	ax := runAxes{consensus: v.Consensus, sync: v.Sync, sharded: v.Sharded || c.ShardedState}
	kind := c.Codec
	if kind == "" {
		kind = v.Codec
	}
	var err error
	if ax.codec, err = exchange.For(kind); err != nil {
		return runAxes{}, fmt.Errorf("core: %s: %w", c.Algorithm, err)
	}
	name := c.Aggregator
	if name == "" {
		name = v.Aggregator
	}
	if ax.agg, err = collective.ResolveAgg(name, c.TrimF); err != nil {
		return runAxes{}, fmt.Errorf("core: %w", err)
	}
	if err := checkComposition(ax.consensus, kind, ax.sharded, ax.agg.Kind); err != nil {
		return runAxes{}, fmt.Errorf("core: %s: %w", c.Algorithm, err)
	}
	fanIn, unit := c.Topo.Size(), "workers"
	if ax.consensus == ConsensusTree {
		fanIn, unit = c.Topo.Nodes, "node partials"
	}
	if f := ax.agg.Tolerance(fanIn); 2*f >= fanIn {
		return runAxes{}, fmt.Errorf("core: TrimF %d trims everything: need 2·TrimF < %d %s", f, fanIn, unit)
	}
	return ax, nil
}

// CheckPenalty is Validate's rule for the two scalars of the objective: ρ
// positive and finite, λ non-negative and finite. A NaN passes a plain
// ρ <= 0 test and trains garbage.
func CheckPenalty(rho, lambda float64) error {
	if !(rho > 0) || math.IsInf(rho, 1) {
		return fmt.Errorf("core: Rho must be positive and finite, got %v", rho)
	}
	if !(lambda >= 0) || math.IsInf(lambda, 1) {
		return fmt.Errorf("core: Lambda must be non-negative and finite, got %v", lambda)
	}
	return nil
}

// Validate checks the configuration before a run.
func (c Config) Validate() error {
	if err := c.Topo.Validate(); err != nil {
		return err
	}
	if _, err := c.axes(); err != nil {
		return err
	}
	if err := CheckPenalty(c.Rho, c.Lambda); err != nil {
		return err
	}
	if c.MaxIter <= 0 {
		return fmt.Errorf("core: MaxIter must be positive, got %d", c.MaxIter)
	}
	if c.CodecBudgetBytes < 0 {
		return fmt.Errorf("core: CodecBudgetBytes must be non-negative, got %d", c.CodecBudgetBytes)
	}
	if c.CodecTopK < 0 {
		return fmt.Errorf("core: CodecTopK must be non-negative, got %d", c.CodecTopK)
	}
	if !(c.Tol >= 0) {
		return fmt.Errorf("core: Tol must be non-negative")
	}
	// TronOptions.fill reads only values ≤ 0 as "default": a NaN tolerance
	// would run every solve to MaxIter, and +Inf would stop it at its start.
	for _, tol := range []struct {
		name string
		v    float64
	}{{"GradTol", c.Tron.GradTol}, {"CGTol", c.Tron.CGTol}} {
		if math.IsNaN(tol.v) || math.IsInf(tol.v, 0) {
			return fmt.Errorf("core: Tron.%s must be finite, got %v", tol.name, tol.v)
		}
	}
	// The virtual clock multiplies and adds these: a NaN or infinite one
	// turns the run's times into 0 or NaN without an error.
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"Cost.IntraAlpha", c.Cost.IntraAlpha}, {"Cost.IntraBeta", c.Cost.IntraBeta},
		{"Cost.InterAlpha", c.Cost.InterAlpha}, {"Cost.InterBeta", c.Cost.InterBeta},
		{"Cost.ComputePerUnit", c.Cost.ComputePerUnit},
		{"Stragglers.Slowdown", c.Stragglers.Slowdown}, {"Stragglers.Delay", c.Stragglers.Delay},
		{"Jitter.Amp", c.Jitter.Amp},
	} {
		if !(f.v >= 0) || math.IsInf(f.v, 1) {
			return fmt.Errorf("core: %s must be non-negative and finite, got %v", f.name, f.v)
		}
	}
	if !(c.Stragglers.Prob >= 0 && c.Stragglers.Prob <= 1) {
		return fmt.Errorf("core: Stragglers.Prob must be in [0,1], got %v", c.Stragglers.Prob)
	}
	if c.ShardBlocks < 0 {
		return fmt.Errorf("core: ShardBlocks must be non-negative, got %d", c.ShardBlocks)
	}
	if c.MinBarrier < 0 {
		return fmt.Errorf("core: MinBarrier must be non-negative, got %d", c.MinBarrier)
	}
	if c.MinBarrier > c.Topo.Size() {
		return fmt.Errorf("core: MinBarrier %d exceeds the worker count %d", c.MinBarrier, c.Topo.Size())
	}
	if c.MaxDelay < 0 {
		return fmt.Errorf("core: MaxDelay must be non-negative, got %d", c.MaxDelay)
	}
	if err := c.Watchdog.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if c.QuarantineRounds < 0 {
		return fmt.Errorf("core: QuarantineRounds must be non-negative, got %d", c.QuarantineRounds)
	}
	if p := c.Faults; p != nil {
		for _, s := range []struct {
			name    string
			sched   map[int]int
			byIters bool // the values are iterations, not send counts
		}{
			{"KillAtIteration", p.KillAtIteration, true},
			{"RejoinAtIteration", p.RejoinAtIteration, true},
			{"CorruptAtIteration", p.CorruptAtIteration, true},
			{"NaNAtIteration", p.NaNAtIteration, true},
			{"KillAfterSends", p.KillAfterSends, false},
		} {
			for r, v := range s.sched {
				if r < 0 || r >= c.Topo.Size() {
					return fmt.Errorf("core: Faults.%s rank %d outside the world [0,%d)", s.name, r, c.Topo.Size())
				}
				if s.byIters && v < 0 {
					return fmt.Errorf("core: Faults.%s rank %d iteration %d negative", s.name, r, v)
				}
			}
		}
		for r, bf := range p.ByzantineAtIteration {
			if r < 0 || r >= c.Topo.Size() {
				return fmt.Errorf("core: Byzantine rank %d outside the world [0,%d)", r, c.Topo.Size())
			}
			if bf.Iteration < 0 {
				return fmt.Errorf("core: Byzantine rank %d iteration %d negative", r, bf.Iteration)
			}
			if !transport.ValidByzantineMode(bf.Mode) {
				return fmt.Errorf("core: Byzantine rank %d: unknown mode %q (valid: %v)", r, bf.Mode, transport.ByzantineModes())
			}
			if bf.Until != 0 && bf.Until <= bf.Iteration {
				return fmt.Errorf("core: Byzantine rank %d: Until %d must follow Iteration %d", r, bf.Until, bf.Iteration)
			}
		}
	}
	if c.Faults != nil && !(c.Faults.CorruptProb >= 0 && c.Faults.CorruptProb <= 1) {
		return fmt.Errorf("core: Faults.CorruptProb must be in [0,1], got %v", c.Faults.CorruptProb)
	}
	if c.Faults != nil && len(c.Faults.RejoinAtIteration) > 0 {
		if !c.Elastic {
			return fmt.Errorf("core: Faults.RejoinAtIteration requires Elastic mode (fail-stop runs cannot re-admit ranks)")
		}
		for r, rit := range c.Faults.RejoinAtIteration {
			kit, scheduled := c.Faults.KillAtIteration[r]
			_, sendKilled := c.Faults.KillAfterSends[r]
			if !scheduled && !sendKilled {
				return fmt.Errorf("core: rank %d scheduled to rejoin at iteration %d but never killed", r, rit)
			}
			if scheduled && rit <= kit {
				return fmt.Errorf("core: rank %d rejoin at iteration %d must follow its kill at %d", r, rit, kit)
			}
		}
	}
	return nil
}

// IterStat records one iteration of a run. Times are virtual seconds from
// the simnet cost model; bytes are actual payload bytes the collectives
// sent.
type IterStat struct {
	Iter int
	// Objective is the global L1-logistic objective (paper eq. 17)
	// evaluated at the mean consensus iterate. NaN when skipped by
	// EvalEvery.
	Objective float64
	// RelError is |f − f*| / f* against the reference optimum when one
	// was supplied (paper eq. 18); NaN otherwise.
	RelError float64
	// Accuracy is test-set accuracy at the mean consensus iterate; NaN
	// when no test set was supplied or evaluation was skipped.
	Accuracy float64
	// CalTime is the mean per-worker compute time of this iteration.
	CalTime float64
	// CommTime is the iteration's elapsed virtual time beyond CalTime:
	// transfer plus synchronization wait.
	CommTime float64
	// Bytes is the total communication payload of the iteration.
	Bytes int64
	// PrimalRes and DualRes are the consensus residual norms (always
	// computed; they drive Tol stopping and AdaptiveRho).
	PrimalRes, DualRes float64
	// Rho is the penalty in effect during this iteration (changes only
	// under AdaptiveRho).
	Rho float64
	// LiveWorkers is the surviving worker count at the end of the
	// iteration (always Topo.Size() in a non-elastic run).
	LiveWorkers int
	// Epoch is the membership epoch — it advances by one per observed
	// death, so equal epochs mean identical membership views.
	Epoch int
	// PeerDowns is the cumulative count of peer-death observations across
	// all ranks.
	PeerDowns int64
	// ResidentBytes is the largest per-rank consensus-state footprint this
	// iteration: 8·(len(xA)+len(yA)+len(zA)) + 12·nnz(zSparse) over live
	// ranks. The arrays span the rank's active columns; the view holds z's
	// nonzeros in the rank's subscribed blocks (only those its data touches
	// under sharded state, the whole dimension replicated). Reported every
	// iteration under every sync model (BSP, SSP, async) — stale ranks'
	// frozen state counts at its last applied size.
	ResidentBytes int64
}

// Result is a completed run.
type Result struct {
	Config  Config
	History []IterStat
	// Z is the final mean consensus iterate.
	Z []float64
	// TotalCalTime/TotalCommTime/SystemTime aggregate the virtual clock:
	// SystemTime = TotalCalTime + TotalCommTime = the paper's "system
	// time".
	TotalCalTime  float64
	TotalCommTime float64
	SystemTime    float64
	// TotalBytes is the cumulative communication volume.
	TotalBytes int64
	// Stopped reports whether residual-based early stopping fired before
	// MaxIter (History is then shorter than Config.MaxIter).
	Stopped bool
	// LiveWorkers and Epoch are the final membership view; Degraded
	// reports whether any worker was lost (elastic runs complete degraded
	// rather than aborting).
	LiveWorkers int
	Epoch       int
	Degraded    bool
	// Rollbacks records every watchdog-triggered checkpoint rollback the
	// run performed, in order. A non-empty list with a nil error means the
	// run diverged, recovered from its last good snapshot, and still
	// finished; the History contains the post-rollback replay (entries for
	// the rolled-back iterations are truncated and rewritten).
	Rollbacks []RollbackEvent
	// Quarantines records every contribution-screen quarantine and
	// re-admission the run performed, in order.
	Quarantines []QuarantineEvent
	// CorruptRetries counts the consensus rounds retried because a wire
	// frame failed its integrity check mid-collective.
	CorruptRetries int
}

// QuarantineEvent is one screen-triggered membership transition.
type QuarantineEvent struct {
	// Rank is the affected world rank.
	Rank int `json:"rank"`
	// Iter is the iteration boundary the transition took effect at.
	Iter int `json:"iter"`
	// Readmitted distinguishes a clean-probe re-admission from the
	// quarantine itself.
	Readmitted bool `json:"readmitted"`
}

// RollbackEvent is one watchdog-triggered restore to a checkpoint.
type RollbackEvent struct {
	// TripIter is the iteration whose statistics tripped the watchdog.
	TripIter int `json:"trip_iter"`
	// ToIter is the iteration the run restarted from (the snapshot's
	// boundary).
	ToIter int `json:"to_iter"`
	// Reason is the watchdog's trip description.
	Reason string `json:"reason"`
}

// FinalObjective returns the last evaluated objective value.
func (r *Result) FinalObjective() float64 {
	for i := len(r.History) - 1; i >= 0; i-- {
		if !isNaN(r.History[i].Objective) {
			return r.History[i].Objective
		}
	}
	return nan()
}

// FinalAccuracy returns the last evaluated test accuracy.
func (r *Result) FinalAccuracy() float64 {
	for i := len(r.History) - 1; i >= 0; i-- {
		if !isNaN(r.History[i].Accuracy) {
			return r.History[i].Accuracy
		}
	}
	return nan()
}
