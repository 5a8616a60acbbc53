package core

import (
	"fmt"

	"psrahgadmm/internal/collective"
	"psrahgadmm/internal/exchange"
	"psrahgadmm/internal/membership"
	"psrahgadmm/internal/simnet"
	"psrahgadmm/internal/sparse"
	"psrahgadmm/internal/transport"
	"psrahgadmm/internal/watchdog"
)

// The ConsensusStrategy axis: HOW the aggregated W = Σ(yᵢ + ρxᵢ) is formed
// and the thresholded z redistributed. Each strategy is one file
// implementing one round of its topology's protocol against the shared
// substrate — the virtual clock, the real collective implementations over
// the scratch fabric, the sync-model barrier, and the ExchangeCodec wire
// format. The engine's Run loop is strategy-agnostic; adding a topology
// means adding one strategy file and a registry entry, not a seventh copy
// of the iteration loop.

// ConsensusKind names a consensus strategy in the algorithm registry.
type ConsensusKind string

// The implemented consensus strategies.
const (
	// ConsensusStar gathers every worker's contribution at a master
	// (rank 0) whose links serialize all traffic — GC-ADMM under BSP,
	// AD-ADMM under SSP.
	ConsensusStar ConsensusKind = "star"
	// ConsensusRing reduces within nodes, then runs a Ring-Allreduce among
	// all node Leaders — GR-ADMM (sparse, BSP) and ADMMLib (dense fp32,
	// SSP).
	ConsensusRing ConsensusKind = "ring"
	// ConsensusFlat runs one cluster-wide PSR-Allreduce with every worker
	// as a peer — PSRA-ADMM, the §4.2 algorithm before WLG grouping.
	ConsensusFlat ConsensusKind = "flat-psr"
	// ConsensusTree is PSRA-HGADMM's staged aggregation tree: arrival-
	// ordered Leader groups merge partials through the GG until W is exact
	// global consensus.
	ConsensusTree ConsensusKind = "tree"
	// ConsensusGroupLocal is the group-local reading of Algorithms 1–3:
	// one grouping round per iteration, each group computing z from its
	// own members only.
	ConsensusGroupLocal ConsensusKind = "group-local"
)

// ConsensusStrategy executes one aggregation round. Implementations keep
// their own cross-round state (clocks, cached contributions); cfg is
// passed per round because AdaptiveRho mutates it mid-run.
type ConsensusStrategy interface {
	Round(cfg Config, iter int) (iterTiming, error)
	// frame is the barrier frame the strategy embeds, which implements it.
	frame() *barrierFrame
}

// iterTiming aggregates one iteration's virtual-time accounting.
type iterTiming struct {
	cal   float64 // mean per-worker compute time
	comm  float64 // mean per-worker wait+transfer time
	bytes int64
}

// strategyEnv bundles the per-run substrate every strategy round uses.
type strategyEnv struct {
	ws    []*worker
	fab   transport.Fabric
	codec exchange.Codec
	// states, non-nil only under the top-k codecs, holds each world rank's
	// error-feedback residual and adaptive selection budget. Encoding then
	// routes through encodeSparse so the residual is merged before
	// selection; every other codec takes the stateless path untouched
	// (bit-identical to the pre-topk engine).
	states []*exchange.State
	sync   syncModel
	dim    int
	// members is the run's monotonic membership view. It is always
	// present; in a non-elastic run nothing is ever marked down, so every
	// live filter is an identity and the happy path is bit-identical to
	// the pre-elastic engine.
	members *membership.Tracker
	// elastic enables degraded-mode continuation: a round that lost peers
	// is retried over the survivors, and strategies prune dead ranks
	// instead of failing.
	elastic bool
	// seq numbers collective invocations so every attempt — including
	// retries of a failed round — gets a fresh, globally unique tag
	// window. Stale messages from an aborted attempt can then never be
	// matched by a later one.
	seq int32
	// crew and pool are the run's persistent goroutine sets: collective
	// members and x-update executors. Both exist so the steady-state
	// round touches no heap — see DESIGN.md "Memory model & buffer
	// ownership".
	crew *crew
	pool *computePool
	// ts is the cost model's per-run scratch for trace timing.
	ts simnet.TimeScratch
	// store owns the consensus state's placement: the run's shard map, the
	// flat path's W collective and the z-update's per-block live-subscriber
	// divisor; see statestore.go.
	store *stateStore
	// agg is the run's consensus reduce statistic, the combine step of
	// every owner-keyed collective: the zero value (mean) sums, the robust
	// kinds take the trimmed-mean/median center.
	agg collective.AggSpec
	// screen, non-nil when Config.Screen is enabled, scores every
	// contribution at the inspect chokepoint. At iteration boundaries
	// sweep turns its indictments and readmissions into membership
	// transitions.
	screen *watchdog.Screen
	// byz, non-nil when the fault plan schedules Byzantine ranks, holds
	// each world rank's poison state. The poison is applied AFTER codec
	// encoding — exactly where a compromised worker would inject it — and
	// BEFORE the screen observes, so the screen judges what the wire
	// carries.
	byz []byzRank
	// curIter is the iteration the current round belongs to, set by the
	// engine before each Round call. Poison schedules key on it, so
	// corrupt-frame retries of the same round replay identically.
	curIter int
	// probe is sweep's scratch for a quarantined rank's would-be
	// contribution, which is screened and never shipped.
	probe sparse.Vector
}

// byzRank is one rank's scheduled Byzantine behavior (see
// transport.ByzantineFault).
type byzRank struct {
	mode  string
	from  int
	until int // 0 = forever
}

// active reports whether the poison applies at iteration iter.
func (b *byzRank) active(iter int) bool {
	return b.mode != "" && iter >= b.from && (b.until == 0 || iter < b.until)
}

// reconciles reports whether strategies must prune !Alive ranks from their
// pending state each round: elastic runs (deaths shrink the world) and
// screened runs (quarantines do the same, without a transport death).
func (env *strategyEnv) reconciles() bool {
	return env.elastic || env.screen != nil
}

// poisonSparse applies rank's scheduled Byzantine poison to its encoded
// contribution in place; outside the rank's window it is a no-op.
func (env *strategyEnv) poisonSparse(rank int, v *sparse.Vector) {
	b := &env.byz[rank]
	if !b.active(env.curIter) {
		return
	}
	switch b.mode {
	case transport.ByzantineSignFlip:
		v.Scale(-1)
	case transport.ByzantineScale:
		v.Scale(10)
	}
}

// tagWindowBase starts the collective tag space well above the small
// hand-assigned tags, and every window is 8 tags wide (the widest any
// collective uses).
const tagWindowBase = int32(1) << 16

// nextTagBase allocates the next collective invocation's tag window.
// Called from the single strategy goroutine only.
func (env *strategyEnv) nextTagBase() int32 {
	b := tagWindowBase + env.seq*8
	env.seq++
	return b
}

// encodeSparse routes one rank's contribution through the codec — stateful
// top-k error feedback when the run carries per-rank exchange state, the
// stateless per-block rounding otherwise: each block of the store's
// partition scales against its own max-abs, so a loud block cannot wash out
// a quiet one that travels to a different owner (under the replicated
// one-block map that is the whole vector, i.e. codec.EncodeSparse) — and
// then through inspect. rank is a world rank. Every sparse-exchange
// contribution passes through here on its way into a reduce; the
// dense-exchange ring rounds the node partial instead of the contribution
// (barrierFrame.formPartial) and calls inspect alone.
func (env *strategyEnv) encodeSparse(rank int, v *sparse.Vector) {
	if env.states != nil {
		env.states[rank].Encode(v)
	} else {
		exchange.EncodeSparseBlocks(env.codec, v, env.store.offs)
	}
	env.inspect(rank, v)
}

// inspect is the chokepoint every contribution of every codec crosses
// between the worker and a reduce: the Byzantine poison (after the codec —
// what a compromised worker ships) and then the contribution screen (after
// the poison — the screen judges what the wire carries). It reports whether
// the screen flagged the contribution; fault-free and screen-off it does
// nothing.
func (env *strategyEnv) inspect(rank int, v *sparse.Vector) bool {
	if env.byz != nil {
		env.poisonSparse(rank, v)
	}
	return env.screen.ObserveSparse(rank, v)
}

// newStrategy instantiates the consensus strategy for one run. Whether
// kind composes with the run's codec, placement and aggregator was settled
// by Config.Validate (checkComposition).
func newStrategy(kind ConsensusKind, env *strategyEnv, cfg Config) (ConsensusStrategy, error) {
	switch kind {
	case ConsensusStar:
		return newStarStrategy(env), nil
	case ConsensusFlat:
		return newFlatStrategy(env), nil
	case ConsensusRing:
		return newRingStrategy(env, cfg), nil
	case ConsensusTree:
		return newTreeStrategy(env, cfg), nil
	case ConsensusGroupLocal:
		return newGroupStrategy(env, cfg), nil
	}
	return nil, fmt.Errorf("core: unknown consensus strategy %q", kind)
}
