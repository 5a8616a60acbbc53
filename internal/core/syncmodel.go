package core

import (
	"math"
	"slices"

	"psrahgadmm/internal/sparse"
)

// The sync-model axis: WHEN a consensus round admits its participants.
// Every strategy runs the same per-round protocol — launch compute on idle
// participants, admit a quorum at a cutoff time, aggregate, apply — and
// the sync model only decides the quorum size and the staleness bound:
//
//   - BSP: the quorum is everyone. Every participant is fresh every round,
//     the cutoff is the slowest finish, and staleness never accrues — the
//     classic bulk-synchronous barrier all the paper's exact variants use.
//   - SSP (stale synchronous parallel): the quorum is Min_barrier workers
//     (scaled to the strategy's granularity); laggards' *previous*
//     contributions are reused, but nobody falls more than Max_delay
//     rounds behind — the ADMMLib / AD-ADMM partial barrier.
//   - Async (bounded-delay asynchronous): quorum of one — a round fires as
//     soon as the fastest participant finishes, with the same Max_delay
//     bound keeping the slowest from diverging (Zhang & Kwok's regime).
//
// Granularity belongs to the consensus strategy: star and flat synchronize
// individual workers, the hierarchical strategies synchronize nodes
// (workers within a node stay BSP over the bus).

// SyncKind names a synchronization model in the algorithm registry.
type SyncKind string

// The implemented synchronization models.
const (
	SyncBSP   SyncKind = "bsp"
	SyncSSP   SyncKind = "ssp"
	SyncAsync SyncKind = "async"
)

// SyncKinds lists every implemented synchronization model.
func SyncKinds() []SyncKind { return []SyncKind{SyncBSP, SyncSSP, SyncAsync} }

// syncModel is one row of the axis bound to the run's barrier parameters —
// the bounded-delay model's two numbers. It is stateless; the
// per-participant bookkeeping ([]sspClock) lives in the strategies' barrier
// frame.
type syncModel struct {
	kind SyncKind
	// minBarrier is the partial-barrier size in workers, maxDelay the
	// staleness bound in rounds; BSP reads neither.
	minBarrier, maxDelay int
}

// quorum returns the partial-barrier size in participants, given the total
// participant count and how many workers each participant represents (1 for
// worker granularity, WorkersPerNode for node granularity — MinBarrier is
// configured in workers and rounds up to whole nodes exactly as ADMMLib
// does).
func (s syncModel) quorum(participants, per int) int {
	switch s.kind {
	case SyncSSP:
		return max((s.minBarrier+per-1)/per, 1)
	case SyncAsync:
		return 1
	}
	return participants
}

// delay is the staleness bound in rounds after which a pending participant
// forces the barrier to wait for it; under BSP staleness is impossible.
func (s syncModel) delay() int {
	if s.kind == SyncBSP {
		return math.MaxInt
	}
	return s.maxDelay
}

// pendingCompute is a participant's in-flight x-update batch (one node for
// the hierarchical strategies, one worker for star/flat) whose partial w
// becomes visible at finish. The per-member encoded contributions (vs) are
// retained so an elastic run can re-form the partial exactly when a member
// dies between launch and admission — recomputing w from worker state
// would be wrong once AdaptiveRho has moved ρ. The barrier frame owns the
// storage behind every field and refills it at each launch.
type pendingCompute struct {
	finish float64
	ranks  []int            // per-member world ranks (live at launch)
	starts []float64        // per-member clock at compute start
	cals   []float64        // per-member compute time
	vs     []*sparse.Vector // per-member encoded w contribution
	w      *sparse.Vector   // the batch's partial: Σ vs, the cached one once admitted
	// launchIter/launchBytes record the launch fan-in so its bytes are
	// charged by the launch ITERATION, not the launch call: the batch
	// survives elastic round retries (compute runs once), so a retried
	// attempt must re-charge the same bytes its failed predecessor did
	// for Bytes accounting to stay retry-invariant.
	launchIter  int
	launchBytes int64
}

// sspClock tracks a participant's barrier bookkeeping.
type sspClock struct {
	pending   *pendingCompute
	staleness int
}

// sspCutoff returns the partial-barrier time over participants: the K-th
// smallest pending finish, extended to cover every participant that has
// exhausted maxDelay. scratch is the caller's finish-time buffer, grown on
// demand and handed back so the steady state sorts in place.
func sspCutoff(clocks []sspClock, k, maxDelay int, scratch *[]float64) float64 {
	finishes := (*scratch)[:0]
	for i := range clocks {
		if clocks[i].pending != nil {
			finishes = append(finishes, clocks[i].pending.finish)
		}
	}
	*scratch = finishes
	slices.Sort(finishes)
	if len(finishes) == 0 {
		return 0
	}
	if k > len(finishes) {
		k = len(finishes)
	}
	cutoff := finishes[k-1]
	for i := range clocks {
		if clocks[i].pending != nil && clocks[i].staleness >= maxDelay {
			cutoff = maxf(cutoff, clocks[i].pending.finish)
		}
	}
	return cutoff
}

// admitted lists the participants whose pending compute finished by the
// cutoff, in index order, appended into the caller's reusable dst.
func admitted(clocks []sspClock, cutoff float64, dst []int) []int {
	fresh := dst[:0]
	for i := range clocks {
		if p := clocks[i].pending; p != nil && p.finish <= cutoff {
			fresh = append(fresh, i)
		}
	}
	return fresh
}

// bumpStale advances the staleness counter of every still-pending
// participant; callers clear admitted participants' pending first.
func bumpStale(clocks []sspClock) {
	for i := range clocks {
		if clocks[i].pending != nil {
			clocks[i].staleness++
		}
	}
}
