// Top-k sparsification with error feedback — the codec-axis option that
// changes WHICH coordinates travel, not just how they are encoded.
// Following Deng et al. (communication-efficient distributed learning via
// sparse and adaptive stochastic gradient), each rank keeps a residual of
// the coordinates it dropped (plus any quantization error) and adds it
// back into the next round's contribution before selection, so the mass a
// round drops is delayed, never lost — the property that keeps aggressive
// sparsification convergent. The selection budget k adapts per round from
// observed trace bytes against a target budget, clamped to [KMin, KMax].
//
// The codec row itself (codec.go) is stateless like every other; the
// error-feedback residual and selection scratch live in a State, one per
// rank, owned by the runtime (the engine's strategy environment or a WLG
// worker loop) and carried across rounds. Ranks that die and rejoin Reset
// their State: a returning incarnation must not replay residual mass
// accumulated before it died (see DESIGN.md).
package exchange

import (
	"math"

	"psrahgadmm/internal/sparse"
	"psrahgadmm/internal/wire"
)

// Default selection-budget bounds. The initial k is dim/DefaultKDivisor
// (clamped) — a deliberately conservative halving: the residual here
// carries ADMM state (w = y + ρx), not gradient increments, so a dropped
// coordinate's accumulated mass overshoots when it finally wins selection,
// and too-aggressive k makes the recursion oscillate instead of converge.
// Callers wanting harder compression pin k explicitly (core's CodecTopK)
// or set a byte budget (State.BudgetBytes) and let Adapt steer k from
// observed traffic.
const (
	DefaultKMin     = 16
	DefaultKDivisor = 2
)

// DefaultDecay is the residual damping factor applied when State.Decay is
// unset; a Decay of exactly 1 keeps the classical undamped accumulator.
const DefaultDecay = 0.5

// State is one rank's top-k error-feedback memory: the residual of
// dropped coordinates (and quantization error), the merge/selection
// scratch, and the adaptive selection budget. All scratch is State-owned
// and reused, so a warmed Encode performs no allocations. A State is NOT
// safe for concurrent use; the runtimes keep one per rank.
type State struct {
	// K is the current selection budget in coordinates. Zero means
	// "derive from the first encoded vector's dimension".
	K int
	// KMin and KMax clamp both the initial k and every adaptation step.
	// Zero values take DefaultKMin and the vector dimension respectively.
	KMin, KMax int
	// BudgetBytes is the target for observed per-round trace bytes; Adapt
	// steers k toward it multiplicatively. Zero disables adaptation and
	// keeps k fixed.
	BudgetBytes int64
	// DisableErrorFeedback drops the residual instead of carrying it —
	// the ablation knob. Convergence degrades measurably without the
	// accumulator (see the acceptance test in internal/core); never set
	// it in production runs.
	DisableErrorFeedback bool
	// Decay scales the residual each round (0 takes DefaultDecay; set
	// Decay = 1 for the undamped accumulator). The exchanged vector is ADMM
	// state (w = y + ρx), not a gradient increment, so when a starved
	// coordinate finally wins selection its transmitted value overshoots
	// by everything the residual accumulated; geometric damping bounds
	// that overshoot at w·decay/(1−decay) while still boosting dropped
	// coordinates' selection priority round over round.
	Decay float64

	// AgeScoring weights selection by residual age: a coordinate that has
	// waited a rounds in the residual is scored |v|·(1+min(a, ageBoostCap))
	// instead of |v|, so long-starved mass wins selection before damping
	// erodes it. With an empty residual (round one, or right after Reset)
	// every age is zero and selection is identical to plain magnitude —
	// the knob changes nothing until coordinates actually starve.
	AgeScoring bool

	bits     int
	residual *sparse.Vector
	merged   *sparse.Vector
	next     *sparse.Vector
	scores   []float64 // entry-aligned selection scores
	sel      []float64 // their quickselect copy

	// Age-scoring state: ageRes[k] is the age (rounds waited) of the
	// residual's k-th entry; ageMrg is merged-aligned scratch.
	ageRes  []float64
	ageMrg  []float64
	ageNext []float64
}

// NewState returns the per-rank error-feedback state for a top-k codec
// kind, or nil for any other kind — callers gate stateful encoding on the
// nil check. budgetBytes of zero keeps k fixed at its initial value.
func NewState(kind Kind, budgetBytes int64) *State {
	if !IsTopK(kind) {
		return nil
	}
	bits := 0
	if kind == TopKQ8 {
		bits = 8
	}
	return &State{
		BudgetBytes: budgetBytes,
		bits:        bits,
		residual:    new(sparse.Vector),
		merged:      new(sparse.Vector),
		next:        new(sparse.Vector),
	}
}

// Residual exposes a read-only view of the carried residual (tests and
// diagnostics); callers must not mutate it.
func (s *State) Residual() *sparse.Vector { return s.residual }

// Reset clears the error-feedback residual and restores the initial k.
// The elastic-rejoin hook: a returning incarnation warm-starts from the
// authoritative z, and residual mass accumulated by its previous
// incarnation belongs to contributions that were already aggregated (or
// lost with the death) — replaying it would inject stale updates.
func (s *State) Reset() {
	s.residual.Reset(s.residual.Dim)
	s.ageRes = s.ageRes[:0]
	s.K = 0
}

// WireBytes is the wire payload of one encoded contribution with nnz
// entries under this state's value precision — the per-rank byte
// observation the WLG runtime feeds back into Adapt.
func (s *State) WireBytes(nnz int) int64 {
	entry := wire.SparseEntryBytes
	if s.bits > 0 {
		entry = EntryBytes(s.bits)
	}
	return int64(8 + entry*nnz)
}

// Adapt steers k toward BudgetBytes given the bytes observed since the
// last call (one round's traffic). The update is multiplicative with
// halving smoothing, in integer arithmetic, so identical observations on
// every rank keep k bit-identical across the run. No-op without a budget
// or before the first Encode.
func (s *State) Adapt(observedBytes int64) {
	if s.BudgetBytes <= 0 || observedBytes <= 0 || s.K <= 0 {
		return
	}
	target := int64(s.K) * s.BudgetBytes / observedBytes
	if target > int64(s.KMax) {
		target = int64(s.KMax)
	}
	s.K = clampInt((s.K+int(target)+1)/2, s.KMin, s.KMax)
}

// Encode applies error-feedback top-k selection to v in place: merge the
// carried residual into the contribution, keep the k largest-magnitude
// coordinates (deterministic tie-break on lower index), quantize the
// survivors when the kind composes with q8, and carry everything the wire
// loses — dropped coordinates and quantization error alike — into the
// next round's residual. With DisableErrorFeedback the residual is
// neither merged nor updated (pure lossy truncation).
func (s *State) Encode(v *sparse.Vector) {
	s.ensureK(v.Dim)
	k := clampInt(s.K, s.KMin, s.KMax)

	if s.DisableErrorFeedback {
		if v.NNZ() > k {
			s.keep(v, v, s.score(v, false), k)
		}
		if s.bits > 0 {
			QuantizeSparseBits(v, s.bits)
		}
		return
	}

	if s.residual.Dim != v.Dim {
		// First round, or an elastic regroup changed the dimension: start
		// the residual empty at the new dimension.
		s.residual.Reset(v.Dim)
		s.ageRes = s.ageRes[:0]
	}
	src := sparse.MergeInto(s.merged, v, s.residual)
	s.merged = src
	if s.AgeScoring {
		s.ageMrg = mergeAges(s.ageMrg[:0], src, s.residual, s.ageRes)
	}
	if src.NNZ() > k {
		s.keep(v, src, s.score(src, s.AgeScoring), k)
	} else {
		v.ReuseFrom(src)
	}
	if s.bits > 0 {
		QuantizeSparseBits(v, s.bits)
	}
	// residual' = decay·((v + residual) − encoded): dropped coordinates
	// keep their merged value, kept coordinates keep their quantization
	// error, both damped (see Decay).
	s.next = subInto(s.next, src, v, s.effDecay())
	if s.AgeScoring {
		// Freshly transmitted coordinates restart at age 0 (only their
		// quantization error remains); everything still waiting ages by one.
		s.ageNext = nextAges(s.ageNext[:0], s.next, v, src, s.ageMrg)
		s.ageRes, s.ageNext = s.ageNext, s.ageRes
	}
	s.residual, s.next = s.next, s.residual
}

// mergeAges builds the merged-aligned age vector: entries inherited from
// the residual keep their age, fresh contribution entries start at zero.
// merged and residual are index-sorted; resAges is residual-aligned.
func mergeAges(dst []float64, merged, residual *sparse.Vector, resAges []float64) []float64 {
	j := 0
	for _, idx := range merged.Index {
		for j < len(residual.Index) && residual.Index[j] < idx {
			j++
		}
		if j < len(residual.Index) && residual.Index[j] == idx {
			dst = append(dst, resAges[j])
			j++
		} else {
			dst = append(dst, 0)
		}
	}
	return dst
}

// nextAges builds the next residual's age vector: an entry whose
// coordinate was just transmitted (present in sent) carries quantization
// error only and restarts at age 0; a dropped coordinate ages by one. next
// and sent have supports within src's; srcAges is src-aligned.
func nextAges(dst []float64, next, sent, src *sparse.Vector, srcAges []float64) []float64 {
	j, k := 0, 0
	for _, idx := range next.Index {
		for k < len(sent.Index) && sent.Index[k] < idx {
			k++
		}
		if k < len(sent.Index) && sent.Index[k] == idx {
			dst = append(dst, 0)
			continue
		}
		for j < len(src.Index) && src.Index[j] < idx {
			j++
		}
		age := 0.0
		if j < len(src.Index) && src.Index[j] == idx {
			age = srcAges[j]
		}
		dst = append(dst, age+1)
	}
	return dst
}

// ageBoostCap bounds the age multiplier at (1+cap)×. Unbounded growth
// makes small-k selection degenerate into round-robin by age — every
// coordinate with residual mass eventually outranks the genuinely large
// ones and convergence stalls. The cap lets age break starvation (a
// damped residual plateaus at v·decay/(1−decay), so a bounded boost is
// enough to lift it past the selection threshold) while coordinates more
// than (1+cap)× louder than the starved mass keep their slots.
const ageBoostCap = 4

// score fills s.scores with src's selection scores, entry by entry: |v|,
// times 1+min(age, ageBoostCap) when aged (s.ageMrg holds src's ages).
func (s *State) score(src *sparse.Vector, aged bool) []float64 {
	s.scores = s.scores[:0]
	for i, val := range src.Value {
		sc := math.Abs(val)
		if aged {
			sc *= 1 + math.Min(s.ageMrg[i], ageBoostCap)
		}
		s.scores = append(s.scores, sc)
	}
	return s.scores
}

// keep writes src's k best-scored entries into dst in index order: every
// entry scored above the k-th largest score, then the entries tied at it in
// index order until k are kept — exactly k survivors, deterministically.
// scores is src-aligned and k < src.NNZ(); dst may be src.
func (s *State) keep(dst, src *sparse.Vector, scores []float64, k int) {
	s.sel = append(s.sel[:0], scores...) // quickselect reorders its input
	theta := selectKthLargest(s.sel, k)
	ties := k
	for _, sc := range scores {
		if sc > theta {
			ties--
		}
	}
	idx, val := src.Index, src.Value
	dst.Reset(src.Dim)
	for i, sc := range scores {
		switch {
		case sc > theta:
		case sc == theta && ties > 0:
			ties--
		default:
			continue
		}
		// Entry i is read before slot len(dst.Index) <= i is written.
		dst.Index = append(dst.Index, idx[i])
		dst.Value = append(dst.Value, val[i])
	}
}

func (s *State) effDecay() float64 {
	if s.Decay > 0 {
		return s.Decay
	}
	return DefaultDecay
}

// ensureK derives the clamp bounds and initial budget from the first
// vector's dimension.
func (s *State) ensureK(dim int) {
	if s.KMin <= 0 {
		s.KMin = DefaultKMin
	}
	if s.KMax <= 0 {
		s.KMax = dim
	}
	if s.KMax < s.KMin {
		s.KMax = s.KMin
	}
	if s.K <= 0 {
		s.K = clampInt(dim/DefaultKDivisor, s.KMin, s.KMax)
	}
}

// subInto writes scale·(a − b) into dst, where b's support is a subset of
// a's (b is a selected with possibly quantized values). Differences that
// cancel exactly are dropped.
func subInto(dst, a, b *sparse.Vector, scale float64) *sparse.Vector {
	dst.Reset(a.Dim)
	j := 0
	for i, idx := range a.Index {
		if j < len(b.Index) && b.Index[j] == idx {
			if d := a.Value[i] - b.Value[j]; d != 0 {
				dst.Index = append(dst.Index, idx)
				dst.Value = append(dst.Value, scale*d)
			}
			j++
			continue
		}
		dst.Index = append(dst.Index, idx)
		dst.Value = append(dst.Value, scale*a.Value[i])
	}
	return dst
}

// selectKthLargest returns the k-th largest element of a (1-based),
// partially reordering a. Deterministic iterative quickselect with a
// median-of-three pivot — no allocation, no randomness.
func selectKthLargest(a []float64, k int) float64 {
	target := k - 1
	lo, hi := 0, len(a)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if a[mid] > a[lo] {
			a[lo], a[mid] = a[mid], a[lo]
		}
		if a[hi] > a[lo] {
			a[lo], a[hi] = a[hi], a[lo]
		}
		if a[hi] > a[mid] {
			a[mid], a[hi] = a[hi], a[mid]
		}
		pivot := a[mid]
		i, j := lo, hi
		for i <= j {
			for a[i] > pivot {
				i++
			}
			for a[j] < pivot {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		switch {
		case target <= j:
			hi = j
		case target >= i:
			lo = i
		default:
			return a[target]
		}
	}
	return a[target]
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
