// Contribution screening: per-rank outlier detection over the vectors that
// enter a consensus reduce. The watchdog's divergence monitor judges the
// AGGREGATE after the fact; the screen judges each CONTRIBUTION before it
// is summed, which is what Byzantine tolerance needs — a poisoned w_i must
// be attributable to its sender, and by the time it is inside Σw it no
// longer is.
//
// The detector is a self-baseline: for every rank it tracks exponential
// moving averages of the contribution norm ‖v‖ and the step-to-step change
// ‖v − v_prev‖, and flags an observation that exceeds screenFactor× either
// baseline. The Δ-norm term is the load-bearing one for sign-flip attacks,
// which preserve ‖v‖ exactly but jump ‖v − v_prev‖ to ≈2‖v‖. Flagged
// observations do NOT update the baselines — otherwise a persistent
// attacker would drag its own baseline up until it passed — and a clean
// observation resets the strike count, so isolated numerical spikes never
// accumulate into a quarantine.
package watchdog

import (
	"errors"
	"fmt"
	"math"

	"psrahgadmm/internal/sparse"
)

// ErrQuorumLost is the sentinel wrapped by every "robust quorum
// unreachable" abort: more ranks are quarantined than the robust
// aggregator can tolerate, so continuing would let the remaining faulty
// minority dominate the trim. errors.Is distinguishes it from divergence
// and infrastructure failures (exit code 6 in psra-worker).
var ErrQuorumLost = errors.New("watchdog: robust quorum unreachable")

// QuorumError reports a lost robust quorum: how many ranks are quarantined
// against a tolerance of f. errors.Is(err, ErrQuorumLost) matches.
type QuorumError struct {
	Quarantined int
	F           int
}

func (e *QuorumError) Error() string {
	return fmt.Sprintf("watchdog: %d ranks quarantined exceeds the robust tolerance f=%d", e.Quarantined, e.F)
}

func (e *QuorumError) Unwrap() error { return ErrQuorumLost }

// Quorum returns the *QuorumError for quarantined ranks against a robust
// tolerance of f, or nil while quarantined <= f. A negative f (the mean,
// which tolerates nothing and so bounds nothing) never errs.
func Quorum(quarantined, f int) error {
	if f < 0 || quarantined <= f {
		return nil
	}
	return &QuorumError{Quarantined: quarantined, F: f}
}

// ScreenConfig switches the contribution screen. The zero value disables
// it; Enabled turns it on with the fixed tuning below.
type ScreenConfig struct {
	// Enabled turns screening on. Off by default: the screen walks every
	// contribution each round, work the zero-alloc fast path should not
	// pay unless asked.
	Enabled bool
}

// The screen's tuning, and the probation that follows a quarantine.
const (
	// screenWarmup is how many clean observations per rank build the
	// baseline before anything can flag.
	screenWarmup = 3
	// screenFactor is the outlier threshold: an observation flags when its
	// norm or Δ-norm exceeds screenFactor× the corresponding EWMA baseline.
	screenFactor = 8
	// screenAlpha is the EWMA smoothing weight on the newest clean
	// observation.
	screenAlpha = 0.25
	// screenStrikes is how many CONSECUTIVE flagged observations
	// quarantine a rank: a single spike (a straggler's stale burst, an
	// unlucky numeric step) is forgiven, a sustained pattern is not.
	screenStrikes = 2
	// quarantineRounds is how many CONSECUTIVE clean probes a quarantined
	// rank must produce before re-admission, in both runtimes.
	quarantineRounds = 3
)

// screenRank is one rank's baseline state. prevIdx/prevVal hold the last
// CLEAN contribution for the Δ-norm; the slices are retained and reused,
// so a warmed steady state observes without allocating.
type screenRank struct {
	normEWMA  float64
	deltaEWMA float64
	clean     int // clean observations so far (baseline maturity)
	strikes   int // consecutive flagged observations
	probes    int // consecutive clean probes since the last flag or Reset
	prevIdx   []int32
	prevVal   []float64
	havePrev  bool
}

// Screen is a per-run contribution screen. Observations for DISTINCT ranks
// may run concurrently (each touches only its own rank's state); two
// observations for the same rank must not.
type Screen struct {
	ranks []screenRank
}

// NewScreen builds a screen for a world of the given size; nil when
// cfg.Enabled is false, and every method on a nil Screen is a cheap no-op.
func NewScreen(cfg ScreenConfig, world int) *Screen {
	if !cfg.Enabled {
		return nil
	}
	return &Screen{ranks: make([]screenRank, world)}
}

// tiny floors the EWMA baselines: a converged run's Δ-norm approaches 0,
// and any nonzero step would otherwise look like an outlier against a
// vanishing baseline.
const screenTiny = 1e-9

// ObserveSparse screens one sparse contribution and reports whether it was
// flagged as an outlier. A flagged contribution does not update the
// baseline or the stored previous vector.
func (s *Screen) ObserveSparse(rank int, v *sparse.Vector) bool {
	if s == nil || rank < 0 || rank >= len(s.ranks) {
		return false
	}
	st := &s.ranks[rank]
	norm := math.Sqrt(v.Nrm2Sq())
	delta := norm
	if st.havePrev {
		delta = math.Sqrt(sparseDeltaSq(v, st.prevIdx, st.prevVal))
	}
	if s.judge(st, norm, delta) {
		return true
	}
	st.prevIdx = append(st.prevIdx[:0], v.Index...)
	st.prevVal = append(st.prevVal[:0], v.Value...)
	st.havePrev = true
	return false
}

// judge applies the outlier rule and maintains the baseline. It returns
// true for a flagged observation (strike recorded, baseline untouched).
// Non-finite norms always flag — they would poison the EWMA otherwise.
func (s *Screen) judge(st *screenRank, norm, delta float64) bool {
	nonFinite := math.IsNaN(norm) || math.IsInf(norm, 0) || math.IsNaN(delta) || math.IsInf(delta, 0)
	mature := st.clean >= screenWarmup
	if nonFinite || (mature &&
		(norm > screenFactor*maxf(st.normEWMA, screenTiny) ||
			delta > screenFactor*maxf(st.deltaEWMA, screenTiny))) {
		st.strikes++
		st.probes = 0
		return true
	}
	st.strikes = 0
	if st.clean == 0 {
		st.normEWMA, st.deltaEWMA = norm, delta
	} else {
		st.normEWMA += screenAlpha * (norm - st.normEWMA)
		st.deltaEWMA += screenAlpha * (delta - st.deltaEWMA)
	}
	st.clean++
	return false
}

// Indicted reports whether rank's consecutive flags reached the strike
// limit: the rank is to be quarantined. False on a nil screen.
func (s *Screen) Indicted(rank int) bool {
	if s == nil || rank < 0 || rank >= len(s.ranks) {
		return false
	}
	return s.ranks[rank].strikes >= screenStrikes
}

// Probe screens a quarantined rank's would-be contribution and counts its
// consecutive clean probes; any flag zeroes the count, so every quarantine
// starts from zero. The quarantineRounds-th clean probe readmits the rank:
// Probe clears its state — the returning regime must earn a fresh
// baseline — and returns true. A nil screen flags nothing: true at once.
func (s *Screen) Probe(rank int, v *sparse.Vector) bool {
	if s == nil {
		return true
	}
	if rank < 0 || rank >= len(s.ranks) || s.ObserveSparse(rank, v) {
		return false
	}
	st := &s.ranks[rank]
	st.probes++
	if st.probes < quarantineRounds {
		return false
	}
	*st = screenRank{prevIdx: st.prevIdx[:0], prevVal: st.prevVal[:0]}
	return true
}

// sparseDeltaSq computes ‖v − prev‖² by merge-walking the two sorted
// supports without materializing the difference.
func sparseDeltaSq(v *sparse.Vector, prevIdx []int32, prevVal []float64) float64 {
	sum := 0.0
	i, j := 0, 0
	for i < len(v.Index) && j < len(prevIdx) {
		switch {
		case v.Index[i] < prevIdx[j]:
			sum += v.Value[i] * v.Value[i]
			i++
		case v.Index[i] > prevIdx[j]:
			sum += prevVal[j] * prevVal[j]
			j++
		default:
			d := v.Value[i] - prevVal[j]
			sum += d * d
			i++
			j++
		}
	}
	for ; i < len(v.Index); i++ {
		sum += v.Value[i] * v.Value[i]
	}
	for ; j < len(prevIdx); j++ {
		sum += prevVal[j] * prevVal[j]
	}
	return sum
}
