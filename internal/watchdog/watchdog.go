// Package watchdog detects training divergence: NaN/Inf escaping into the
// iterates and residual/objective explosions relative to a sliding window
// of recent healthy values. It is deliberately dependency-free — both the
// core engine and the WLG runtime feed it their own notion of an iteration
// — and deliberately conservative: a trip means "this state must not be
// checkpointed, roll back or abort", so thresholds default to orders of
// magnitude, not percentages.
package watchdog

import (
	"errors"
	"fmt"
	"math"
)

// ErrDiverged is the sentinel every watchdog trip wraps; check with
// errors.Is to distinguish "training went numerically wrong" from
// infrastructure failures.
var ErrDiverged = errors.New("watchdog: training diverged")

// Config tunes the divergence monitor. The zero value disables it; set
// Enabled to get the defaults.
type Config struct {
	// Enabled turns monitoring on. Off by default: divergence scanning
	// reads every iterate each iteration, which is measurable work the
	// zero-alloc benchmarks should not pay unless asked.
	Enabled bool
	// Window is how many recent healthy iterations form the explosion
	// baseline. Until the window fills only non-finite checks fire, so
	// startup transients (residuals legitimately grow early) never trip.
	// Default 8.
	Window int
	// ResidualFactor trips when a primal or dual residual exceeds
	// Factor × the window minimum. Default 1e4.
	ResidualFactor float64
	// ObjectiveFactor trips when the objective exceeds Factor × the window
	// minimum (objectives here are nonnegative: loss + L1). Default 1e4.
	ObjectiveFactor float64
	// MaxRollbacks bounds how many checkpoint rollbacks a run may attempt
	// before a trip becomes a typed abort. Default 2.
	MaxRollbacks int
}

// Fill returns cfg with defaults applied.
func (c Config) Fill() Config {
	if c.Window <= 0 {
		c.Window = 8
	}
	if c.ResidualFactor <= 0 {
		c.ResidualFactor = 1e4
	}
	if c.ObjectiveFactor <= 0 {
		c.ObjectiveFactor = 1e4
	}
	if c.MaxRollbacks <= 0 {
		c.MaxRollbacks = 2
	}
	return c
}

// Validate rejects nonsensical explicit settings.
func (c Config) Validate() error {
	if !c.Enabled {
		return nil
	}
	if c.Window < 0 {
		return fmt.Errorf("watchdog: Window %d negative", c.Window)
	}
	if f := c.ResidualFactor; !(f >= 0) || math.IsInf(f, 1) {
		return fmt.Errorf("watchdog: ResidualFactor %v is not finite and non-negative", f)
	}
	if f := c.ObjectiveFactor; !(f >= 0) || math.IsInf(f, 1) {
		return fmt.Errorf("watchdog: ObjectiveFactor %v is not finite and non-negative", f)
	}
	if c.MaxRollbacks < 0 {
		return fmt.Errorf("watchdog: MaxRollbacks %d negative", c.MaxRollbacks)
	}
	return nil
}

// TripError reports a detected divergence: at which iteration and why.
// errors.Is(err, ErrDiverged) matches.
type TripError struct {
	Iter   int
	Reason string
}

func (e *TripError) Error() string {
	return fmt.Sprintf("watchdog: diverged at iteration %d: %s", e.Iter, e.Reason)
}

func (e *TripError) Unwrap() error { return ErrDiverged }

// Monitor is a per-run divergence detector. Not safe for concurrent use;
// each rank (or the engine) owns one.
type Monitor struct {
	cfg  Config
	objs window
	res  window
}

// New builds a monitor; nil when cfg.Enabled is false, and every method on
// a nil Monitor is a cheap no-op, so callers need no branches.
func New(cfg Config) *Monitor {
	if !cfg.Enabled {
		return nil
	}
	cfg = cfg.Fill()
	return &Monitor{
		cfg:  cfg,
		objs: window{cap: cfg.Window},
		res:  window{cap: cfg.Window},
	}
}

// Reset clears the sliding windows. Call after a rollback: the restored
// state's residuals are from an older regime and the post-rollback replay
// must rebuild its own baseline rather than being judged against the
// pre-divergence one.
func (m *Monitor) Reset() {
	if m == nil {
		return
	}
	m.objs.reset()
	m.res.reset()
}

// Observe feeds one iteration's statistics. primal and dual are the
// consensus residuals; objective is the evaluated objective when haveObj
// is true (the engine evaluates on a cadence — iterations without an
// evaluation pass haveObj false rather than a NaN sentinel). It returns a
// *TripError on divergence, nil while healthy.
func (m *Monitor) Observe(iter int, primal, dual, objective float64, haveObj bool) *TripError {
	if m == nil {
		return nil
	}
	if math.IsNaN(primal) || math.IsInf(primal, 0) || math.IsNaN(dual) || math.IsInf(dual, 0) {
		return &TripError{Iter: iter, Reason: fmt.Sprintf("non-finite residuals (primal %v, dual %v)", primal, dual)}
	}
	if haveObj && (math.IsNaN(objective) || math.IsInf(objective, 0)) {
		return &TripError{Iter: iter, Reason: fmt.Sprintf("non-finite objective %v", objective)}
	}
	worst := primal
	if dual > worst {
		worst = dual
	}
	if floor, ok := m.res.min(); ok && worst > m.cfg.ResidualFactor*maxf(floor, residualTiny) {
		return &TripError{Iter: iter, Reason: fmt.Sprintf(
			"residual explosion: %.3g > %.0f× window floor %.3g", worst, m.cfg.ResidualFactor, floor)}
	}
	if haveObj {
		if floor, ok := m.objs.min(); ok && objective > m.cfg.ObjectiveFactor*maxf(floor, residualTiny) {
			return &TripError{Iter: iter, Reason: fmt.Sprintf(
				"objective explosion: %.3g > %.0f× window floor %.3g", objective, m.cfg.ObjectiveFactor, floor)}
		}
		m.objs.push(objective)
	}
	m.res.push(worst)
	return nil
}

// residualTiny floors the explosion baseline: once a run has converged to
// ~0 residuals, any tiny numeric jitter would otherwise look like an
// "explosion" relative to a vanishing window minimum.
const residualTiny = 1e-9

// ScanNonFinite returns the index-pair (slice, element) description of the
// first NaN/Inf found across the given vectors, or "" when all values are
// finite. The engine uses it to catch poison in x/y/z before residuals
// (which a zero gather could mask) and to name the culprit in the trip.
func ScanNonFinite(names []string, vecs ...[]float64) string {
	for i, v := range vecs {
		if j := FirstNonFinite(v); j >= 0 {
			name := ""
			if i < len(names) {
				name = names[i]
			}
			return fmt.Sprintf("%s[%d] = %v", name, j, v[j])
		}
	}
	return ""
}

// FirstNonFinite returns the index of v's first NaN/Inf, or -1 when every
// value is finite. x−x is ±0 for a finite x and NaN for ±Inf and NaN, so
// one subtract-and-compare per element is the whole test.
func FirstNonFinite(v []float64) int {
	for j, x := range v {
		if x-x != 0 {
			return j
		}
	}
	return -1
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// window is a fixed-capacity FIFO over float64 with O(n) min — n is the
// watchdog window (default 8), so linearity is cheaper than a heap.
type window struct {
	cap  int
	vals []float64
}

func (w *window) push(v float64) {
	if len(w.vals) == w.cap {
		copy(w.vals, w.vals[1:])
		w.vals = w.vals[:len(w.vals)-1]
	}
	w.vals = append(w.vals, v)
}

// min returns the window minimum; ok is false until the window is full,
// which is what keeps startup transients from tripping explosion checks.
func (w *window) min() (float64, bool) {
	if len(w.vals) < w.cap {
		return 0, false
	}
	m := w.vals[0]
	for _, v := range w.vals[1:] {
		if v < m {
			m = v
		}
	}
	return m, true
}

func (w *window) reset() { w.vals = w.vals[:0] }
