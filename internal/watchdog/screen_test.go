package watchdog

import (
	"errors"
	"math"
	"testing"

	"psrahgadmm/internal/sparse"
)

func steadySparse(dim int, val float64) *sparse.Vector {
	v := sparse.NewVector(dim, 0)
	for j := 0; j < dim; j++ {
		v.Append(int32(j), val)
	}
	return v
}

// warmScreen feeds rank enough identical clean observations to mature its
// baseline.
func warmScreen(t *testing.T, s *Screen, rank, rounds int) {
	t.Helper()
	for i := 0; i < rounds; i++ {
		if s.ObserveSparse(rank, steadySparse(4, 1)) {
			t.Fatalf("warmup observation %d flagged", i)
		}
	}
}

func TestScreenNilIsNoOp(t *testing.T) {
	var s *Screen
	if s != NewScreen(ScreenConfig{}, 4) {
		t.Fatal("disabled config must yield a nil screen")
	}
	if s.ObserveSparse(0, steadySparse(3, 1e30)) {
		t.Fatal("nil screen flagged")
	}
	if s.Strikes(0) != 0 || s.StrikeLimit() != 0 {
		t.Fatal("nil screen reported strikes")
	}
	s.Reset(0) // must not panic
}

func TestScreenImmatureNeverFlags(t *testing.T) {
	s := NewScreen(ScreenConfig{Enabled: true}, 2)
	// The warmup is 3: the first three observations can be arbitrarily
	// wild without flagging — there is no baseline to judge against yet.
	for i, val := range []float64{1, 1e12, 3} {
		if s.ObserveSparse(0, steadySparse(4, val)) {
			t.Fatalf("immature observation %d (val %v) flagged", i, val)
		}
	}
}

func TestScreenFlagsNormOutlier(t *testing.T) {
	s := NewScreen(ScreenConfig{Enabled: true}, 2)
	warmScreen(t, s, 0, 4)
	if !s.ObserveSparse(0, steadySparse(4, 100)) {
		t.Fatal("100× norm spike not flagged against a mature baseline")
	}
	if s.Strikes(0) != 1 {
		t.Fatalf("strikes = %d, want 1", s.Strikes(0))
	}
	// A clean observation resets the strike count: isolated spikes never
	// accumulate into a quarantine.
	if s.ObserveSparse(0, steadySparse(4, 1)) {
		t.Fatal("clean observation flagged after a spike")
	}
	if s.Strikes(0) != 0 {
		t.Fatalf("strikes = %d after clean observation, want 0", s.Strikes(0))
	}
}

// TestScreenFlagsSignFlip is the load-bearing case: a sign-flip preserves
// ‖v‖ exactly, so only the Δ-norm term can catch it.
func TestScreenFlagsSignFlip(t *testing.T) {
	s := NewScreen(ScreenConfig{Enabled: true}, 2)
	// On a steady signal the Δ-baseline decays geometrically toward zero
	// (each identical round contributes Δ = 0), so after a handful of
	// rounds the flip's Δ = 2‖v‖ towers over Factor× the baseline.
	warmScreen(t, s, 0, 9)
	if !s.ObserveSparse(0, steadySparse(4, -1)) {
		t.Fatal("sign-flip (norm-preserving) not flagged — Δ-norm term broken")
	}
}

func TestScreenFlaggedObservationDoesNotPoisonBaseline(t *testing.T) {
	s := NewScreen(ScreenConfig{Enabled: true}, 1)
	warmScreen(t, s, 0, 4)
	// A persistent attacker keeps getting flagged: its outliers never enter
	// the EWMA, so the baseline cannot be dragged up to cover it.
	for i := 0; i < 10; i++ {
		if !s.ObserveSparse(0, steadySparse(4, 1000)) {
			t.Fatalf("attack observation %d slipped past the screen", i)
		}
	}
	if s.Strikes(0) != 10 {
		t.Fatalf("strikes = %d, want 10 (consecutive flags accumulate)", s.Strikes(0))
	}
	// And the honest signal still passes afterwards.
	if s.ObserveSparse(0, steadySparse(4, 1)) {
		t.Fatal("honest observation flagged after sustained attack")
	}
}

func TestScreenNonFiniteAlwaysFlags(t *testing.T) {
	s := NewScreen(ScreenConfig{Enabled: true}, 1)
	// Even during warmup: NaN/Inf would poison the EWMA.
	x := steadySparse(4, 1)
	x.Value[2] = math.NaN()
	if !s.ObserveSparse(0, x) {
		t.Fatal("NaN contribution not flagged during warmup")
	}
	x.Value[2] = math.Inf(1)
	if !s.ObserveSparse(0, x) {
		t.Fatal("Inf contribution not flagged")
	}
}

func TestScreenResetClearsBaseline(t *testing.T) {
	s := NewScreen(ScreenConfig{Enabled: true}, 1)
	warmScreen(t, s, 0, 4)
	if !s.ObserveSparse(0, steadySparse(4, 100)) {
		t.Fatal("spike not flagged pre-reset")
	}
	s.Reset(0)
	if s.Strikes(0) != 0 {
		t.Fatal("Reset did not clear strikes")
	}
	// Post-reset the rank is a different regime: the same magnitude that
	// flagged before is now an unmatched first observation and must pass.
	if s.ObserveSparse(0, steadySparse(4, 100)) {
		t.Fatal("post-reset observation judged against the stale baseline")
	}
}

func TestScreenOutOfRangeRank(t *testing.T) {
	s := NewScreen(ScreenConfig{Enabled: true}, 2)
	if s.ObserveSparse(-1, steadySparse(2, 1)) || s.ObserveSparse(7, steadySparse(2, 1)) {
		t.Fatal("out-of-range rank flagged")
	}
	if s.Strikes(-1) != 0 || s.Strikes(7) != 0 {
		t.Fatal("out-of-range rank reported strikes")
	}
	s.Reset(-1)
	s.Reset(7) // must not panic
}

func TestQuorumErrorUnwrapsToSentinel(t *testing.T) {
	err := &QuorumError{Quarantined: 3, F: 1}
	if !errors.Is(err, ErrQuorumLost) {
		t.Fatal("QuorumError must unwrap to ErrQuorumLost")
	}
	if errors.Is(err, ErrDiverged) {
		t.Fatal("QuorumError must not match the divergence sentinel")
	}
}
