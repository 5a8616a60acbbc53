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
	if s.Indicted(0) {
		t.Fatal("nil screen indicted a rank")
	}
	if !s.Probe(0, steadySparse(3, 1e30)) {
		t.Fatal("nil screen held a probe back: it flags nothing, so every probe is clean")
	}
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
	if s.ranks[0].strikes != 1 || s.Indicted(0) {
		t.Fatalf("strikes = %d (indicted %v), want 1 and not indicted", s.ranks[0].strikes, s.Indicted(0))
	}
	// A clean observation resets the strike count: isolated spikes never
	// accumulate into a quarantine.
	if s.ObserveSparse(0, steadySparse(4, 1)) {
		t.Fatal("clean observation flagged after a spike")
	}
	if s.ranks[0].strikes != 0 {
		t.Fatalf("strikes = %d after clean observation, want 0", s.ranks[0].strikes)
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
	if s.ranks[0].strikes != 10 || !s.Indicted(0) {
		t.Fatalf("strikes = %d (indicted %v), want 10 and indicted (consecutive flags accumulate)", s.ranks[0].strikes, s.Indicted(0))
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

// TestScreenResetClearsBaseline: the probe that readmits a rank resets it —
// baseline, strikes and probe count — and leaves other ranks alone.
func TestScreenResetClearsBaseline(t *testing.T) {
	s := NewScreen(ScreenConfig{Enabled: true}, 2)
	indict(t, s, 1)
	warmScreen(t, s, 0, 4)
	if !s.ObserveSparse(0, steadySparse(4, 100)) {
		t.Fatal("spike not flagged pre-reset")
	}
	for i := 0; i < 3; i++ {
		s.Probe(0, steadySparse(4, 1))
	}
	if st := s.ranks[0]; st.strikes != 0 || st.probes != 0 || st.clean != 0 || st.havePrev {
		t.Fatalf("readmission did not reset the rank: %+v", st)
	}
	if !s.Indicted(1) {
		t.Fatal("readmitting rank 0 cleared rank 1's indictment")
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
	if s.Indicted(-1) || s.Indicted(7) {
		t.Fatal("out-of-range rank indicted")
	}
	if s.Probe(-1, steadySparse(2, 1)) || s.Probe(7, steadySparse(2, 1)) {
		t.Fatal("out-of-range rank readmitted")
	}
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

// indict warms rank's baseline and flags it twice in a row: the strike
// limit, so the rank stands indicted.
func indict(t *testing.T, s *Screen, rank int) {
	t.Helper()
	warmScreen(t, s, rank, 4)
	for i := 0; i < 2; i++ {
		if !s.ObserveSparse(rank, steadySparse(4, 1000)) {
			t.Fatalf("attack observation %d not flagged", i)
		}
	}
	if !s.Indicted(rank) {
		t.Fatalf("rank %d not indicted after two consecutive flags", rank)
	}
}

// TestScreenProbeCountsCleanStreak: a quarantined rank is readmitted by
// its third consecutive clean probe, and not before.
func TestScreenProbeCountsCleanStreak(t *testing.T) {
	s := NewScreen(ScreenConfig{Enabled: true}, 2)
	indict(t, s, 0)
	for i := 1; i <= 3; i++ {
		readmitted := s.Probe(0, steadySparse(4, 1))
		if readmitted != (i == 3) {
			t.Fatalf("clean probe %d: readmitted %v, want %v", i, readmitted, i == 3)
		}
		if i < 3 && s.ranks[0].probes != i {
			t.Fatalf("clean probe %d: count %d", i, s.ranks[0].probes)
		}
	}
}

// TestScreenFlaggedProbeRestartsCount: one poisoned probe in the streak
// sends the count back to zero, so readmission needs three fresh clean
// probes after it.
func TestScreenFlaggedProbeRestartsCount(t *testing.T) {
	s := NewScreen(ScreenConfig{Enabled: true}, 1)
	indict(t, s, 0)
	for i := 0; i < 2; i++ {
		if s.Probe(0, steadySparse(4, 1)) {
			t.Fatalf("clean probe %d readmitted early", i)
		}
	}
	if s.Probe(0, steadySparse(4, 1000)) || s.ranks[0].probes != 0 {
		t.Fatalf("flagged probe: count %d, want 0 and no readmission", s.ranks[0].probes)
	}
	for i := 1; i <= 3; i++ {
		if got := s.Probe(0, steadySparse(4, 1)); got != (i == 3) {
			t.Fatalf("clean probe %d after the flag: readmitted %v, want %v", i, got, i == 3)
		}
	}
}

// TestScreenFreshIndictmentStartsAtZero: a probe streak cut short by a new
// attack leaves nothing behind — the flags that indict the rank again zero
// the count, so the next quarantine needs three clean probes of its own.
func TestScreenFreshIndictmentStartsAtZero(t *testing.T) {
	s := NewScreen(ScreenConfig{Enabled: true}, 1)
	indict(t, s, 0)
	for i := 0; i < 2; i++ {
		s.Probe(0, steadySparse(4, 1))
	}
	for i := 0; i < 2; i++ {
		s.ObserveSparse(0, steadySparse(4, 1000))
	}
	if !s.Indicted(0) || s.ranks[0].probes != 0 {
		t.Fatalf("re-indicted rank: indicted %v, count %d; want indicted at count 0", s.Indicted(0), s.ranks[0].probes)
	}
	for i := 1; i <= 3; i++ {
		if got := s.Probe(0, steadySparse(4, 1)); got != (i == 3) {
			t.Fatalf("clean probe %d of the new quarantine: readmitted %v, want %v", i, got, i == 3)
		}
	}
}

func TestQuorumBound(t *testing.T) {
	for _, tc := range []struct {
		quarantined, f int
		lost           bool
	}{
		{0, -1, false}, {5, -1, false}, {0, 0, false}, {1, 0, true},
		{1, 1, false}, {2, 1, true}, {3, 3, false}, {4, 3, true},
	} {
		err := Quorum(tc.quarantined, tc.f)
		if (err != nil) != tc.lost {
			t.Fatalf("Quorum(%d, %d) = %v, want lost %v", tc.quarantined, tc.f, err, tc.lost)
		}
		var qe *QuorumError
		if tc.lost && (!errors.As(err, &qe) || qe.Quarantined != tc.quarantined || qe.F != tc.f || !errors.Is(err, ErrQuorumLost)) {
			t.Fatalf("Quorum(%d, %d) = %v, want a *QuorumError wrapping ErrQuorumLost", tc.quarantined, tc.f, err)
		}
	}
}
