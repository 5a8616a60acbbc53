package watchdog

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func healthy(t *testing.T, m *Monitor, iters int) {
	t.Helper()
	for i := 0; i < iters; i++ {
		if trip := m.Observe(i, 1.0/float64(i+1), 0.5/float64(i+1), 10-float64(i)*0.1, true); trip != nil {
			t.Fatalf("healthy iteration %d tripped: %v", i, trip)
		}
	}
}

func TestNilMonitorIsNoOp(t *testing.T) {
	var m *Monitor
	if trip := m.Observe(0, math.NaN(), math.Inf(1), math.NaN(), true); trip != nil {
		t.Fatal("nil monitor must never trip")
	}
	m.Reset() // must not panic
	if New(Config{}) != nil {
		t.Fatal("disabled config must build a nil monitor")
	}
}

func TestNonFiniteResidualTripsImmediately(t *testing.T) {
	m := New(Config{Enabled: true})
	trip := m.Observe(0, math.NaN(), 0, 1, true)
	if trip == nil || trip.Iter != 0 {
		t.Fatalf("trip = %v", trip)
	}
	if !errors.Is(trip, ErrDiverged) {
		t.Fatal("TripError must wrap ErrDiverged")
	}
}

func TestNonFiniteObjectiveTrips(t *testing.T) {
	m := New(Config{Enabled: true})
	if trip := m.Observe(0, 0.1, 0.1, math.Inf(1), true); trip == nil {
		t.Fatal("Inf objective must trip")
	}
	// Without an evaluation this iteration, the objective is not judged.
	m = New(Config{Enabled: true})
	if trip := m.Observe(0, 0.1, 0.1, math.NaN(), false); trip != nil {
		t.Fatalf("haveObj=false must skip the objective: %v", trip)
	}
}

func TestResidualExplosionNeedsFullWindow(t *testing.T) {
	m := New(Config{Enabled: true, Window: 4, ResidualFactor: 100})
	// Growing residuals before the window fills: tolerated (startup).
	for i := 0; i < 3; i++ {
		if trip := m.Observe(i, float64(i+1), 0, 1, true); trip != nil {
			t.Fatalf("pre-window trip: %v", trip)
		}
	}
	if trip := m.Observe(3, 1e6, 0, 1, true); trip != nil {
		t.Fatalf("window not yet full, explosion check must not fire: %v", trip)
	}
	// Window now full (values 1,2,3,1e6): min 1, so 1e6 would have tripped
	// had the window been full — prove it fires now.
	trip := m.Observe(4, 1e7, 0, 1, true)
	if trip == nil || !strings.Contains(trip.Reason, "residual explosion") {
		t.Fatalf("trip = %v, want residual explosion", trip)
	}
}

func TestObjectiveExplosion(t *testing.T) {
	m := New(Config{Enabled: true, Window: 3, ObjectiveFactor: 10})
	healthyObj := []float64{5, 4.5, 4}
	for i, o := range healthyObj {
		if trip := m.Observe(i, 0.1, 0.1, o, true); trip != nil {
			t.Fatalf("iteration %d tripped: %v", i, trip)
		}
	}
	trip := m.Observe(3, 0.1, 0.1, 4000, true)
	if trip == nil || !strings.Contains(trip.Reason, "objective explosion") {
		t.Fatalf("trip = %v, want objective explosion", trip)
	}
}

func TestResetClearsBaseline(t *testing.T) {
	m := New(Config{Enabled: true, Window: 3, ResidualFactor: 10})
	healthy(t, m, 6)
	m.Reset()
	// After a reset the very values that would have tripped are startup
	// transients again — the post-rollback replay builds a fresh baseline.
	if trip := m.Observe(0, 50, 0, 1, true); trip != nil {
		t.Fatalf("post-reset trip: %v", trip)
	}
}

func TestConvergedRunNeverTrips(t *testing.T) {
	m := New(Config{Enabled: true})
	for i := 0; i < 200; i++ {
		p := 1.0 / (1.0 + float64(i))
		if trip := m.Observe(i, p, p/2, 3+p, true); trip != nil {
			t.Fatalf("converging run tripped at %d: %v", i, trip)
		}
	}
	// Converged-to-zero residual with tiny jitter: the residualTiny floor
	// must keep noise from reading as an explosion.
	m2 := New(Config{Enabled: true, Window: 3})
	for i := 0; i < 10; i++ {
		if trip := m2.Observe(i, 1e-15, 1e-16, 1, true); trip != nil {
			t.Fatalf("zero-residual jitter tripped: %v", trip)
		}
	}
	if trip := m2.Observe(10, 1e-12, 0, 1, true); trip != nil {
		t.Fatalf("sub-floor jitter tripped: %v", trip)
	}
}

func TestScanNonFinite(t *testing.T) {
	if got := ScanNonFinite([]string{"x", "y"}, []float64{1, 2}, []float64{3}); got != "" {
		t.Fatalf("finite vectors reported %q", got)
	}
	got := ScanNonFinite([]string{"x", "y"}, []float64{1, 2}, []float64{3, math.NaN()})
	if !strings.Contains(got, "y[1]") {
		t.Fatalf("got %q, want y[1]", got)
	}
}

func TestValidate(t *testing.T) {
	if err := (Config{Enabled: true, Window: -1}).Validate(); err == nil {
		t.Fatal("negative window must be rejected")
	}
	if err := (Config{Enabled: true, MaxRollbacks: -2}).Validate(); err == nil {
		t.Fatal("negative MaxRollbacks must be rejected")
	}
	// A NaN or infinite factor would silently switch explosion detection
	// off: every comparison against it is false.
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		if err := (Config{Enabled: true, ResidualFactor: f}).Validate(); err == nil {
			t.Errorf("ResidualFactor %v accepted", f)
		}
		if err := (Config{Enabled: true, ObjectiveFactor: f}).Validate(); err == nil {
			t.Errorf("ObjectiveFactor %v accepted", f)
		}
	}
	if err := (Config{Enabled: true, ResidualFactor: 0, ObjectiveFactor: 1e6}).Validate(); err != nil {
		t.Fatalf("factors 0 (default) and 1e6: %v", err)
	}
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("disabled config: %v", err)
	}
}
