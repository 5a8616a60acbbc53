package psrahgadmm

import (
	"math"
	"testing"
)

// TestPublicAPITrainRoundTrip exercises the documented public surface
// end-to-end: generate → train → inspect history and final model.
func TestPublicAPITrainRoundTrip(t *testing.T) {
	train, test, err := Generate(News20Like(0.0005, 42))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Algorithm: PSRAHGADMM,
		Topo:      Topology{Nodes: 2, WorkersPerNode: 2},
		Rho:       1, Lambda: 1, MaxIter: 20,
	}
	res, err := Train(cfg, train, RunOptions{Test: test})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != 20 {
		t.Fatalf("history length %d", len(res.History))
	}
	if res.FinalObjective() >= res.History[0].Objective {
		t.Fatal("objective did not improve")
	}
	if math.IsNaN(res.FinalAccuracy()) || res.FinalAccuracy() <= 0.5 {
		t.Fatalf("accuracy %v", res.FinalAccuracy())
	}
	if len(res.Z) != train.Dim() {
		t.Fatalf("final iterate length %d", len(res.Z))
	}
}

// TestPublicAPIAllAlgorithms smoke-tests every registered algorithm id.
func TestPublicAPIAllAlgorithms(t *testing.T) {
	train, _, err := Generate(News20Like(0.0005, 7))
	if err != nil {
		t.Fatal(err)
	}
	// The paper's six variants plus the registered strategy compositions.
	if len(Algorithms()) < 6 {
		t.Fatalf("expected at least the paper's 6 algorithms, got %d", len(Algorithms()))
	}
	if len(Algorithms()) != len(Variants()) {
		t.Fatalf("Algorithms()/Variants() length mismatch: %d vs %d",
			len(Algorithms()), len(Variants()))
	}
	for _, v := range Variants() {
		if v.Consensus == "" || v.Sync == "" || v.Codec == "" || v.Description == "" {
			t.Fatalf("%s: incomplete variant %+v", v.Name, v)
		}
	}
	for _, alg := range Algorithms() {
		cfg := Config{
			Algorithm: alg,
			// Three nodes: the smallest tree whose node partials a default
			// trimmed mean (TrimF 1) does not trim away entirely.
			Topo: Topology{Nodes: 3, WorkersPerNode: 2},
			Rho:  1, Lambda: 1, MaxIter: 8,
		}
		if _, err := Train(cfg, train, RunOptions{}); err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
	}
}

// TestPublicAPIBothReadings covers both PSRA-HGADMM readings.
func TestPublicAPIBothReadings(t *testing.T) {
	train, _, err := Generate(News20Like(0.0005, 9))
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []Algorithm{PSRAHGADMM, PSRAHGADMMGroup} {
		cfg := Config{
			Algorithm:      alg,
			Topo:           Topology{Nodes: 4, WorkersPerNode: 1},
			GroupThreshold: 2,
			Rho:            1, Lambda: 1, MaxIter: 10,
		}
		res, err := Train(cfg, train, RunOptions{})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if res.FinalObjective() >= res.History[0].Objective {
			t.Fatalf("%s: no progress", alg)
		}
	}
}

// TestPublicAPIReferenceOptimum checks f* is a lower bound the engine
// approaches.
func TestPublicAPIReferenceOptimum(t *testing.T) {
	train, _, err := Generate(News20Like(0.0005, 4))
	if err != nil {
		t.Fatal(err)
	}
	fstar, z, err := ReferenceOptimum(train, 1, 1, 80)
	if err != nil {
		t.Fatal(err)
	}
	if fstar <= 0 || len(z) != train.Dim() {
		t.Fatalf("f* = %v", fstar)
	}
	cfg := Config{
		Algorithm: PSRAADMM,
		Topo:      Topology{Nodes: 2, WorkersPerNode: 1},
		Rho:       1, Lambda: 1, MaxIter: 60,
	}
	res, err := Train(cfg, train, RunOptions{FStar: fstar, HaveFStar: true})
	if err != nil {
		t.Fatal(err)
	}
	last := res.History[len(res.History)-1]
	if math.IsNaN(last.RelError) || last.RelError > 0.05 {
		t.Fatalf("relative error %v did not approach f*", last.RelError)
	}
}

// TestDatasetPresets sanity-checks the exported preset constructors.
func TestDatasetPresets(t *testing.T) {
	for _, mk := range []func(float64, int64) SynthConfig{News20Like, WebspamLike, URLLike} {
		cfg := mk(0.0005, 1)
		train, test, err := Generate(cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		if train.Rows() == 0 || test.Rows() == 0 || train.Dim() == 0 {
			t.Fatalf("%s: degenerate shape", cfg.Name)
		}
	}
}

// TestCostModelExport checks the exported cost model is usable.
func TestCostModelExport(t *testing.T) {
	c := Tianhe2Like()
	if c.InterBeta <= c.IntraBeta {
		t.Fatal("interconnect should be slower than the bus")
	}
	scaled := c.ScaleBandwidth(2)
	if scaled.InterBeta != 2*c.InterBeta {
		t.Fatal("ScaleBandwidth wrong")
	}
}
