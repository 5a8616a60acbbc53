package bench

import (
	"strings"
	"testing"
)

// runQuick executes an experiment driver in quick mode and returns its
// report text.
func runQuick(t *testing.T, id string) string {
	t.Helper()
	var sb strings.Builder
	opts := Options{Out: &sb, Quick: true, Seed: 1, MaxIter: 6}
	if err := RunExperiment(id, opts); err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return sb.String()
}

func TestExperimentRegistry(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range Experiments() {
		if e.ID == "" || e.Desc == "" || e.Run == nil {
			t.Fatalf("malformed experiment entry %+v", e)
		}
		if ids[e.ID] {
			t.Fatalf("duplicate experiment id %s", e.ID)
		}
		ids[e.ID] = true
	}
	for _, want := range []string{"table1", "fig5", "fig6", "fig7", "costmodel", "ablation"} {
		if !ids[want] {
			t.Fatalf("experiment %s missing", want)
		}
	}
	if err := RunExperiment("nope", Options{Out: &strings.Builder{}}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestTable1Output(t *testing.T) {
	out := runQuick(t, "table1")
	for _, want := range []string{"news20", "1355191", "16000", "dimension"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table1 missing %q:\n%s", want, out)
		}
	}
}

func TestFig5Output(t *testing.T) {
	out := runQuick(t, "fig5")
	for _, want := range []string{"Figure 5", "psra-hgadmm", "admmlib", "ad-admm", "final relative error"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig5 missing %q", want)
		}
	}
	// The series must contain numeric relative errors, not NaN dashes.
	if strings.Contains(out, " -  ") && !strings.Contains(out, "0.") {
		t.Fatal("fig5 series look empty")
	}
}

func TestFig6Output(t *testing.T) {
	out := runQuick(t, "fig6")
	for _, want := range []string{"Figure 6", "cal_time", "comm_time", "system_time", "accuracy",
		"headline[news20]: system time", "communication volume"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig6 missing %q", want)
		}
	}
}

func TestFig7Output(t *testing.T) {
	out := runQuick(t, "fig7")
	for _, want := range []string{"Figure 7", "dynamic-grouping", "ungrouped", "comm time"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig7 missing %q", want)
		}
	}
}

func TestCostModelOutput(t *testing.T) {
	out := runQuick(t, "costmodel")
	for _, want := range []string{"ring_time", "psr_time", "one-block", "uniform"} {
		if !strings.Contains(out, want) {
			t.Fatalf("costmodel missing %q", want)
		}
	}
}

func TestAblationOutput(t *testing.T) {
	out := runQuick(t, "ablation")
	for _, want := range []string{"Ablation 1", "Ablation 2", "Ablation 3", "quantized", "adaptive"} {
		if !strings.Contains(out, want) {
			t.Fatalf("ablation missing %q", want)
		}
	}
}

func TestCSVMode(t *testing.T) {
	var sb strings.Builder
	opts := Options{Out: &sb, Quick: true, MaxIter: 3, CSV: true}
	if err := RunExperiment("table1", opts); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "dataset,dimension") {
		t.Fatalf("CSV header missing:\n%s", sb.String())
	}
}

func TestBenchDatasetsShapes(t *testing.T) {
	full := BenchDatasets(1, false)
	if len(full) != 3 {
		t.Fatalf("want 3 datasets, got %d", len(full))
	}
	names := []string{"news20", "webspam", "url"}
	for i, cfg := range full {
		if cfg.Name != names[i] {
			t.Fatalf("dataset %d = %s", i, cfg.Name)
		}
	}
	// Relative ordering mirrors Table 1: webspam highest-dim and densest
	// rows, url most rows.
	if !(full[1].Dim > full[2].Dim && full[2].Dim > full[0].Dim) {
		t.Fatal("dimension ordering broken")
	}
	if !(full[2].TrainRows > full[1].TrainRows && full[1].TrainRows > full[0].TrainRows) {
		t.Fatal("row ordering broken")
	}
	if !(full[1].RowNNZ > full[0].RowNNZ && full[0].RowNNZ > full[2].RowNNZ) {
		t.Fatal("row-density ordering broken")
	}
	quick := BenchDatasets(1, true)
	if len(quick) != 1 {
		t.Fatalf("quick mode should use 1 dataset, got %d", len(quick))
	}
}

func TestLoadCachesDatasets(t *testing.T) {
	cfg := BenchDatasets(1, true)[0]
	a, err := load(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := load(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("load did not cache")
	}
	fa, err := a.referenceOptimum(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := b.referenceOptimum(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fa != fb {
		t.Fatal("reference optimum not cached")
	}
}
