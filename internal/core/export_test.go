package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"psrahgadmm/internal/exchange"
)

func TestWriteJSON(t *testing.T) {
	train, test := testData(t, 80)
	cfg := baseConfig(PSRAHGADMM, 2, 2)
	cfg.Codec = exchange.SparseQ8 // the history names what ran, not what was registered
	cfg.MaxIter = 6
	cfg.EvalEvery = 3 // some iterations carry NaN objective → null in JSON
	res, err := Run(cfg, train, RunOptions{Test: test})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, "NaN") {
		t.Fatal("NaN leaked into JSON")
	}
	if !strings.Contains(out, `"objective": null`) {
		t.Fatal("skipped evaluations should serialize as null")
	}
	// Round-trip through generic JSON to prove validity and shape.
	var parsed map[string]any
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if parsed["algorithm"] != "psra-hgadmm" {
		t.Fatalf("algorithm = %v", parsed["algorithm"])
	}
	if parsed["consensus"] != "tree" || parsed["sync"] != "bsp" || parsed["codec"] != "sparse-q8" {
		t.Fatalf("resolved axes = (%v, %v, %v), want (tree, bsp, sparse-q8)", parsed["consensus"], parsed["sync"], parsed["codec"])
	}
	if _, ok := parsed["quant_bits"]; ok {
		t.Fatal("quant_bits is still written")
	}
	hist, ok := parsed["history"].([]any)
	if !ok || len(hist) != 6 {
		t.Fatalf("history length = %d", len(hist))
	}
	first := hist[0].(map[string]any)
	for _, key := range []string{"iter", "objective", "cal_time_s", "comm_time_s", "bytes", "primal_res", "dual_res", "rho"} {
		if _, ok := first[key]; !ok {
			t.Fatalf("history entry missing %q", key)
		}
	}
	if parsed["nodes"].(float64) != 2 || parsed["workers_per_node"].(float64) != 2 {
		t.Fatal("topology fields wrong")
	}
}
