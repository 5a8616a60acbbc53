package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"psrahgadmm/internal/checkpoint"
	"psrahgadmm/internal/exchange"
	"psrahgadmm/internal/transport"
	"psrahgadmm/internal/watchdog"
)

// TestWriteJSON: the export is valid JSON, renders NaN as null, names the
// composition that ran, and carries the whole run record — every fault
// event, the corrupt-round retries, the final membership and each
// iteration's membership and footprint — equal to the Result it came from.
// Each fault case checks that its record is non-empty, so an export that
// drops it cannot pass by comparing two empty lists.
func TestWriteJSON(t *testing.T) {
	train, test := testData(t, 160)
	cases := []struct {
		name string
		cfg  func() Config
		opts func() RunOptions
		// check asserts the case's own record beyond the common checks.
		check func(t *testing.T, res *Result, parsed map[string]any)
	}{
		{
			name: "quantized-sparse-eval",
			cfg: func() Config {
				cfg := baseConfig(PSRAHGADMM, 2, 2)
				cfg.Codec = exchange.SparseQ8 // the history names what ran, not what was registered
				cfg.MaxIter = 6
				cfg.EvalEvery = 3 // some iterations carry NaN objective → null in JSON
				return cfg
			},
			check: func(t *testing.T, res *Result, parsed map[string]any) {
				if parsed["algorithm"] != "psra-hgadmm" {
					t.Fatalf("algorithm = %v", parsed["algorithm"])
				}
				if parsed["consensus"] != "tree" || parsed["sync"] != "bsp" || parsed["codec"] != "sparse-q8" {
					t.Fatalf("resolved axes = (%v, %v, %v), want (tree, bsp, sparse-q8)", parsed["consensus"], parsed["sync"], parsed["codec"])
				}
				if _, ok := parsed["quant_bits"]; ok {
					t.Fatal("quant_bits is still written")
				}
				if parsed["nodes"].(float64) != 2 || parsed["workers_per_node"].(float64) != 2 {
					t.Fatal("topology fields wrong")
				}
			},
		},
		{
			name: "byzantine-screen",
			cfg: func() Config {
				cfg := baseConfig(PSRAADMMRobust, 2, 2)
				cfg.Screen = watchdog.ScreenConfig{Enabled: true}
				cfg.Faults = &transport.FaultPlan{
					Seed: 3,
					ByzantineAtIteration: map[int]transport.ByzantineFault{
						2: {Iteration: 5, Mode: transport.ByzantineScale, Until: 12},
					},
				}
				return cfg
			},
			check: func(t *testing.T, res *Result, _ map[string]any) {
				var quarantined, readmitted bool
				for _, ev := range res.Quarantines {
					quarantined = quarantined || !ev.Readmitted
					readmitted = readmitted || ev.Readmitted
				}
				if !quarantined || !readmitted {
					t.Fatalf("want a quarantine and a readmission, got %+v", res.Quarantines)
				}
			},
		},
		{
			name: "nan-watchdog-checkpoint",
			cfg: func() Config {
				cfg := baseConfig(PSRAHGADMM, 3, 2)
				cfg.MaxIter = 20
				cfg.Watchdog = watchdog.Config{Enabled: true}
				cfg.Faults = &transport.FaultPlan{Seed: 3, NaNAtIteration: map[int]int{1: 12}}
				return cfg
			},
			opts: func() RunOptions {
				return RunOptions{Checkpoint: &CheckpointOptions{Store: checkpoint.NewMemStore(), Every: 5}}
			},
			check: func(t *testing.T, res *Result, _ map[string]any) {
				if len(res.Rollbacks) != 1 || res.Rollbacks[0].Reason == "" {
					t.Fatalf("want one rollback with its reason, got %+v", res.Rollbacks)
				}
			},
		},
		{
			name: "corrupt",
			cfg: func() Config {
				cfg := baseConfig(PSRAHGADMM, 3, 2)
				cfg.MaxIter = 12
				cfg.Faults = &transport.FaultPlan{Seed: 5, CorruptAtIteration: map[int]int{0: 3}}
				return cfg
			},
			check: func(t *testing.T, res *Result, _ map[string]any) {
				if res.CorruptRetries == 0 {
					t.Fatal("the armed corruption was never retried")
				}
			},
		},
		{
			name: "elastic-kill",
			cfg: func() Config {
				cfg := baseConfig(PSRAHGADMM, 3, 2)
				cfg.MaxIter = 12
				cfg.Elastic = true
				cfg.Faults = &transport.FaultPlan{Seed: 11, KillAtIteration: map[int]int{5: 3}}
				return cfg
			},
			check: func(t *testing.T, res *Result, _ map[string]any) {
				if !res.Degraded || res.History[len(res.History)-1].PeerDowns != 1 {
					t.Fatalf("want a degraded run with one peer down, got degraded=%v", res.Degraded)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := RunOptions{}
			if tc.opts != nil {
				opts = tc.opts()
			}
			opts.Test = test
			res, err := Run(tc.cfg(), train, opts)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := res.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			out := buf.String()
			if strings.Contains(out, ": NaN") { // trip reasons may quote a NaN inside a string
				t.Fatal("NaN leaked into JSON")
			}
			if res.Config.EvalEvery > 1 && !strings.Contains(out, `"objective": null`) {
				t.Fatal("skipped evaluations should serialize as null")
			}
			// Round-trip through generic JSON to prove validity and shape.
			var parsed map[string]any
			if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
				t.Fatalf("invalid JSON: %v", err)
			}
			for _, key := range []string{"rollbacks", "quarantines", "corrupt_retries", "live_workers", "epoch", "degraded"} {
				if _, ok := parsed[key]; !ok {
					t.Fatalf("result missing %q", key)
				}
			}
			hist, ok := parsed["history"].([]any)
			if !ok || len(hist) != len(res.History) {
				t.Fatalf("history length = %d, want %d", len(hist), len(res.History))
			}
			for _, key := range []string{"iter", "objective", "cal_time_s", "comm_time_s", "bytes", "primal_res", "dual_res", "rho",
				"live_workers", "epoch", "peer_downs", "resident_bytes"} {
				if _, ok := hist[0].(map[string]any)[key]; !ok {
					t.Fatalf("history entry missing %q", key)
				}
			}

			// The record itself, decoded back, equals the Result's.
			var got struct {
				Rollbacks      []RollbackEvent   `json:"rollbacks"`
				Quarantines    []QuarantineEvent `json:"quarantines"`
				CorruptRetries int               `json:"corrupt_retries"`
				LiveWorkers    int               `json:"live_workers"`
				Epoch          int               `json:"epoch"`
				Degraded       bool              `json:"degraded"`
				History        []struct {
					Iter          int   `json:"iter"`
					LiveWorkers   int   `json:"live_workers"`
					Epoch         int   `json:"epoch"`
					PeerDowns     int64 `json:"peer_downs"`
					ResidentBytes int64 `json:"resident_bytes"`
				} `json:"history"`
			}
			if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
				t.Fatal(err)
			}
			if len(got.Rollbacks) != len(res.Rollbacks) || (len(res.Rollbacks) > 0 && !reflect.DeepEqual(got.Rollbacks, res.Rollbacks)) {
				t.Fatalf("rollbacks = %+v, want %+v", got.Rollbacks, res.Rollbacks)
			}
			if len(got.Quarantines) != len(res.Quarantines) || (len(res.Quarantines) > 0 && !reflect.DeepEqual(got.Quarantines, res.Quarantines)) {
				t.Fatalf("quarantines = %+v, want %+v", got.Quarantines, res.Quarantines)
			}
			if got.CorruptRetries != res.CorruptRetries || got.LiveWorkers != res.LiveWorkers ||
				got.Epoch != res.Epoch || got.Degraded != res.Degraded {
				t.Fatalf("record (%d, %d, %d, %v), want (%d, %d, %d, %v)",
					got.CorruptRetries, got.LiveWorkers, got.Epoch, got.Degraded,
					res.CorruptRetries, res.LiveWorkers, res.Epoch, res.Degraded)
			}
			for i, h := range res.History {
				g := got.History[i]
				if g.Iter != h.Iter || g.LiveWorkers != h.LiveWorkers || g.Epoch != h.Epoch ||
					g.PeerDowns != h.PeerDowns || g.ResidentBytes != h.ResidentBytes {
					t.Fatalf("history[%d] = %+v, want iter %d live %d epoch %d peer downs %d resident %d",
						i, g, h.Iter, h.LiveWorkers, h.Epoch, h.PeerDowns, h.ResidentBytes)
				}
			}
			tc.check(t, res, parsed)
		})
	}
}
