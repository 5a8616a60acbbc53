package core

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"psrahgadmm/internal/exchange"
	"psrahgadmm/internal/simnet"
	"psrahgadmm/internal/transport"
)

// The golden-history regression suite pins the exact per-iteration output
// of every paper variant (plus the group-local and quantized readings)
// to files under testdata/golden. Histories are serialized with float64
// bit patterns, so ANY change to the arithmetic, its association order, or
// the virtual-clock bookkeeping fails the test — this is what licenses
// refactoring the variant zoo into strategies: the strategies must
// reproduce the monolithic implementations bit for bit.
//
// Regenerate (only when an intentional numerical change lands) with:
//
//	go test ./internal/core -run TestGoldenHistories -update-golden

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden from the current implementation")

// goldenCase names one pinned configuration. The configs deliberately
// exercise the interesting machinery: stragglers and jitter make the SSP
// partial barrier real, GroupThreshold 2 forces a multi-level aggregation
// tree, and the quantized case covers the lossy sparse exchange.
type goldenCase struct {
	name string
	cfg  func() Config
}

func goldenCases() []goldenCase {
	base := func(alg Algorithm) Config {
		cfg := Config{
			Algorithm:      alg,
			Topo:           simnet.Topology{Nodes: 3, WorkersPerNode: 2},
			Rho:            1.0,
			Lambda:         0.5,
			MaxIter:        6,
			GroupThreshold: 2,
			EvalEvery:      2,
			Stragglers:     simnet.Default(5),
			Jitter:         simnet.Jitter{Seed: 7, Amp: 0.6},
		}
		return cfg
	}
	// rejoined kills rank 3 (node 1's non-Leader) at iteration killAt and
	// revives it at 8: the live count, the z-update's divisor, the rejoin warm
	// start and the revived rank's first apply all land inside the pinned
	// history.
	rejoined := func(alg Algorithm, killAt int) Config {
		cfg := base(alg)
		cfg.MaxIter = 12
		cfg.Elastic = true
		cfg.Faults = &transport.FaultPlan{
			Seed:              5,
			KillAtIteration:   map[int]int{3: killAt},
			RejoinAtIteration: map[int]int{3: 8},
		}
		return cfg
	}
	return []goldenCase{
		{"psra-hgadmm", func() Config { return base(PSRAHGADMM) }},
		{"psra-hgadmm-group", func() Config { return base(PSRAHGADMMGroup) }},
		{"psra-admm", func() Config { return base(PSRAADMM) }},
		{"psra-admm-q8", func() Config {
			cfg := base(PSRAADMM)
			cfg.Codec = exchange.SparseQ8
			return cfg
		}},
		{"gr-admm", func() Config { return base(GRADMM) }},
		{"gr-admm-q16", func() Config {
			cfg := base(GRADMM)
			cfg.Codec = exchange.SparseQ16
			return cfg
		}},
		{"admmlib", func() Config { return base(ADMMLib) }},
		{"ad-admm", func() Config { return base(ADADMM) }},
		{"gc-admm", func() Config { return base(GCADMM) }},
		// The sharded equivalence golden: same staged tree as psra-hgadmm
		// but with block-sharded consensus state (4 blocks over the test
		// data's dimension). Pins the sharded engine's trajectory — the
		// per-block z-averaging, the restricted subscriptions, the
		// shard-aware collective's accounting — bit for bit.
		{"psra-hgadmm-sharded", func() Config {
			cfg := base(PSRAHGADMMSharded)
			cfg.ShardBlocks = 4
			return cfg
		}},
		// Kill+rejoin goldens, one per consensus shape (flat, tree, star).
		// Every case above is fault-free; these pin the degraded rounds and
		// the rejoin/apply bodies. Generated before the replicated placement
		// became the one-block full shard map, so they hold that refactor to
		// the replicated engine's faulted trajectory too.
		{"psra-admm-rejoin", func() Config { return rejoined(PSRAADMM, 4) }},
		{"psra-hgadmm-rejoin", func() Config { return rejoined(PSRAHGADMM, 4) }},
		{"gc-admm-rejoin", func() Config { return rejoined(GCADMM, 4) }},
		// The dense-exchange ring under SSP with a member dying in flight: a
		// kill at 5 (not 4 — node 1 is idle at that boundary) finds node 1's
		// batch pending, so reconcile re-sums and re-rounds the node partial
		// from the survivor's retained contribution. Generated while the ring
		// still had a dense data plane; it holds the sparse one to that
		// arithmetic.
		{"admmlib-rejoin", func() Config { return rejoined(ADMMLib, 5) }},
		// The worker-granular and relaxed-barrier paths, recorded before the
		// five strategies moved onto one barrier frame: flat serving stale
		// contributions through its double buffer (async), flat with per-rank
		// codec state (top-k), the robust combine at each of its three combine
		// points (PSR owner, per-block PSR owner, star master), and the tree
		// under SSP over sharded state.
		{"psra-admm-async", func() Config { return base(PSRAADMMAsync) }},
		{"psra-admm-topk", func() Config { return base(PSRAADMMTopK) }},
		{"psra-admm-robust", func() Config { return base(PSRAADMMRobust) }},
		{"psra-admm-sharded-robust", func() Config { return base(PSRAADMMShardedRobust) }},
		{"gc-admm-median", func() Config { return base(GCADMMMedian) }},
		{"psra-hgadmm-sharded-ssp", func() Config { return base(PSRAHGADMMShardedSSP) }},
		// Kill+rejoin under a relaxed barrier. A kill at 6 (not 4 — until its
		// first admission rank 3 holds the cold-start cache anyway) finds a
		// cached contribution; rank 3 comes back at 8 and is stale for the
		// rounds after, serving an EMPTY one — the frame dropped what it held
		// when it left. Recorded after that fix; the engine before it fed those
		// rounds the pre-death vector.
		{"psra-admm-async-rejoin", func() Config { return rejoined(PSRAADMMAsync, 6) }},
		// Every case above shards the data six ways, 20 rows of ≈ 190
		// nonzeros per rank, which routes TRON to Steihaug CG. Twelve ranks
		// hold 10 rows each and route every x-update to the exact row-space
		// Newton step: this pins that step's arithmetic, its dogleg and its
		// Hessian-product count (through CalTime) bit for bit.
		{"psra-hgadmm-rowspace", func() Config {
			cfg := base(PSRAHGADMM)
			cfg.Topo = simnet.Topology{Nodes: 4, WorkersPerNode: 3}
			return cfg
		}},
	}
}

// goldenStat is one IterStat with float64 fields rendered as hex bit
// patterns — bit-exact and immune to formatting drift.
type goldenStat struct {
	Iter      int    `json:"iter"`
	Objective string `json:"objective"`
	RelError  string `json:"rel_error"`
	Accuracy  string `json:"accuracy"`
	CalTime   string `json:"cal_time"`
	CommTime  string `json:"comm_time"`
	Bytes     int64  `json:"bytes"`
	PrimalRes string `json:"primal_res"`
	DualRes   string `json:"dual_res"`
	Rho       string `json:"rho"`
}

type goldenRun struct {
	History []goldenStat `json:"history"`
	// ZBitsFNV is an FNV-1a hash over the final iterate's float64 bit
	// patterns — pins res.Z without storing the whole vector.
	ZBitsFNV string `json:"z_bits_fnv"`
}

func bits(v float64) string { return strconv.FormatUint(math.Float64bits(v), 16) }

func fnvZ(z []float64) string {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, v := range z {
		b := math.Float64bits(v)
		for s := 0; s < 64; s += 8 {
			h ^= (b >> s) & 0xff
			h *= prime
		}
	}
	return strconv.FormatUint(h, 16)
}

func goldenFromResult(res *Result) goldenRun {
	out := goldenRun{ZBitsFNV: fnvZ(res.Z)}
	for _, h := range res.History {
		out.History = append(out.History, goldenStat{
			Iter:      h.Iter,
			Objective: bits(h.Objective),
			RelError:  bits(h.RelError),
			Accuracy:  bits(h.Accuracy),
			CalTime:   bits(h.CalTime),
			CommTime:  bits(h.CommTime),
			Bytes:     h.Bytes,
			PrimalRes: bits(h.PrimalRes),
			DualRes:   bits(h.DualRes),
			Rho:       bits(h.Rho),
		})
	}
	return out
}

func TestGoldenHistories(t *testing.T) {
	train, test := testData(t, 120)
	for _, gc := range goldenCases() {
		t.Run(gc.name, func(t *testing.T) {
			res, err := Run(gc.cfg(), train, RunOptions{Test: test})
			if err != nil {
				t.Fatal(err)
			}
			got := goldenFromResult(res)
			path := filepath.Join("testdata", "golden", gc.name+".json")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				data, err := json.MarshalIndent(got, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update-golden to create): %v", err)
			}
			var want goldenRun
			if err := json.Unmarshal(data, &want); err != nil {
				t.Fatal(err)
			}
			if len(got.History) != len(want.History) {
				t.Fatalf("history length %d, golden %d", len(got.History), len(want.History))
			}
			for i := range want.History {
				if got.History[i] != want.History[i] {
					t.Errorf("iter %d diverged from golden:\n got %+v\nwant %+v",
						i, got.History[i], want.History[i])
				}
			}
			if got.ZBitsFNV != want.ZBitsFNV {
				t.Errorf("final iterate diverged from golden: hash %s vs %s", got.ZBitsFNV, want.ZBitsFNV)
			}
			if t.Failed() {
				t.Log("bit-identical histories are a hard contract of the strategy refactor;" +
					" only regenerate goldens for an intentional numerical change")
			}
		})
	}
}

var _ = fmt.Sprintf
