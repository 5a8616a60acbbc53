package core

import (
	"runtime"
	"testing"

	"psrahgadmm/internal/dataset"
	"psrahgadmm/internal/simnet"
)

// TestShardScaleBytes pins what each placement holds and ships at simnet
// scale. Each pair runs the same world twice, replicated z and then
// block-sharded z, on a sparse synthetic wide enough that subscriptions are
// genuinely partial. Resident bytes are the largest consensus-state
// footprint of any rank at the final iteration (a rank holds z only at its
// active columns and on its view's nonzeros, so neither placement is
// dimension-sized); wire bytes are the run totals. Both are
// deterministic, so they are held exactly: a change means the partitioning
// or the collectives' accounting changed. The 64-rank pair runs again at
// GOMAXPROCS 4, where the crew runs in parallel and must not move a byte.
// The SSP pair holds sharding under a relaxed barrier against the dense
// tree-BSP reference.
func TestShardScaleBytes(t *testing.T) {
	for _, c := range []struct {
		name                 string
		nodes, wpn, blocks   int
		iters, rows          int
		maxProcs             int       // 0 keeps the ambient GOMAXPROCS
		dense, sharded       Algorithm // sharded "" is dense with ShardedState
		denseRes, shardRes   int64
		denseWire, shardWire int64
	}{
		{"64", 16, 4, 256, 8, 512, 0, PSRAADMM, "", 3060, 2520, 4530204, 1993212},
		{"256", 32, 8, 512, 4, 1024, 0, PSRAADMM, "", 3996, 2220, 15719388, 2541456},
		{"64-mp4", 16, 4, 256, 8, 512, 4, PSRAADMM, "", 3060, 2520, 4530204, 1993212},
		{"64-ssp", 16, 4, 256, 8, 512, 0, PSRAHGADMM, PSRAHGADMMShardedSSP, 3060, 2436, 2317352, 1347920},
	} {
		t.Run(c.name, func(t *testing.T) {
			train, _, err := dataset.Generate(dataset.SynthConfig{
				Name: "shard-scale", Dim: 16000, TrainRows: c.rows, TestRows: 8, RowNNZ: 6,
				ZipfS: 1.4, SignalNNZ: 60, NoiseFlip: 0.02, Seed: 6,
			})
			if err != nil {
				t.Fatal(err)
			}
			if c.maxProcs > 0 {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(c.maxProcs))
			}
			cfg := Config{
				Algorithm: c.dense,
				Topo:      simnet.Topology{Nodes: c.nodes, WorkersPerNode: c.wpn},
				Rho:       1.0,
				Lambda:    0.5,
				MaxIter:   c.iters,
				EvalEvery: c.iters,
			}
			run := func(cfg Config) (resident, wire int64) {
				res, err := Run(cfg, train, RunOptions{})
				if err != nil {
					t.Fatal(err)
				}
				return res.History[len(res.History)-1].ResidentBytes, res.TotalBytes
			}
			denseRes, denseWire := run(cfg)
			if c.sharded != "" {
				cfg.Algorithm = c.sharded
			} else {
				cfg.ShardedState = true
			}
			cfg.ShardBlocks = c.blocks
			shardRes, shardWire := run(cfg)
			if denseRes != c.denseRes || shardRes != c.shardRes {
				t.Errorf("resident bytes per rank: dense %d, sharded %d; want %d, %d",
					denseRes, shardRes, c.denseRes, c.shardRes)
			}
			if denseWire != c.denseWire || shardWire != c.shardWire {
				t.Errorf("wire bytes: dense %d, sharded %d; want %d, %d",
					denseWire, shardWire, c.denseWire, c.shardWire)
			}
		})
	}
}
