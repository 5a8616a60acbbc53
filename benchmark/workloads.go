package main

import (
	"fmt"
	"math"

	"psrahgadmm/internal/core"
	"psrahgadmm/internal/dataset"
	"psrahgadmm/internal/simnet"
	"psrahgadmm/internal/watchdog"
)

// target is the relative objective error every workload trains to.
const target = 1e-2

// workload is one set of inputs the benchmark runs. The six of them are
// chosen so that every layer is the bottleneck somewhere and idle
// somewhere else; why says which.
type workload struct {
	name string
	why  string
	// mesh runs the WLG runtime over loopback TCP instead of core.Run.
	mesh bool
	// synth draws the dataset; draw selects the draw, not the run seed.
	synth func(draw int64) dataset.SynthConfig
	// cfg is the engine configuration (mesh: only Topo, Rho, Lambda are
	// read). MaxIter and EvalEvery are set per run.
	cfg core.Config
	// checkpoint puts an fsync'd DirStore, saving every 10 iterations, on
	// the clock.
	checkpoint bool
	// horizon is the first calibration run's length; it doubles until the
	// target is met.
	horizon int
	// pinK, when positive, fixes K* (toy sizes only: the smoke test must
	// finish in a handful of iterations whatever the data does).
	pinK int
}

// errorBound is the relative error a run's final iterate must meet: the
// target — or, at toy size, where K* is pinned and the target is out of
// reach, anything finite.
func (w workload) errorBound() float64 {
	if w.pinK > 0 {
		return math.Inf(1)
	}
	return target
}

func wideSynth(dim, rows, signal int) func(int64) dataset.SynthConfig {
	return func(draw int64) dataset.SynthConfig {
		return dataset.SynthConfig{
			Name: "wide", Dim: dim, TrainRows: rows, TestRows: 8,
			RowNNZ: 6, ZipfS: 1.4, SignalNNZ: signal, NoiseFlip: 0.02, Seed: draw,
		}
	}
}

// workloads returns the six workloads, or their toy-sized twins (dim ≤
// 512, ≤ 8 ranks, 6 iterations) for the smoke test.
func workloads(toy bool) []workload {
	news := func(draw int64) dataset.SynthConfig { return dataset.News20Like(0.02, draw) }
	wide := wideSynth(16000, 512, 60)
	t8 := simnet.Topology{Nodes: 4, WorkersPerNode: 2}
	t64 := simnet.Topology{Nodes: 16, WorkersPerNode: 4}
	t16 := simnet.Topology{Nodes: 4, WorkersPerNode: 4}
	blocks, topk, pin := 256, 1000, 0
	if toy {
		news = func(draw int64) dataset.SynthConfig { return dataset.News20Like(0.0003, draw) }
		wide = wideSynth(512, 64, 20)
		t64, t16 = t8, simnet.Topology{Nodes: 2, WorkersPerNode: 2}
		blocks, topk, pin = 16, 40, 6
	}
	ws := []workload{
		{
			name:    "engine-news20-8",
			why:     "the paper's headline algorithm in its default configuration; solver-bound, so solver, vec and CSR-kernel work shows here and collective or codec work should not",
			synth:   news,
			cfg:     core.Config{Algorithm: core.PSRAHGADMM, Topo: t8, Rho: 1, Lambda: 1},
			horizon: 64,
		},
		{
			name:    "engine-topk-8",
			why:     "same data and topology through the stateful top-k error-feedback codec that engine-news20-8 bypasses; restates the codec's value as wire bytes at equal iterations and exposes the time it costs",
			synth:   news,
			cfg:     core.Config{Algorithm: core.PSRAHGADMMTopK, Topo: t8, Rho: 1, Lambda: 1, CodecTopK: topk},
			horizon: 64,
		},
		{
			name:    "engine-wide-64",
			why:     "flat PSR over 64 ranks on wide sparse data: collective-, channel-transport- and z-update-bound with a near-idle solver, the mirror image of engine-news20-8",
			synth:   wide,
			cfg:     core.Config{Algorithm: core.PSRAADMM, Topo: t64, Rho: 1, Lambda: 0.5},
			horizon: 512,
		},
		{
			name:    "engine-sharded-ssp-64",
			why:     "same data with block-sharded state under node-granular SSP: uses the sparse, collective and exchange layers differently, so a gain for the replicated path that taxes the sharded one shows",
			synth:   wide,
			cfg:     core.Config{Algorithm: core.PSRAHGADMMShardedSSP, Topo: t64, Rho: 1, Lambda: 0.5, ShardBlocks: blocks},
			horizon: 1024,
		},
		{
			name:  "engine-guarded-16",
			why:   "watchdog scan, contribution screen, elastic latching and fsync'd checkpoints on the clock; every other workload runs with them off, so their tax when on and their cost when off are both rows",
			synth: wide,
			cfg: core.Config{
				Algorithm: core.PSRAADMM, Topo: t16, Rho: 1, Lambda: 0.5, Elastic: true,
				Watchdog: watchdog.Config{Enabled: true}, Screen: watchdog.ScreenConfig{Enabled: true},
			},
			checkpoint: true,
			horizon:    128,
		},
		{
			name:    "mesh-tcp-8",
			why:     "the WLG runtime as a real message-passing program over loopback TCP: the only workload where wire framing, TCP transport and the wlg protocol do work; same problem as engine-news20-8, so the ratio of the two is the price of the real runtime",
			mesh:    true,
			synth:   news,
			cfg:     core.Config{Topo: t8, Rho: 1, Lambda: 1},
			horizon: 64,
		},
	}
	if toy {
		ws[5].cfg.Topo = t16
	}
	for i := range ws {
		ws[i].pinK = pin
	}
	return ws
}

func findWorkload(name string, toy bool) (workload, error) {
	for _, w := range workloads(toy) {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}
