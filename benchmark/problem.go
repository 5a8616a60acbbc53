package main

import (
	"math"
	"math/rand"
	"time"

	"psrahgadmm/internal/core"
	"psrahgadmm/internal/dataset"
	"psrahgadmm/internal/solver"
	"psrahgadmm/internal/vec"
)

// problem is one workload's generated input plus the harness's own
// yardstick for it: the reference optimum and an evaluator of
// f(z) = Σ logloss + λ‖z‖₁ that shares nothing with the run under test.
type problem struct {
	draw, seed  int64
	train       *dataset.Dataset
	ranks       int
	rho, lambda float64
	fstar       float64
	eval        *solver.LogisticProx

	generateS  []float64 // dataset generate + arrange, one sample per set-up
	shardS     []float64 // Dataset.Shard, one sample per set-up
	referenceS float64   // ReferenceOptimum, a harness cost
}

// setupRounds is how many times the dataset is generated and sharded, so
// that the reported set-up time is a median and not one sample.
const setupRounds = 5

// generate draws the dataset and arranges its rows for the run seed.
//
// The draw fixes the statistical problem; the seed decides which rank
// holds which shard and the row order inside each shard. It does not
// redraw the data: iterations-to-target moves by tens of percent between
// draws (and between row-to-shard assignments of one draw), which would
// bury any regression the time metrics are meant to show. See README.
func generate(w workload, draw, seed int64) (*dataset.Dataset, error) {
	train, _, err := dataset.Generate(w.synth(draw))
	if err != nil {
		return nil, err
	}
	train.Reorder(arrangement(train.Rows(), w.cfg.Topo.Size(), seed))
	return train, nil
}

// arrangement returns a row permutation that moves whole shards between
// ranks and shuffles rows within a shard, under Dataset.Shard's layout
// (the first rows%n shards hold one extra row). Shards only trade places
// with shards of their own size, so every rank keeps its row count.
func arrangement(rows, n int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	base, rem := rows/n, rows%n
	lo := make([]int, n+1)
	for i := 0; i < n; i++ {
		size := base
		if i < rem {
			size++
		}
		lo[i+1] = lo[i] + size
	}
	from := make([]int, n) // from[i] = the shard that lands on rank i
	for i := range from {
		from[i] = i
	}
	shuffle := func(s []int) { rng.Shuffle(len(s), func(a, b int) { s[a], s[b] = s[b], s[a] }) }
	shuffle(from[:rem])
	shuffle(from[rem:])
	perm := make([]int, 0, rows)
	for _, src := range from {
		block := make([]int, 0, lo[src+1]-lo[src])
		for r := lo[src]; r < lo[src+1]; r++ {
			block = append(block, r)
		}
		shuffle(block)
		perm = append(perm, block...)
	}
	return perm
}

func newProblem(w workload, draw, seed int64) (*problem, error) {
	p := &problem{draw: draw, seed: seed, ranks: w.cfg.Topo.Size(), rho: w.cfg.Rho, lambda: w.cfg.Lambda}
	for i := 0; i < setupRounds; i++ {
		t0 := time.Now()
		train, err := generate(w, draw, seed)
		if err != nil {
			return nil, err
		}
		p.generateS = append(p.generateS, time.Since(t0).Seconds())
		t0 = time.Now()
		train.Shard(p.ranks)
		p.shardS = append(p.shardS, time.Since(t0).Seconds())
		p.train = train
	}
	t0 := time.Now()
	fstar, _, err := core.ReferenceOptimum(p.train, p.rho, p.lambda, 100)
	if err != nil {
		return nil, err
	}
	p.referenceS = time.Since(t0).Seconds()
	p.fstar = fstar
	zero := make([]float64, p.train.Dim())
	p.eval = solver.NewLogisticProx(p.train.X, p.train.Labels, p.rho, zero, zero)
	return p, nil
}

// relError is |f(z) − f*| / f*, computed by the harness from an iterate.
func (p *problem) relError(z []float64) float64 {
	f := p.eval.LocalLoss(z) + p.lambda*vec.Nrm1(z)
	return math.Abs(f-p.fstar) / math.Abs(p.fstar)
}
