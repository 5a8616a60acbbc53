package sparse_test

// The CSR kernel benchmarks, at the shapes the repository benchmark runs.
// They live in the external test package because internal/dataset imports
// sparse.

import (
	"math/rand"
	"testing"

	"psrahgadmm/internal/dataset"
	"psrahgadmm/internal/sparse"
)

// rankShard is rank 0's compacted data shard of a generated training set —
// the matrix one worker's x-update multiplies by.
func rankShard(b *testing.B, cfg dataset.SynthConfig, ranks int) *sparse.CSR {
	train, _, err := dataset.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	_, compact := train.Shard(ranks)[0].X.CompactColumns()
	return compact
}

type kernelShape struct {
	name string
	m    *sparse.CSR
}

func kernelShapes(b *testing.B) []kernelShape {
	return []kernelShape{
		// engine-news20-8, engine-topk-8, mesh-tcp-8: 40 long Zipf rows.
		{"news20-shard-8", rankShard(b, dataset.News20Like(0.02, 1), 8)},
		// engine-wide-64 and its siblings: 8 rows of ~6 nonzeros, where
		// per-row overhead dominates and pairing must not lose.
		{"wide-shard-64", rankShard(b, dataset.SynthConfig{
			Name: "wide", Dim: 16000, TrainRows: 512, TestRows: 8,
			RowNNZ: 6, ZipfS: 1.4, SignalNNZ: 60, NoiseFlip: 0.02, Seed: 1,
		}, 64)},
	}
}

func benchKernel(b *testing.B, kernel func(m *sparse.CSR, rowVec, colVec []float64)) {
	for _, shape := range kernelShapes(b) {
		m := shape.m
		r := rand.New(rand.NewSource(25))
		rowVec, colVec := make([]float64, m.NRows), make([]float64, m.NCols)
		for i := range rowVec {
			rowVec[i] = r.NormFloat64()
		}
		for i := range colVec {
			colVec[i] = r.NormFloat64()
		}
		b.Run(shape.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				kernel(m, rowVec, colVec)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*m.NNZ()), "ns/nnz")
		})
	}
}

func BenchmarkMulVec(b *testing.B) {
	benchKernel(b, func(m *sparse.CSR, rowVec, colVec []float64) { m.MulVec(rowVec, colVec) })
}

func BenchmarkMulTransVec(b *testing.B) {
	benchKernel(b, func(m *sparse.CSR, rowVec, colVec []float64) { m.MulTransVec(colVec, rowVec) })
}
