package exchange

import (
	"math/rand"
	"testing"

	"psrahgadmm/internal/collective"
	"psrahgadmm/internal/sparse"
)

func benchSparse(r *rand.Rand, dim int, density float64) *sparse.Vector {
	v := sparse.NewVector(dim, 0)
	for i := 0; i < dim; i++ {
		if r.Float64() < density {
			v.Index = append(v.Index, int32(i))
			v.Value = append(v.Value, r.NormFloat64())
		}
	}
	return v
}

// BenchmarkCodecEncodeSparse measures the in-place wire rounding every
// contribution pays before entering a collective, per codec kind
// (TestEncodeSparseAllocFree holds every kind at 0 allocations).
func BenchmarkCodecEncodeSparse(b *testing.B) {
	for _, k := range Kinds() {
		b.Run(string(k), func(b *testing.B) {
			c, err := For(k)
			if err != nil {
				b.Fatal(err)
			}
			v := benchSparse(rand.New(rand.NewSource(7)), 1<<16, 0.05)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.EncodeSparse(v)
			}
		})
	}
}

// BenchmarkCodecScaleTrace measures re-costing a collective trace to wire
// sizes in place — per-round work on the engine hot path. Each iteration
// scales a fresh copy, so every kind rescales nominal bytes, not bytes it
// already scaled.
func BenchmarkCodecScaleTrace(b *testing.B) {
	for _, k := range Kinds() {
		b.Run(string(k), func(b *testing.B) {
			c, err := For(k)
			if err != nil {
				b.Fatal(err)
			}
			nominal := collective.Trace{Steps: 8}
			for i := 0; i < 64; i++ {
				nominal.Events = append(nominal.Events, collective.Event{
					Step: i % 8, From: i % 4, To: (i + 1) % 4, Bytes: 8 + 20*i,
				})
			}
			tr := collective.Trace{Steps: nominal.Steps, Events: make([]collective.Event, len(nominal.Events))}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(tr.Events, nominal.Events)
				c.ScaleTrace(tr)
			}
		})
	}
}
