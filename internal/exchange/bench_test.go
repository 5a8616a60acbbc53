package exchange

import (
	"math"
	"math/rand"
	"slices"
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

// BenchmarkTopKEncode measures one warm error-feedback top-k encode at
// the shape engine-topk-8 runs: dimension 27 103, k = 1 000, a
// contribution of about 1 350 entries over a support of 1 450, so the
// merged vector holds about 1 380 entries and about 375 stay in the
// residual. The input is a fixed synthetic cycle of contributions; each
// iteration copies one into the working vector and encodes it.
func BenchmarkTopKEncode(b *testing.B) {
	const dim, support, k = 27103, 1450, 1000
	for _, kind := range []Kind{TopK, TopKQ8} {
		b.Run(string(kind), func(b *testing.B) {
			r := rand.New(rand.NewSource(11))
			pool := r.Perm(dim)[:support]
			slices.Sort(pool)
			vs := make([]*sparse.Vector, 64)
			for i := range vs {
				v := sparse.NewVector(dim, support)
				for _, j := range pool {
					if r.Float64() < 0.93 {
						v.Append(int32(j), r.NormFloat64()*math.Exp(2*r.NormFloat64()))
					}
				}
				vs[i] = v
			}
			st := NewState(kind, 0)
			st.K, st.KMin, st.KMax = k, k, k
			work := sparse.NewVector(dim, support)
			for _, v := range vs { // warm the residual and every buffer
				work.ReuseFrom(v)
				st.Encode(work)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				work.ReuseFrom(vs[i%len(vs)])
				st.Encode(work)
			}
		})
	}
}
