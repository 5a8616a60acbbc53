package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"psrahgadmm/internal/sparse"
	"psrahgadmm/internal/vec"
)

// blockView returns w's view of subscribed block b written densely, or nil
// when unsubscribed.
func blockView(w *worker, b int) []float64 {
	if _, ok := slices.BinarySearch(w.smap.Subs[w.rank], int32(b)); !ok {
		return nil
	}
	c := w.smap.Part.Chunk(b)
	return w.zSparse.ToDense()[c.Lo:c.Hi]
}

// assembleDense is the body assembleInto had while it cost the dimension:
// every live subscriber's dense view added in rank order, then averaged.
func assembleDense(s *stateStore, out []float64, alive func(rank int) bool) {
	clear(out)
	for b := 0; b < s.smap.Part.Blocks; b++ {
		dst := out[s.offs[b]:s.offs[b+1]]
		n := 0
		for _, r := range s.smap.Subscribers(b) {
			if !alive(int(r)) {
				continue
			}
			vec.Axpy(1, blockView(s.env.ws[r], b), dst)
			n++
		}
		if n > 0 {
			vec.Scale(1/float64(n), dst)
		}
	}
}

// TestAssembleIntoMatchesDenseSum: adding each view over its support is the
// dense rank-order sum bit for bit — under the replicated map and a
// 256-block sharded one, with every rank holding a different iterate (SSP),
// ranks dead, blocks left without a live subscriber, and views that carry
// explicit −0 and NaN entries.
func TestAssembleIntoMatchesDenseSum(t *testing.T) {
	const dim, world = 3000, 7
	negZero := math.Copysign(0, -1)
	for _, sharded := range []bool{false, true} {
		r := rand.New(rand.NewSource(24))
		env := &strategyEnv{dim: dim}
		for rank := 0; rank < world; rank++ {
			w := &worker{rank: rank, dim: dim}
			// Rank 0 alone touches the first columns, so killing it leaves
			// those blocks of the sharded map without a live subscriber.
			lo := 40
			if rank == 0 {
				lo = 0
			}
			for c := lo; c < dim; c++ {
				if c < 40 || r.Intn(9) == 0 {
					w.active = append(w.active, int32(c))
				}
			}
			w.zA = make([]float64, len(w.active))
			env.ws = append(env.ws, w)
		}
		s := newStateStore(env, sharded, 256)
		if got := s.smap.Part.Blocks; sharded != (got == 256) {
			t.Fatalf("sharded=%v: %d blocks", sharded, got)
		}
		// One summary across every call, as the engine keeps one: each call
		// clears only the support the last one left. The first call finds
		// stale values on the support it is handed.
		got := &zSummary{z: make([]float64, dim), supp: []int32{0, dim - 1}}
		got.z[0], got.z[dim-1] = 5, math.NaN()
		for round := 0; round < 3; round++ { // later iterates overwrite earlier supports
			for _, w := range env.ws {
				z := sparse.NewVector(dim, 0)
				for c := 0; c < dim; c++ {
					switch r.Intn(12) {
					case 0, 1, 2:
						z.Append(int32(c), r.NormFloat64())
					case 3:
						z.Append(int32(c), negZero)
					case 4:
						z.Append(int32(c), 0)
					case 5:
						if r.Intn(20) == 0 {
							z.Append(int32(c), math.NaN())
						}
					}
				}
				w.keepZ(z)
			}
			for _, dead := range [][]int{nil, {0}, {0, 3, 6}, {1, 2, 3, 4, 5, 6}} {
				alive := func(rank int) bool {
					for _, d := range dead {
						if d == rank {
							return false
						}
					}
					return true
				}
				if sharded && !alive(0) {
					if counts := s.smap.LiveCounts(nil, alive); counts[0] != 0 {
						t.Fatalf("block 0 has %d live subscribers with rank 0 dead, want none", counts[0])
					}
				}
				want := make([]float64, dim)
				s.assembleInto(got, alive, s.smap.LiveCounts(nil, alive))
				assembleDense(s, want, alive)
				nans := 0
				for j := range want {
					if math.Float64bits(got.z[j]) != math.Float64bits(want[j]) {
						t.Fatalf("sharded=%v round %d dead %v: out[%d] = %x, dense sum %x",
							sharded, round, dead, j, math.Float64bits(got.z[j]), math.Float64bits(want[j]))
					}
					if math.IsNaN(want[j]) {
						nans++
					}
				}
				// The support is the live views' union, ascending.
				union := make(map[int32]bool)
				for r, w := range env.ws {
					if alive(r) {
						for _, j := range w.zSparse.Index {
							union[j] = true
						}
					}
				}
				if len(got.supp) != len(union) {
					t.Fatalf("sharded=%v round %d dead %v: support of %d entries, union of %d", sharded, round, dead, len(got.supp), len(union))
				}
				for k, j := range got.supp {
					if !union[j] || k > 0 && j <= got.supp[k-1] {
						t.Fatalf("sharded=%v round %d dead %v: support[%d] = %d is not the ascending union", sharded, round, dead, k, j)
					}
				}
				if len(dead) == 0 && nans == 0 {
					t.Fatalf("sharded=%v round %d: no NaN reached the sum; the case is not covered", sharded, round)
				}
			}
		}
	}
}
