package collective

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"psrahgadmm/internal/raceflag"
	"psrahgadmm/internal/sparse"
	"psrahgadmm/internal/transport"
)

func benchSparseVec(r *rand.Rand, dim int, density float64) *sparse.Vector {
	v := sparse.NewVector(dim, 0)
	for i := 0; i < dim; i++ {
		if r.Float64() < density {
			v.Index = append(v.Index, int32(i))
			v.Value = append(v.Value, r.NormFloat64())
		}
	}
	return v
}

// memberWorld is n persistent member goroutines on the zero-copy fabric,
// each holding its own Workspace, input and output across rounds — the
// engine crew's steady state. A round signals every member once and waits
// for all of them: spawning the goroutines per round would charge the
// harness's own allocations to the collective. newMemberWorld returns it
// warmed by three rounds, so every buffer has grown to its working size.
type memberWorld struct {
	starts []chan struct{}
	wg     sync.WaitGroup
}

func newMemberWorld(tb testing.TB, n int, call sparseAllreduce) *memberWorld {
	fab := transport.NewChanFabricZeroCopy(n)
	g := WorldGroup(n)
	r := rand.New(rand.NewSource(21))
	w := &memberWorld{starts: make([]chan struct{}, n)}
	for m := range w.starts {
		ws, ep := new(Workspace), fab.Endpoint(m)
		in, out := benchSparseVec(r, 1<<14, 0.05), new(sparse.Vector)
		start := make(chan struct{}, 1)
		w.starts[m] = start
		go func() {
			for range start {
				if _, err := call(ws, ep, g, 64, in, out); err != nil {
					tb.Error(err)
				}
				w.wg.Done()
			}
		}()
	}
	tb.Cleanup(func() {
		for _, start := range w.starts {
			close(start)
		}
		fab.Close()
	})
	for i := 0; i < 3; i++ {
		w.round()
	}
	return w
}

// round runs one collective call on every member.
func (w *memberWorld) round() {
	w.wg.Add(len(w.starts))
	for _, start := range w.starts {
		start <- struct{}{}
	}
	w.wg.Wait()
}

func benchMemberWorld(b *testing.B, n int, call sparseAllreduce) {
	w := newMemberWorld(b, n, call)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.round()
	}
}

// TestPSRAllreduceSparseAllocatesNothing: a warmed round of the sparse PSR
// allreduce allocates nothing across the whole world, at 4 members and at
// the 64 of engine-wide-64, where a round is 8 064 small messages; nor does
// the engine's form, in which only root 0 receives the allgather.
func TestPSRAllreduceSparseAllocatesNothing(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	rooted := func(ws *Workspace, ep transport.Endpoint, g Group, tag int32, v, out *sparse.Vector) (Trace, error) {
		return ws.PSRAllreduceSparseAgg(ep, g, tag, v, out, AggSpec{}, 0)
	}
	for _, n := range []int{4, 64} {
		for name, call := range map[string]sparseAllreduce{fmt.Sprint(n): (*Workspace).PSRAllreduceSparse, fmt.Sprintf("root0/%d", n): rooted} {
			t.Run(name, func(t *testing.T) {
				w := newMemberWorld(t, n, call)
				if a := testing.AllocsPerRun(20, w.round); a != 0 {
					t.Fatalf("warmed %d-member round allocates %v objects, want 0", n, a)
				}
			})
		}
	}
}

// BenchmarkPSRAllreduceSparse drives the paper's sparse allreduce — the
// engine's per-round reduce — across a 4-member world. allocs/op is the
// whole world's per-round allocation.
func BenchmarkPSRAllreduceSparse(b *testing.B) {
	benchMemberWorld(b, 4, (*Workspace).PSRAllreduceSparse)
}

// BenchmarkPSRAllreduceSparse64 is the same round among 64 members, the
// world of engine-wide-64: 8 064 messages of a few hundred bytes, so the
// fabric and the per-message bookkeeping are the cost, not the reduce.
func BenchmarkPSRAllreduceSparse64(b *testing.B) {
	benchMemberWorld(b, 64, (*Workspace).PSRAllreduceSparse)
}

// BenchmarkRingAllreduceSparse is the GR-ADMM ring schedule at the same
// size, for direct comparison.
func BenchmarkRingAllreduceSparse(b *testing.B) {
	benchMemberWorld(b, 4, (*Workspace).RingAllreduceSparse)
}
