package core

import (
	"testing"

	"psrahgadmm/internal/vec"
	"psrahgadmm/internal/wire"
)

// TestDenseRingTrace pins the generator the dense-exchange ring is charged
// from to the schedule it stands for: the two-phase ring's 2(p−1) steps,
// every member sending its successor one dense chunk per step — chunk
// (i−s) mod p in scatter step s, chunk (i+1−s) mod p in gather step s —
// in member-major, step-minor order (crew.mergedTrace's), each message the
// wire payload of that chunk. The dimensions do not divide by p, so chunk
// sizes differ within a round.
func TestDenseRingTrace(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8} {
		for _, dim := range []int{7, 1003} {
			leaders := make([]int, p)
			for i := range leaders {
				leaders[i] = 2*i + 1 // Leaders are not the ranks 0..p−1
			}
			tr := denseRingTrace(leaders, dim)
			if tr.Steps != 2*(p-1) || len(tr.Events) != 2*p*(p-1) {
				t.Fatalf("p=%d dim=%d: %d steps, %d events; want %d, %d", p, dim, tr.Steps, len(tr.Events), 2*(p-1), 2*p*(p-1))
			}
			chunks := vec.Split(dim, p)
			mod := func(a int) int { return ((a % p) + p) % p }
			k := 0
			for i, r := range leaders {
				for s := 0; s < 2*(p-1); s++ {
					c := chunks[mod(i-s)]
					if s >= p-1 {
						c = chunks[mod(i+1-(s-(p-1)))]
					}
					want := wire.PayloadBytes(wire.DenseMsg(0, make([]float64, c.Len())))
					e := tr.Events[k]
					if e.Step != s || e.From != r || e.To != leaders[(i+1)%p] || e.Bytes != want {
						t.Fatalf("p=%d dim=%d event %d = %+v; want step %d, %d→%d, %d bytes", p, dim, k, e, s, r, leaders[(i+1)%p], want)
					}
					k++
				}
			}
			// Each step moves every chunk once (p headers, dim values): the
			// volume is a function of p and the dimension alone.
			if got, want := traceBytes(tr), int64(2*(p-1)*(4*p+wire.DenseEntryBytes*dim)); got != want {
				t.Fatalf("p=%d dim=%d: %d bytes, want %d", p, dim, got, want)
			}
		}
	}
}
