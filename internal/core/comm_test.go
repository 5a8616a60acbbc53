package core

import (
	"math"
	"math/rand"
	"testing"

	"psrahgadmm/internal/collective"
	"psrahgadmm/internal/exchange"
	"psrahgadmm/internal/simnet"
	"psrahgadmm/internal/sparse"
	"psrahgadmm/internal/transport"
	"psrahgadmm/internal/vec"
	"psrahgadmm/internal/wire"
)

// TestDenseRingTrace pins the generator the dense-exchange ring is charged
// from to the schedule it stands for: the two-phase ring's 2(p−1) steps,
// every member sending its successor one dense chunk per step — chunk
// (i−s) mod p in scatter step s, chunk (i+1−s) mod p in gather step s —
// in member-major, step-minor order (the order member traces are charged
// in), each message the wire payload of that chunk. The dimensions do not
// divide by p, so chunk sizes differ within a round.
func TestDenseRingTrace(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8} {
		for _, dim := range []int{7, 1003} {
			leaders := make([]int, p)
			for i := range leaders {
				leaders[i] = 2*i + 1 // Leaders are not the ranks 0..p−1
			}
			var f barrierFrame
			tr := f.denseRing(leaders, dim)
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
			if got, want := int64(tr.TotalBytes()), int64(2*(p-1)*(4*p+wire.DenseEntryBytes*dim)); got != want {
				t.Fatalf("p=%d dim=%d: %d bytes, want %d", p, dim, got, want)
			}
		}
	}
}

// TestMemberTracesChargeAsTheirConcatenation: a round is charged from its
// members' traces where the collectives logged them, and that charge is
// the charge of their concatenation — the same seconds, bit for bit, and
// the same bytes — with every trace rescaled to the codec's wire format
// exactly once. It covers a flat PSR round over 64 ranks, a tree merge
// among a few node Leaders in arrival order, and the sparse ring among
// every node's Leader, under the exact and the 8-bit codec.
func TestMemberTracesChargeAsTheirConcatenation(t *testing.T) {
	cfg := Config{Topo: simnet.Topology{Nodes: 16, WorkersPerNode: 4}, Cost: simnet.Tianhe2Like()}
	world := cfg.Topo.Size()
	all, leaders := make([]int, world), []int{}
	for r := range all {
		all[r] = r
		if r%cfg.Topo.WorkersPerNode == 0 {
			leaders = append(leaders, r)
		}
	}
	cases := []struct {
		name  string
		kind  commKind
		ranks []int
	}{
		{"flat PSR", commPSRSparse, all},
		{"tree merge", commPSRSparse, []int{36, 8, 60, 20}},
		{"sparse ring", commRingSparse, leaders},
	}
	const dim = 700
	rng := rand.New(rand.NewSource(3))
	for _, kind := range []exchange.Kind{exchange.Sparse, exchange.SparseQ8} {
		codec, err := exchange.For(kind)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range cases {
			env := newTestCrew(t, transport.NewChanFabricZeroCopy(world), false)
			env.codec = codec
			inputs := make([]*sparse.Vector, len(tc.ranks))
			for i := range inputs {
				inputs[i] = sparse.NewVector(dim, 0)
				for j := rng.Intn(9); j < dim; j += 1 + rng.Intn(25) {
					inputs[i].Append(int32(j), rng.NormFloat64())
				}
			}
			traces, err := groupAllreduce(env, tc.ranks, tc.kind, nil, inputs, new(sparse.Vector))
			if err != nil {
				t.Fatal(err)
			}
			if len(traces) != len(tc.ranks) {
				t.Fatalf("%s %s: %d traces for %d members", kind, tc.name, len(traces), len(tc.ranks))
			}
			var cat collective.Trace
			for _, tr := range traces {
				cat.Steps = max(cat.Steps, tr.Steps)
				cat.Events = append(cat.Events, tr.Events...)
			}
			onWire := codec.WireTrace(cat)
			if kind != exchange.Sparse && onWire.TotalBytes() >= cat.TotalBytes() {
				t.Fatalf("%s %s: wire bytes %d, nominal %d: nothing was rescaled", kind, tc.name, onWire.TotalBytes(), cat.TotalBytes())
			}

			f := barrierFrame{env: env}
			var timing iterTiming
			got := f.chargeNominal(cfg, &timing, traces...)
			if want := cfg.Cost.TraceTime(cfg.Topo, onWire); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s %s: member traces charged %v s, their concatenation %v s", kind, tc.name, got, want)
			}
			if timing.bytes != int64(onWire.TotalBytes()) {
				t.Fatalf("%s %s: member traces charged %d bytes, their concatenation %d", kind, tc.name, timing.bytes, onWire.TotalBytes())
			}
			// Scaled in place, once: the members' logs now hold the wire sizes.
			k := 0
			for _, tr := range traces {
				for _, e := range tr.Events {
					if e != onWire.Events[k] {
						t.Fatalf("%s %s: event %d is %+v after the charge, want %+v", kind, tc.name, k, e, onWire.Events[k])
					}
					k++
				}
			}
		}
	}
}
