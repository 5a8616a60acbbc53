package bench

import (
	"fmt"
	"math/rand"
	"sync"

	"psrahgadmm/internal/collective"
	"psrahgadmm/internal/metrics"
	"psrahgadmm/internal/simnet"
	"psrahgadmm/internal/sparse"
	"psrahgadmm/internal/transport"
	"psrahgadmm/internal/vec"
	"psrahgadmm/internal/wire"
)

// placement controls where each member's c nonzeros sit relative to the
// block layout — the variable eqs. 11–16 analyze.
type placement string

const (
	placeUniform   placement = "uniform"    // spread evenly over all blocks (Ring's best case)
	placeOwnBlock  placement = "own-block"  // all nonzeros in the member's own block (PSR's scatter best case)
	placeOneBlock  placement = "one-block"  // every member's nonzeros in block 0 (Ring's worst case)
	placeOffBlocks placement = "off-blocks" // spread over all blocks except the member's own (PSR's scatter worst case)
)

func placements() []placement {
	return []placement{placeUniform, placeOwnBlock, placeOneBlock, placeOffBlocks}
}

// buildPlaced constructs N sparse vectors of dimension dim with exactly c
// nonzeros each, positioned per the placement.
func buildPlaced(p placement, n, dim, c int, seed int64) []*sparse.Vector {
	r := rand.New(rand.NewSource(seed))
	chunks := vec.Split(dim, n)
	out := make([]*sparse.Vector, n)
	for m := 0; m < n; m++ {
		positions := map[int32]float64{}
		pick := func(lo, hi int) {
			for len(positions) < c {
				// Rejection-free enough at our densities.
				idx := int32(lo + r.Intn(hi-lo))
				positions[idx] = 1 + r.Float64()
			}
		}
		switch p {
		case placeUniform:
			pick(0, dim)
		case placeOwnBlock:
			pick(chunks[m].Lo, chunks[m].Hi)
		case placeOneBlock:
			pick(chunks[0].Lo, chunks[0].Hi)
		case placeOffBlocks:
			for len(positions) < c {
				idx := int32(r.Intn(dim))
				if int(idx) >= chunks[m].Lo && int(idx) < chunks[m].Hi {
					continue
				}
				positions[idx] = 1 + r.Float64()
			}
		}
		out[m] = sparse.FromMap(dim, positions)
	}
	return out
}

// collectiveKind selects the allreduce under test.
type collectiveKind int

const (
	kindRing collectiveKind = iota
	kindPSR
)

// runSparseCollective executes the named collective among n single-worker
// nodes and returns the virtual time and total payload bytes.
func runSparseCollective(kind collectiveKind, inputs []*sparse.Vector, cost simnet.CostModel) (secs float64, bytes int64, err error) {
	n := len(inputs)
	topo := simnet.Topology{Nodes: n, WorkersPerNode: 1}
	fab := transport.NewChanFabric(n)
	defer fab.Close()
	g := collective.WorldGroup(n)

	traces := make([]collective.Trace, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var ws collective.Workspace
			out := new(sparse.Vector)
			switch kind {
			case kindRing:
				traces[i], errs[i] = ws.RingAllreduceSparse(fab.Endpoint(i), g, 1, inputs[i], out)
			case kindPSR:
				traces[i], errs[i] = ws.PSRAllreduceSparse(fab.Endpoint(i), g, 1, inputs[i], out)
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			return 0, 0, errs[i]
		}
		bytes += int64(traces[i].TotalBytes())
	}
	return cost.TraceTime(topo, traces...), bytes, nil
}

// CostModel reproduces the §4.2 analysis (eqs. 11–16) empirically: the
// measured virtual time of Ring-Allreduce vs PSR-Allreduce on sparse
// vectors under the four extreme nonzero placements, alongside the
// theoretical envelopes. The claim under test: Ring's worst case grows
// ~N× worse than PSR's, while their best cases match.
func CostModel(opts Options) error {
	opts.fill()
	cost := simnet.Tianhe2Like()
	sizes := []int{4, 8, 16}
	if opts.Quick {
		sizes = []int{4, 8}
	}
	dim := 1 << 20
	c := 2048 // nonzeros per member

	theta := float64(wire.SparseEntryBytes) * cost.InterBeta
	tbl := metrics.NewTable(
		fmt.Sprintf("Cost model (eqs. 11–16) — measured allreduce time, dim=%d, c=%d nonzeros/member", dim, c),
		"N", "placement", "ring_time", "psr_time", "ring/psr",
		"ring_bound_hi", "psr_bound_hi")
	for _, n := range sizes {
		for _, p := range placements() {
			inputs := buildPlaced(p, n, dim, c, opts.Seed)
			ringT, _, err := runSparseCollective(kindRing, inputs, cost)
			if err != nil {
				return fmt.Errorf("costmodel ring N=%d %s: %w", n, p, err)
			}
			psrT, _, err := runSparseCollective(kindPSR, inputs, cost)
			if err != nil {
				return fmt.Errorf("costmodel psr N=%d %s: %w", n, p, err)
			}
			// Paper bounds: eq. 13 upper ≈ 3cNθ(N−1)/2; eq. 16 upper = cNθ.
			ringHi := 1.5 * float64(c*n*(n-1)) * theta
			psrHi := float64(c*n) * theta
			tbl.AddRow(n, string(p),
				metrics.Seconds(ringT), metrics.Seconds(psrT),
				ringT/psrT,
				metrics.Seconds(ringHi), metrics.Seconds(psrHi))
		}
	}
	if err := emit(opts, tbl); err != nil {
		return err
	}
	fmt.Fprintln(opts.Out,
		"expectation: ring/psr ≈ 1 under `uniform`; ring/psr grows with N under `one-block` (Ring's pathological case, eq. 13 vs eq. 16).")
	return nil
}
