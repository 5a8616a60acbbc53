// Package simnet models the cluster the paper ran on — virtual time only.
// The algorithms move real bytes over real fabrics (package transport); what
// a laptop cannot reproduce is Tianhe-2's *clock*: a bus an order of
// magnitude faster than the interconnect, per-message latencies, and slow
// nodes. simnet supplies that clock: an α/β (latency/bandwidth) cost model
// over the collective traces the algorithms actually emitted, a hierarchical
// topology (nodes × workers-per-node), a deterministic compute-time model
// driven by the work the TRON solver actually performed, and seeded
// straggler injection following §5.5's methodology (randomly chosen nodes
// get their computation time inflated).
//
// Everything here is a pure function of (seed, inputs): experiment
// timelines are bit-reproducible.
package simnet

import "fmt"

// Topology is a two-level cluster: Nodes physical nodes, each running
// WorkersPerNode worker ranks. Rank r lives on node r/WorkersPerNode —
// matching how MPI ranks are laid out contiguously across nodes.
type Topology struct {
	Nodes          int
	WorkersPerNode int
}

// Size returns the total rank count.
func (t Topology) Size() int { return t.Nodes * t.WorkersPerNode }

// NodeOf returns the physical node hosting rank r.
func (t Topology) NodeOf(r int) int { return r / t.WorkersPerNode }

// WorkersOf returns the ranks hosted on node n, in rank order.
func (t Topology) WorkersOf(n int) []int {
	out := make([]int, t.WorkersPerNode)
	for i := range out {
		out[i] = n*t.WorkersPerNode + i
	}
	return out
}

// Validate checks the topology is non-degenerate.
func (t Topology) Validate() error {
	if t.Nodes <= 0 || t.WorkersPerNode <= 0 {
		return fmt.Errorf("simnet: topology %dx%d invalid", t.Nodes, t.WorkersPerNode)
	}
	return nil
}

// CostModel holds the α/β link parameters and the compute-rate constant.
// Alpha is seconds per message, Beta seconds per payload byte; Intra
// applies when both endpoints share a node (memory bus / shared memory),
// Inter when they cross the interconnect.
type CostModel struct {
	IntraAlpha, IntraBeta float64
	InterAlpha, InterBeta float64
	// ComputePerUnit converts solver work units (see WorkUnits) into
	// seconds.
	ComputePerUnit float64
}

// Tianhe2Like returns parameters shaped after the paper's platform: TH2
// Express-2+ at 14 Gbps × 8 lanes ≈ 1.4 GB/s effective per link with ~5 µs
// MPI latency, and an intra-node bus roughly 10× faster with sub-µs
// latency. Absolute values are only order-of-magnitude; the figures depend
// on the intra/inter ratio and on relative growth with cluster size.
func Tianhe2Like() CostModel {
	return CostModel{
		IntraAlpha:     5e-7,
		IntraBeta:      1.0 / 12e9, // ~12 GB/s bus
		InterAlpha:     5e-6,
		InterBeta:      1.0 / 1.4e9, // ~1.4 GB/s interconnect
		ComputePerUnit: 2e-9,        // ~2 flops/unit at ~1 Gflop/s effective
	}
}

// ScaleBandwidth returns a copy of c with both link bandwidths divided by
// k (betas multiplied). Scaled-down reproductions use this to preserve the
// original system's communication-to-computation ratio: our datasets are
// tens of times lower-dimensional than the paper's, so at unscaled
// bandwidth every transfer would vanish next to compute and no
// communication effect could be observed.
func (c CostModel) ScaleBandwidth(k float64) CostModel {
	c.IntraBeta *= k
	c.InterBeta *= k
	return c
}

// ScaleCompute returns a copy of c with compute k× slower. Together with
// ScaleBandwidth this calibrates a scaled-down problem back to the
// original system's compute-to-communication balance.
func (c CostModel) ScaleCompute(k float64) CostModel {
	c.ComputePerUnit *= k
	return c
}

// WorkUnits converts a subproblem solve's observed work into model units:
// each function evaluation and each Hessian-product equivalent streams the
// shard once (≈ 2·nnz flops), and the vector updates stream the dense
// iterate a handful of times. cgIters is solver.TronResult.CGIters, which
// counts an exact row-space Newton step as its one product plus its m×m
// Cholesky's m³/6 flops in the same 2·nnz currency, rounded up: the price
// of the x-space step, which the row-space loop keeps.
func WorkUnits(cgIters, funEvals, shardNNZ, dim int) float64 {
	return float64(cgIters+funEvals)*2*float64(shardNNZ) + 6*float64(dim)
}

// ComputeTime converts work units into virtual seconds.
func (c CostModel) ComputeTime(units float64) float64 {
	return units * c.ComputePerUnit
}
