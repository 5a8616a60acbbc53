package collective

import (
	"psrahgadmm/internal/transport"
)

// RingAllreduceDense sums x elementwise across the group, in place. Every
// member must pass a slice of identical length. The algorithm is the
// standard two-phase ring: len(g)-1 Scatter-Reduce steps in which each
// member forwards one block to its successor while reducing the block
// arriving from its predecessor, then len(g)-1 Allgather steps circulating
// the finished blocks. tagBase reserves tags [tagBase, tagBase+2).
func RingAllreduceDense(ep transport.Endpoint, g Group, tagBase int32, x []float64) (Trace, error) {
	var ws Workspace
	return ws.RingAllreduceDense(ep, g, tagBase, x)
}
