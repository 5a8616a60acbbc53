package transport

import (
	"testing"

	"psrahgadmm/internal/sparse"
	"psrahgadmm/internal/wire"
)

// TestSelfSendDoesNotAliasSender: a loopback Send delivers payloads of its
// own on every fabric, so a sender that rewrites its buffers after Send
// returns does not change what its own Recv reads.
func TestSelfSendDoesNotAliasSender(t *testing.T) {
	for _, fab := range fabrics() {
		t.Run(fab, func(t *testing.T) {
			ep := world(t, fab, 2)[0]
			sv := sparse.FromDense([]float64{0, 7, 0, -1})
			x := []float64{1.5, -2.5}
			if err := ep.Send(0, wire.SparseMsg(1, sv)); err != nil {
				t.Fatal(err)
			}
			if err := ep.Send(0, wire.DenseMsg(2, x)); err != nil {
				t.Fatal(err)
			}
			sv.Value[0], x[0] = 99, 99
			m, err := ep.Recv(0, 1)
			if err != nil {
				t.Fatal(err)
			}
			if m.Sparse == sv || m.Sparse.Value[0] != 7 {
				t.Fatalf("self-sent sparse payload aliases the sender: reads %v", m.Sparse.Value)
			}
			if m, err = ep.Recv(0, 2); err != nil {
				t.Fatal(err)
			}
			if m.Dense[0] != 1.5 {
				t.Fatalf("self-sent dense payload aliases the sender: reads %v", m.Dense)
			}
		})
	}
}

// poolHolds reports whether the decode pool hands out v within a few gets.
// A Put lands in the calling P's own slot, which the next Get on it takes
// first, so a vector just pooled is found; one never pooled cannot be.
func poolHolds(v *sparse.Vector) bool {
	for i := 0; i < 8; i++ {
		if recvVecs.Get().(*sparse.Vector) == v {
			return true
		}
	}
	return false
}

// TestReleasePoolsOnlyDecodedPayloads: only vectors a TCP connection reader
// decoded may enter the decode pool. The in-process fabrics — copying or
// zero-copy — and FaultFabric, which may deliver one payload twice
// (DupProb), offer no Release at all, so nothing they deliver is ever
// recycled; a TCP self-send's copy is not the pool's, and releasing it is a
// no-op.
func TestReleasePoolsOnlyDecodedPayloads(t *testing.T) {
	zeroCopy := NewChanFabricZeroCopy(2)
	defer zeroCopy.Close()
	dup := NewFaultFabric(NewChanFabric(2), FaultPlan{DupProb: 1})
	defer dup.Close()
	for name, ep := range map[string]Endpoint{
		"chan":              world(t, "chan", 2)[0],
		"chan zero-copy":    zeroCopy.Endpoint(0),
		"fault, dup-prob 1": dup.Endpoint(0),
	} {
		if _, ok := ep.(Releaser); ok {
			t.Fatalf("%s: endpoint offers Release", name)
		}
	}

	eps := world(t, "tcp", 2)
	rel := eps[0].(Releaser)
	if err := eps[0].Send(0, wire.SparseMsg(1, sparse.FromDense([]float64{3, 0, 4}))); err != nil {
		t.Fatal(err)
	}
	self, err := eps[0].Recv(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	rel.Release(self)
	if poolHolds(self.Sparse) {
		t.Fatal("a released self-send reached the decode pool")
	}
}
