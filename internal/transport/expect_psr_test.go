package transport_test

import (
	"runtime"
	"strings"
	"testing"

	"psrahgadmm/internal/collective"
	"psrahgadmm/internal/sparse"
	"psrahgadmm/internal/transport"
	"psrahgadmm/internal/wire"
)

// TestWakeAfterRefusedPSRPhase: a PSR scatter that refuses a non-member's
// frame leaves no count behind, so the member's next single-frame Recv
// parks until one frame and returns as soon as it is queued.
func TestWakeAfterRefusedPSRPhase(t *testing.T) {
	const p = 3 // rank p is outside the group
	f := transport.NewChanFabric(p + 1)
	defer f.Close()
	ep := f.Endpoint(0)
	// Queued before member 0 starts, and no member runs: its scatter's
	// first frame is the stranger's.
	stranger := sparse.FromDense([]float64{1, 2, 3})
	if err := f.Endpoint(p).Send(0, wire.SparseMsg(0, stranger)); err != nil {
		t.Fatal(err)
	}
	var ws collective.Workspace
	v := sparse.FromDense([]float64{1, 0, 2, 0, 3, 4})
	_, err := ws.PSRAllreduceSparse(ep, collective.WorldGroup(p), 0, v, new(sparse.Vector))
	if err == nil || !strings.Contains(err.Error(), "unexpected sender 3") {
		t.Fatalf("PSR: %v, want the non-member's frame refused", err)
	}

	done := make(chan error, 1)
	go func() {
		m, err := ep.Recv(1, 7)
		if err == nil && m.Ints[0] != 42 {
			t.Errorf("Recv: %v, want rank 1's frame", m)
		}
		done <- err
	}()
	for transport.ParkedFor(ep) == 0 {
		runtime.Gosched()
	}
	if got := transport.ParkedFor(ep); got != 1 {
		t.Fatalf("the next Recv parked until %d frames, want 1", got)
	}
	if err := f.Endpoint(1).Send(0, wire.Control(7, 42)); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
