package collective

import (
	"errors"
	"sync"
	"testing"

	"psrahgadmm/internal/sparse"
	"psrahgadmm/internal/transport"
	"psrahgadmm/internal/wire"
)

// TestSparseCollectivesRejectWrongKind injects mis-typed messages (dense
// and control payloads) onto the tags the sparse collectives receive on.
// Every receiving member must surface ErrPayloadKind — never the
// nil-dereference panic the unchecked in.Sparse.Dim access used to cause.
func TestSparseCollectivesRejectWrongKind(t *testing.T) {
	g := Group{Ranks: []int{0, 1}}
	evil := []wire.Message{
		wire.DenseMsg(0, []float64{1, 2, 3}), // kind mismatch: dense
		wire.Control(0, 7, 8),                // kind mismatch: control
	}
	type run struct {
		name string
		recv func(ep transport.Endpoint, v *sparse.Vector) error
	}
	var ws Workspace
	out := new(sparse.Vector)
	// The first two run on a fresh Workspace; the rest share ws, so they
	// also cover a workspace re-entered after an aborted call.
	runs := []run{
		{"reduce-root", func(ep transport.Endpoint, v *sparse.Vector) error {
			_, err := new(Workspace).ReduceSparse(ep, g, 0, 0, v, out)
			return err
		}},
		{"broadcast-member", func(ep transport.Endpoint, v *sparse.Vector) error {
			// Receiving member with root index 1 (the injector).
			_, err := new(Workspace).BroadcastSparse(ep, g, 0, 1, v, out)
			return err
		}},
		{"ring-allreduce", func(ep transport.Endpoint, v *sparse.Vector) error {
			_, err := ws.RingAllreduceSparse(ep, g, 0, v, out)
			return err
		}},
		{"psr-allreduce", func(ep transport.Endpoint, v *sparse.Vector) error {
			_, err := ws.PSRAllreduceSparse(ep, g, 0, v, out)
			return err
		}},
		{"ws-reduce-root", func(ep transport.Endpoint, v *sparse.Vector) error {
			_, err := ws.ReduceSparse(ep, g, 0, 0, v, out)
			return err
		}},
		{"ws-broadcast-member", func(ep transport.Endpoint, v *sparse.Vector) error {
			_, err := ws.BroadcastSparse(ep, g, 0, 1, v, out)
			return err
		}},
	}
	for _, tc := range runs {
		for _, bad := range evil {
			t.Run(tc.name, func(t *testing.T) {
				f := transport.NewChanFabric(2)
				defer f.Close()
				v := sparse.FromDense([]float64{1, 0, 2, 0})

				var wg sync.WaitGroup
				wg.Add(1)
				go func() {
					defer wg.Done()
					// Rank 1 injects the mis-typed frame on every tag the
					// receiver might block on, instead of participating.
					ep := f.Endpoint(1)
					for tag := int32(0); tag < 2; tag++ {
						m := bad
						m.Tag = tag
						if err := ep.Send(0, m); err != nil {
							t.Errorf("inject: %v", err)
							return
						}
					}
				}()

				err := func() (err error) {
					defer func() {
						if p := recover(); p != nil {
							t.Errorf("receiver panicked: %v", p)
						}
					}()
					return tc.recv(f.Endpoint(0), v)
				}()
				wg.Wait()
				if err == nil {
					t.Fatal("mis-typed payload accepted")
				}
				if !errors.Is(err, ErrPayloadKind) {
					t.Fatalf("error %v is not ErrPayloadKind", err)
				}
			})
		}
	}
}
