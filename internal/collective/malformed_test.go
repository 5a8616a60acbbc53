package collective

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"psrahgadmm/internal/shard"
	"psrahgadmm/internal/sparse"
	"psrahgadmm/internal/transport"
	"psrahgadmm/internal/wire"
)

// TestSparseCollectivesRejectWrongKind runs each receive phase of the
// sparse collectives among three honest members, except that one peer's
// frame to member 0 on the phase's tag is replaced by a bad one. Member 0
// must refuse it with an error — never the nil-dereference panic an
// unchecked in.Sparse.Dim used to cause, nor a duplicate that overwrites a
// slot and leaves another nil:
//   - a dense or control frame, or a sparse frame of the wrong dimension,
//     with ErrPayloadKind;
//   - a second frame from one member, with "duplicate sender";
//   - a frame from a rank outside the group, with "unexpected sender".
//
// The last two apply to the any-source phases alone: the ring and the
// broadcast receive from one named peer. A phase's subtests run in the
// order of the inputs (name, name#01, …); the ring's and PSR's first-phase
// rows keep the collective's name. Member 0 runs the "fresh" rows on a new
// workspace and every other row on one workspace, re-entered after each
// aborted call.
func TestSparseCollectivesRejectWrongKind(t *testing.T) {
	const p, dim = 3, 6
	g := WorldGroup(p)
	plan := shard.FullPlan(shard.NewPartition(dim, p), p)
	type collectiveRun func(ws *Workspace, ep transport.Endpoint, v, out *sparse.Vector) error
	ring := func(ws *Workspace, ep transport.Endpoint, v, out *sparse.Vector) error {
		_, err := ws.RingAllreduceSparse(ep, g, 0, v, out)
		return err
	}
	broadcast := func(ws *Workspace, ep transport.Endpoint, v, out *sparse.Vector) error {
		_, err := ws.BroadcastSparse(ep, g, 0, 1, v, out, v.Dim)
		return err
	}
	reduce := func(ws *Workspace, ep transport.Endpoint, v, out *sparse.Vector) error {
		_, err := ws.ReduceSparse(ep, g, 0, 0, v, out)
		return err
	}
	psr := func(ws *Workspace, ep transport.Endpoint, v, out *sparse.Vector) error {
		_, err := ws.PSRAllreduceSparse(ep, g, 0, v, out)
		return err
	}
	sharded := func(ws *Workspace, ep transport.Endpoint, v, out *sparse.Vector) error {
		_, err := ws.ShardAllreduceSparse(ep, g, 0, plan, v, out)
		return err
	}
	phases := []struct {
		name   string
		tag    int32 // the phase's tag
		feeder int   // the peer whose first frame to member 0 on tag is bad
		inputs int   // how many of the bad inputs below apply
		fresh  bool
		run    collectiveRun
	}{
		{"ring-allreduce", 0, 2, 3, false, ring}, // its reduce-scatter
		{"ring-allgather", 1, 2, 3, false, ring},
		{"broadcast-member", 0, 1, 3, true, broadcast},
		{"ws-broadcast-member", 0, 1, 3, false, broadcast},
		{"reduce-root", 0, 1, 5, true, reduce},
		{"ws-reduce-root", 0, 1, 5, false, reduce},
		{"psr-allreduce", 0, 1, 5, false, psr}, // its scatter-reduce
		{"psr-allgather", 1, 1, 5, false, psr},
		{"shard-scatter", 0, 1, 5, false, sharded},
		{"shard-gather", 1, 1, 5, false, sharded},
	}
	isKind := func(err error) bool { return errors.Is(err, ErrPayloadKind) }
	says := func(s string) func(error) bool {
		return func(err error) bool { return err != nil && strings.Contains(err.Error(), s) }
	}
	inputs := []struct {
		name   string
		send   func(f *transport.ChanFabric, from int, m wire.Message) error
		refuse func(error) bool
	}{
		{"dense", func(f *transport.ChanFabric, from int, m wire.Message) error {
			return f.Endpoint(from).Send(0, wire.DenseMsg(m.Tag, []float64{1, 2, 3}))
		}, isKind},
		{"control", func(f *transport.ChanFabric, from int, m wire.Message) error {
			return f.Endpoint(from).Send(0, wire.Control(m.Tag, 7, 8))
		}, isKind},
		{"wrong-dim", func(f *transport.ChanFabric, from int, m wire.Message) error {
			return f.Endpoint(from).Send(0, wire.SparseMsg(m.Tag, sparse.FromDense(make([]float64, m.Sparse.Dim+1))))
		}, isKind},
		{"duplicate", func(f *transport.ChanFabric, from int, m wire.Message) error {
			for range 2 {
				if err := f.Endpoint(from).Send(0, m); err != nil {
					return err
				}
			}
			return nil
		}, says("duplicate sender")},
		{"non-member", func(f *transport.ChanFabric, from int, m wire.Message) error {
			return f.Endpoint(p).Send(0, m)
		}, says(fmt.Sprintf("unexpected sender %d", p))},
	}
	vecOf := func(rank int) *sparse.Vector {
		return sparse.FromDense([]float64{1, 0, 2, 0, 3, float64(rank)})
	}
	var ws Workspace
	for _, ph := range phases {
		for _, in := range inputs[:ph.inputs] {
			t.Run(ph.name, func(t *testing.T) {
				f := transport.NewChanFabric(p + 1) // rank p is outside the group
				gate, stop := make(chan struct{}), make(chan struct{})
				var wg sync.WaitGroup
				for rk := 1; rk < p; rk++ {
					ep := &tamperEndpoint{Endpoint: f.Endpoint(rk), tag: ph.tag, gate: gate, stop: stop}
					if rk == ph.feeder {
						ep.tamper = func(m wire.Message) error { return in.send(f, rk, m) }
					}
					wg.Add(1)
					go func() {
						defer wg.Done()
						// An honest peer fails once member 0 aborts and the
						// fabric closes; that error says nothing.
						_ = ph.run(new(Workspace), ep, vecOf(rk), new(sparse.Vector))
					}()
				}
				err := func() (err error) {
					defer func() {
						if v := recover(); v != nil {
							err = fmt.Errorf("panicked: %v", v)
						}
					}()
					mine := &ws
					if ph.fresh {
						mine = new(Workspace)
					}
					return ph.run(mine, f.Endpoint(0), vecOf(0), new(sparse.Vector))
				}()
				f.Close()
				close(stop)
				wg.Wait()
				if !in.refuse(err) {
					t.Fatalf("member 0: %v, want the %s frame refused", err, in.name)
				}
			})
		}
	}
}

// tamperEndpoint hands its rank's first frame to member 0 on tag to tamper
// in place of sending it, then opens gate. Every other frame to member 0 on
// that tag waits for the gate (or stop), so member 0 meets the bad frames
// before any honest one of the phase.
type tamperEndpoint struct {
	transport.Endpoint
	tag        int32
	tamper     func(m wire.Message) error // nil on an honest peer
	gate, stop chan struct{}
}

func (e *tamperEndpoint) SendNonBlocking() bool { return true }

func (e *tamperEndpoint) Send(to int, m wire.Message) error {
	if to != 0 || m.Tag != e.tag {
		return e.Endpoint.Send(to, m)
	}
	if tamper := e.tamper; tamper != nil {
		e.tamper = nil
		defer close(e.gate)
		return tamper(m)
	}
	select {
	case <-e.gate:
	case <-e.stop:
	}
	return e.Endpoint.Send(to, m)
}
