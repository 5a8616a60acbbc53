package collective

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"psrahgadmm/internal/sparse"
	"psrahgadmm/internal/transport"
	"psrahgadmm/internal/wire"
)

// releaseSpy is an endpoint that offers Release and records, per call,
// which sparse payloads its Recv returned and which the caller released.
type releaseSpy struct {
	transport.Endpoint
	got      map[*sparse.Vector]int32 // payload → the rank it came from
	released []wire.Message
}

func (s *releaseSpy) Recv(from int, tag int32) (wire.Message, error) {
	m, err := s.Endpoint.Recv(from, tag)
	if err == nil && m.Sparse != nil {
		s.got[m.Sparse] = m.From
	}
	return m, err
}

func (s *releaseSpy) Release(m wire.Message) { s.released = append(s.released, m) }

// check reports an error unless the caller released every payload it
// received exactly once, with its sender, and nothing else; then it forgets
// the call.
func (s *releaseSpy) check() error {
	if len(s.released) != len(s.got) {
		return fmt.Errorf("released %d payloads, received %d", len(s.released), len(s.got))
	}
	for _, m := range s.released {
		from, ok := s.got[m.Sparse]
		if !ok {
			return fmt.Errorf("released a payload it never received (or twice), tagged from %d", m.From)
		}
		if from != m.From {
			return fmt.Errorf("released the payload from %d as from %d", from, m.From)
		}
		delete(s.got, m.Sparse)
	}
	s.released = s.released[:0]
	return nil
}

// TestWorkspaceReleasesExactlyWhatItReceived: over an endpoint that offers
// Release, the reduce, broadcast, ring and PSR calls hand back each block
// they received once, naming its sender, and never the caller's vectors or
// their own buffers — whatever the group size, root, or whether the member
// assembles a result.
func TestWorkspaceReleasesExactlyWhatItReceived(t *testing.T) {
	const dim = 40
	for _, p := range []int{1, 2, 3, 5} {
		vs, _ := sparseInputs(rand.New(rand.NewSource(int64(p))), p, dim, 0.3)
		runRanks(t, p, func(ep transport.Endpoint) error {
			spy := &releaseSpy{Endpoint: ep, got: make(map[*sparse.Vector]int32)}
			g, me := WorldGroup(p), ep.Rank()
			var ws Workspace
			out := new(sparse.Vector)
			calls := []struct {
				name string
				run  func(tag int32) error
			}{
				{"reduce to 0", func(tag int32) error {
					_, err := ws.ReduceSparse(spy, g, tag, 0, vs[me], out)
					return err
				}},
				{"reduce to last", func(tag int32) error {
					_, err := ws.ReduceSparse(spy, g, tag, p-1, vs[me], out)
					return err
				}},
				{"broadcast", func(tag int32) error {
					_, err := ws.BroadcastSparse(spy, g, tag, p/2, vs[me], out)
					return err
				}},
				{"ring", func(tag int32) error {
					_, err := ws.RingAllreduceSparse(spy, g, tag, vs[me], out)
					return err
				}},
				{"psr", func(tag int32) error {
					_, err := ws.PSRAllreduceSparse(spy, g, tag, vs[me], out)
					return err
				}},
				{"psr, nothing assembled", func(tag int32) error {
					_, err := ws.PSRAllreduceSparse(spy, g, tag, vs[me], nil)
					return err
				}},
			}
			for i, c := range calls {
				if err := c.run(int32(10 * (i + 1))); err != nil {
					return fmt.Errorf("p=%d %s: %w", p, c.name, err)
				}
				if err := spy.check(); err != nil {
					return fmt.Errorf("p=%d %s: %w", p, c.name, err)
				}
			}
			return nil
		})
	}
}

// tcpWorld brings up an n-rank TCP mesh on loopback ports reserved up
// front (listen on :0, note the address, close). Another socket can take a
// reserved port before its rank listens — an outgoing dial's ephemeral
// port, say — and an attempt then fails within the dial budget, so it is
// retried on fresh ports.
func tcpWorld(t *testing.T, n int) []transport.Endpoint {
	t.Helper()
	var err error
	for try := 0; try < 5; try++ {
		addrs := make([]string, n)
		for i := range addrs {
			ln, lerr := net.Listen("tcp", "127.0.0.1:0")
			if lerr != nil {
				t.Fatal(lerr)
			}
			addrs[i] = ln.Addr().String()
			ln.Close()
		}
		eps := make([]transport.Endpoint, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i := range eps {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				eps[i], errs[i] = transport.NewTCPEndpoint(i, addrs, transport.TCPOptions{DialTimeout: 5 * time.Second})
			}(i)
		}
		wg.Wait()
		t.Cleanup(func() {
			for _, ep := range eps {
				if ep != nil {
					ep.Close()
				}
			}
		})
		if err = errors.Join(errs...); err == nil {
			return eps
		}
	}
	t.Fatalf("mesh establishment: %v", err)
	return nil
}

// roundInput is rank r's contribution in round k: integer values, so every
// sum is exact in any order, on a support and at a size that change every
// round, so pooled vectors are grown, shrunk and overwritten.
func roundInput(r, k, dim int) *sparse.Vector {
	v := sparse.NewVector(dim, 0)
	for j := 0; j < dim; j++ {
		if (j*7+r*3+k)%(2+k%5) == 0 {
			v.Append(int32(j), float64(1+(j+r+k)%9))
		}
	}
	return v
}

// TestPooledCollectivesOverTCP runs reduce, PSR, ring and broadcast rounds
// over a TCP mesh, where every block a member receives is decoded into a
// pooled vector and released once copied out of. A block read after its
// release would be rewritten by the next frame a connection reader decodes:
// a wrong sum without the race detector, a data race with it.
func TestPooledCollectivesOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP mesh setup in -short mode")
	}
	const n, dim, rounds = 4, 300, 30
	eps := tcpWorld(t, n)
	g := WorldGroup(n)
	var wg sync.WaitGroup
	errs := make([]error, n)
	for r := range eps {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = func() error {
				ep := eps[r]
				var ws Workspace
				sum, agg, got := new(sparse.Vector), new(sparse.Vector), new(sparse.Vector)
				want := make([]float64, dim)
				same := func(what string, k int, v *sparse.Vector) error {
					for j, x := range v.ToDense() {
						if x != want[j] {
							return fmt.Errorf("round %d %s: coordinate %d = %v, want %v", k, what, j, x, want[j])
						}
					}
					return nil
				}
				for k := 0; k < rounds; k++ {
					clear(want)
					for q := 0; q < n; q++ {
						roundInput(q, k, dim).AddIntoDense(want, 1)
					}
					v := roundInput(r, k, dim)
					tag := int32(64 + 8*k)
					if _, err := ws.ReduceSparse(ep, g, tag, 0, v, sum); err != nil {
						return err
					}
					if r == 0 {
						if err := same("reduce", k, sum); err != nil {
							return err
						}
					}
					if _, err := ws.PSRAllreduceSparse(ep, g, tag+1, v, agg); err != nil {
						return err
					}
					if err := same("psr", k, agg); err != nil {
						return err
					}
					if _, err := ws.RingAllreduceSparse(ep, g, tag+3, v, agg); err != nil {
						return err
					}
					if err := same("ring", k, agg); err != nil {
						return err
					}
					if _, err := ws.BroadcastSparse(ep, g, tag+5, 0, sum, got); err != nil {
						return err
					}
					if r != 0 {
						if err := same("broadcast", k, got); err != nil {
							return err
						}
					}
				}
				return nil
			}()
			if errs[r] != nil {
				for _, ep := range eps { // unblock the other members
					ep.Close()
				}
			}
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}
