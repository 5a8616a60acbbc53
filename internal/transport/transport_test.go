package transport

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"psrahgadmm/internal/sparse"
	"psrahgadmm/internal/vec"
	"psrahgadmm/internal/wire"
)

// world builds n endpoints on the named fabric and returns them plus a
// cleanup function.
func world(t *testing.T, fabric string, n int) []Endpoint {
	t.Helper()
	switch fabric {
	case "chan":
		f := NewChanFabric(n)
		eps := make([]Endpoint, n)
		for i := range eps {
			eps[i] = f.Endpoint(i)
		}
		t.Cleanup(f.Close)
		return eps
	case "tcp":
		addrs := make([]string, n)
		for i := range addrs {
			addrs[i] = "127.0.0.1:0"
		}
		// Listen first on ephemeral ports to learn real addresses, then
		// rebuild with fixed addresses. Simpler: grab n free ports.
		ports := freePorts(t, n)
		for i := range addrs {
			addrs[i] = fmt.Sprintf("127.0.0.1:%d", ports[i])
		}
		eps := make([]Endpoint, n)
		var wg sync.WaitGroup
		errs := make([]error, n)
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				eps[i], errs[i] = NewTCPEndpoint(i, addrs, TCPOptions{DialTimeout: 10 * time.Second})
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("rank %d: %v", i, err)
			}
		}
		t.Cleanup(func() {
			for _, ep := range eps {
				ep.Close()
			}
		})
		return eps
	default:
		t.Fatalf("unknown fabric %q", fabric)
		return nil
	}
}

func freePorts(t *testing.T, n int) []int {
	t.Helper()
	ports := make([]int, n)
	lns := make([]interface{ Close() error }, 0, n)
	for i := 0; i < n; i++ {
		ln, err := newLoopbackListener()
		if err != nil {
			t.Fatal(err)
		}
		ports[i] = ln.port
		lns = append(lns, ln.ln)
	}
	for _, ln := range lns {
		ln.Close()
	}
	return ports
}

func fabrics() []string { return []string{"chan", "tcp"} }

func TestPairwiseOrdering(t *testing.T) {
	for _, fab := range fabrics() {
		t.Run(fab, func(t *testing.T) {
			eps := world(t, fab, 2)
			const k = 100
			done := make(chan error, 1)
			go func() {
				for i := 0; i < k; i++ {
					if err := eps[0].Send(1, wire.Control(1, int64(i))); err != nil {
						done <- err
						return
					}
				}
				done <- nil
			}()
			for i := 0; i < k; i++ {
				m, err := eps[1].Recv(0, 1)
				if err != nil {
					t.Fatal(err)
				}
				if m.Ints[0] != int64(i) {
					t.Fatalf("out of order: got %d want %d", m.Ints[0], i)
				}
				if m.From != 0 {
					t.Fatalf("From = %d", m.From)
				}
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestTagMatchingOutOfOrder(t *testing.T) {
	for _, fab := range fabrics() {
		t.Run(fab, func(t *testing.T) {
			eps := world(t, fab, 2)
			if err := eps[0].Send(1, wire.Control(10, 100)); err != nil {
				t.Fatal(err)
			}
			if err := eps[0].Send(1, wire.Control(20, 200)); err != nil {
				t.Fatal(err)
			}
			// Receive tag 20 first: tag 10 must be buffered, not lost.
			m, err := eps[1].Recv(0, 20)
			if err != nil || m.Ints[0] != 200 {
				t.Fatalf("tag 20: %v %v", m, err)
			}
			m, err = eps[1].Recv(0, 10)
			if err != nil || m.Ints[0] != 100 {
				t.Fatalf("tag 10: %v %v", m, err)
			}
		})
	}
}

func TestAnySource(t *testing.T) {
	for _, fab := range fabrics() {
		t.Run(fab, func(t *testing.T) {
			eps := world(t, fab, 4)
			for i := 1; i < 4; i++ {
				i := i
				go func() {
					if err := eps[i].Send(0, wire.Control(5, int64(i))); err != nil {
						t.Error(err)
					}
				}()
			}
			seen := map[int64]bool{}
			for i := 0; i < 3; i++ {
				m, err := eps[0].Recv(AnySource, 5)
				if err != nil {
					t.Fatal(err)
				}
				if int64(m.From) != m.Ints[0] {
					t.Fatalf("From %d != payload %d", m.From, m.Ints[0])
				}
				seen[m.Ints[0]] = true
			}
			if len(seen) != 3 {
				t.Fatalf("saw %v", seen)
			}
		})
	}
}

func TestAnySourceDoesNotStealOtherTags(t *testing.T) {
	for _, fab := range fabrics() {
		t.Run(fab, func(t *testing.T) {
			eps := world(t, fab, 3)
			if err := eps[1].Send(0, wire.Control(99, 1)); err != nil {
				t.Fatal(err)
			}
			if err := eps[2].Send(0, wire.Control(5, 2)); err != nil {
				t.Fatal(err)
			}
			m, err := eps[0].Recv(AnySource, 5)
			if err != nil || m.Ints[0] != 2 {
				t.Fatalf("AnySource matched wrong message: %v %v", m, err)
			}
			m, err = eps[0].Recv(1, 99)
			if err != nil || m.Ints[0] != 1 {
				t.Fatalf("buffered message lost: %v %v", m, err)
			}
		})
	}
}

func TestDenseAndSparsePayloads(t *testing.T) {
	for _, fab := range fabrics() {
		t.Run(fab, func(t *testing.T) {
			eps := world(t, fab, 2)
			x := []float64{1.5, -2.5, 0, 3.25}
			sv := sparse.FromDense([]float64{0, 7, 0, -1})
			go func() {
				eps[0].Send(1, wire.DenseMsg(1, x))
				eps[0].Send(1, wire.SparseMsg(2, sv))
			}()
			m, err := eps[1].Recv(0, 1)
			if err != nil || !vec.Equal(m.Dense, x) {
				t.Fatalf("dense: %v %v", m.Dense, err)
			}
			m, err = eps[1].Recv(0, 2)
			if err != nil || !vec.Equal(m.Sparse.ToDense(), sv.ToDense()) {
				t.Fatalf("sparse: %v", err)
			}
		})
	}
}

func TestAllToAllExchange(t *testing.T) {
	for _, fab := range fabrics() {
		t.Run(fab, func(t *testing.T) {
			const n = 6
			eps := world(t, fab, n)
			var wg sync.WaitGroup
			errCh := make(chan error, n)
			for r := 0; r < n; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					ep := eps[r]
					for p := 0; p < n; p++ {
						if p == r {
							continue
						}
						if err := ep.Send(p, wire.Control(int32(r), int64(r*100+p))); err != nil {
							errCh <- err
							return
						}
					}
					for p := 0; p < n; p++ {
						if p == r {
							continue
						}
						m, err := ep.Recv(p, int32(p))
						if err != nil {
							errCh <- err
							return
						}
						if m.Ints[0] != int64(p*100+r) {
							errCh <- fmt.Errorf("rank %d from %d: got %d", r, p, m.Ints[0])
							return
						}
					}
				}(r)
			}
			wg.Wait()
			close(errCh)
			for err := range errCh {
				t.Fatal(err)
			}
		})
	}
}

func TestSelfSend(t *testing.T) {
	for _, fab := range fabrics() {
		t.Run(fab, func(t *testing.T) {
			eps := world(t, fab, 2)
			if fab == "chan" {
				// Chan fabric: self-send goes through own inbox too.
			}
			if err := eps[0].Send(0, wire.Control(1, 42)); err != nil {
				t.Fatal(err)
			}
			m, err := eps[0].Recv(0, 1)
			if err != nil || m.Ints[0] != 42 {
				t.Fatalf("self-send: %v %v", m, err)
			}
		})
	}
}

func TestStats(t *testing.T) {
	for _, fab := range fabrics() {
		t.Run(fab, func(t *testing.T) {
			eps := world(t, fab, 2)
			m := wire.DenseMsg(1, []float64{1, 2, 3})
			if err := eps[0].Send(1, m); err != nil {
				t.Fatal(err)
			}
			s := eps[0].Stats()
			if s.MsgsSent != 1 {
				t.Fatalf("MsgsSent = %d", s.MsgsSent)
			}
			if s.BytesSent != int64(wire.EncodedBytes(&m)) {
				t.Fatalf("BytesSent = %d, want %d", s.BytesSent, wire.EncodedBytes(&m))
			}
		})
	}
}

func TestRecvAfterCloseReturnsErrClosed(t *testing.T) {
	for _, fab := range fabrics() {
		t.Run(fab, func(t *testing.T) {
			eps := world(t, fab, 2)
			done := make(chan error, 1)
			go func() {
				_, err := eps[1].Recv(0, 1)
				done <- err
			}()
			time.Sleep(10 * time.Millisecond)
			eps[1].Close()
			select {
			case err := <-done:
				if !errors.Is(err, ErrClosed) {
					t.Fatalf("err = %v, want ErrClosed", err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("Recv did not unblock after Close")
			}
		})
	}
}

func TestSendInvalidRank(t *testing.T) {
	eps := world(t, "chan", 2)
	if err := eps[0].Send(5, wire.Control(1)); err == nil {
		t.Fatal("expected error for out-of-range rank")
	}
	if _, err := eps[0].Recv(9, 1); err == nil {
		t.Fatal("expected error for out-of-range source")
	}
}

func TestChanSendToClosedPeer(t *testing.T) {
	f := NewChanFabric(2)
	defer f.Close()
	f.Endpoint(1).Close()
	err := f.Endpoint(0).Send(1, wire.Control(1))
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestCloseIdempotent(t *testing.T) {
	for _, fab := range fabrics() {
		t.Run(fab, func(t *testing.T) {
			eps := world(t, fab, 2)
			if err := eps[0].Close(); err != nil {
				t.Fatal(err)
			}
			if err := eps[0].Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func BenchmarkChanRoundTrip(b *testing.B) {
	f := NewChanFabric(2)
	defer f.Close()
	a, c := f.Endpoint(0), f.Endpoint(1)
	x := make([]float64, 1024)
	go func() {
		for {
			m, err := c.Recv(0, 1)
			if err != nil {
				return
			}
			if err := c.Send(0, m); err != nil {
				return
			}
		}
	}()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := a.Send(1, wire.DenseMsg(1, x)); err != nil {
			b.Fatal(err)
		}
		if _, err := a.Recv(1, 1); err != nil {
			b.Fatal(err)
		}
	}
}
