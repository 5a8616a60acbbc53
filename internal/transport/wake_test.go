package transport

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"psrahgadmm/internal/wire"
)

// Nothing polls on a blocked receiver's behalf: whoever changes what its
// reason to stop reads has to wake it. These tests pin every such wake. The
// receiver is parked in Recv with NO deadline, so a missed broadcast hangs
// it — each case runs under its own watchdog and reports that as a failure.

// wakeCase is one world, one receiver about to park, and the event that has
// to reach it.
type wakeCase struct {
	recv  func() (wire.Message, error)
	fire  func()
	check func(t *testing.T, m wire.Message, err error)
}

func wantPeerDown(peer int, graceful bool) func(*testing.T, wire.Message, error) {
	return func(t *testing.T, _ wire.Message, err error) {
		t.Helper()
		var pd *PeerDownError
		if !errors.As(err, &pd) || pd.Peer != peer || pd.Graceful != graceful {
			t.Fatalf("err = %v, want *PeerDownError{Peer: %d, Graceful: %v}", err, peer, graceful)
		}
	}
}

func wantBareClosed(t *testing.T, _ wire.Message, err error) {
	t.Helper()
	var pd *PeerDownError
	if !errors.Is(err, ErrClosed) || errors.As(err, &pd) {
		t.Fatalf("err = %v, want bare ErrClosed", err)
	}
}

func faultWorld(t *testing.T, n int) *FaultFabric {
	ff := NewFaultFabric(NewChanFabric(n), FaultPlan{})
	t.Cleanup(ff.Close)
	return ff
}

// inProcessWakes are the cases cheap enough to build a fresh world for on
// every repetition of the race stress.
var inProcessWakes = map[string]func(t *testing.T) wakeCase{
	"kill-targeted": func(t *testing.T) wakeCase {
		ff := faultWorld(t, 3)
		return wakeCase{
			recv:  func() (wire.Message, error) { return ff.Endpoint(0).Recv(2, 5) },
			fire:  func() { ff.Kill(2) },
			check: wantPeerDown(2, false),
		}
	},
	// An AnySource wait is failed by a crash once per observer: the second
	// wait tolerates the known-dead rank and is served by the live one.
	"kill-any-source-once": func(t *testing.T) wakeCase {
		ff := faultWorld(t, 3)
		return wakeCase{
			recv: func() (wire.Message, error) { return ff.Endpoint(0).Recv(AnySource, 5) },
			fire: func() { ff.Kill(2) },
			check: func(t *testing.T, m wire.Message, err error) {
				wantPeerDown(2, false)(t, m, err)
				if err := ff.Endpoint(1).Send(0, wire.Control(5, 11)); err != nil {
					t.Fatal(err)
				}
				if m, err := ff.Endpoint(0).Recv(AnySource, 5); err != nil || m.Ints[0] != 11 {
					t.Fatalf("second AnySource wait: %v %v, want rank 1's message", m, err)
				}
			},
		}
	},
	"kill-self": func(t *testing.T) wakeCase {
		ff := faultWorld(t, 3)
		return wakeCase{
			recv:  func() (wire.Message, error) { return ff.Endpoint(0).Recv(1, 5) },
			fire:  func() { ff.Kill(0) },
			check: wantBareClosed,
		}
	},
	"corrupt-frame": func(t *testing.T) wakeCase {
		ff := faultWorld(t, 2)
		return wakeCase{
			recv: func() (wire.Message, error) { return ff.Endpoint(0).Recv(1, 5) },
			fire: func() {
				ff.ArmCorrupt(1)
				if err := ff.Endpoint(1).Send(0, wire.Control(5, 1)); err != nil {
					t.Error(err)
				}
			},
			check: func(t *testing.T, _ wire.Message, err error) {
				var fc *FrameCorruptError
				if !errors.As(err, &fc) || fc.From != 1 || fc.Tag != 5 {
					t.Fatalf("err = %v, want *FrameCorruptError{From: 1, Tag: 5}", err)
				}
			},
		}
	},
	"close": func(t *testing.T) wakeCase {
		f := NewChanFabric(2)
		t.Cleanup(f.Close)
		return wakeCase{
			recv:  func() (wire.Message, error) { return f.Endpoint(0).Recv(1, 5) },
			fire:  func() { f.Endpoint(0).Close() },
			check: wantBareClosed,
		}
	},
	// The reason an endpoint was given outlives Reopen: the new life's
	// receiver is stopped by it like the old one's.
	"reopen-keeps-reason": func(t *testing.T) wakeCase {
		f := NewChanFabric(2)
		t.Cleanup(f.Close)
		errStop := errors.New("told to stop")
		var stop atomic.Bool
		ep := f.Endpoint(0).(Wakeable)
		ep.StopWhen(func(int, int32) error {
			if stop.Load() {
				return errStop
			}
			return nil
		})
		if err := f.Endpoint(1).Send(0, wire.Control(5, 1)); err != nil {
			t.Fatal(err)
		}
		ep.Close()
		f.Reopen(0)
		return wakeCase{
			// Tag 5 was delivered to the previous life: it must not match.
			recv: func() (wire.Message, error) { return ep.Recv(1, 5) },
			fire: func() { stop.Store(true); ep.Wake() },
			check: func(t *testing.T, _ wire.Message, err error) {
				if err != errStop {
					t.Fatalf("err = %v, want the installed reason's", err)
				}
			},
		}
	},
	// A reason added over a fault fabric (the engine's round abort) is woken
	// through the same path.
	"outer-reason-over-fault": func(t *testing.T) wakeCase {
		ff := faultWorld(t, 2)
		errStop := errors.New("told to stop")
		var stop atomic.Bool
		ep := ff.Endpoint(0).(Wakeable)
		ep.StopWhen(func(int, int32) error {
			if stop.Load() {
				return errStop
			}
			return nil
		})
		return wakeCase{
			recv: func() (wire.Message, error) { return ep.Recv(1, 5) },
			fire: func() { stop.Store(true); ep.Wake() },
			check: func(t *testing.T, _ wire.Message, err error) {
				if err != errStop {
					t.Fatalf("err = %v, want the outer reason's", err)
				}
			},
		}
	},
	// It is consulted after the fault layer's own: when both hold, the kill
	// that set the abort off is reported, typed, not the abort.
	"kill-beats-outer-reason": func(t *testing.T) wakeCase {
		ff := faultWorld(t, 3)
		ep := ff.Endpoint(0).(Wakeable)
		ep.StopWhen(func(int, int32) error { return errors.New("told to stop") })
		ff.Kill(2)
		return wakeCase{
			recv:  func() (wire.Message, error) { return ep.Recv(AnySource, 5) },
			fire:  ep.Wake,
			check: wantPeerDown(2, false),
		}
	},
}

// tcpWakes build a loopback mesh each; they run once per test, not in the
// stress loop.
var tcpWakes = map[string]func(t *testing.T) wakeCase{
	// The peer's process dies: its socket closes with no goodbye frame.
	"tcp-peer-down": func(t *testing.T) wakeCase {
		eps := world(t, "tcp", 2)
		return wakeCase{
			recv:  func() (wire.Message, error) { return eps[0].Recv(1, 5) },
			fire:  func() { eps[1].(*tcpEndpoint).peers[0].conn.Close() },
			check: wantPeerDown(1, false),
		}
	},
	"tcp-close": func(t *testing.T) wakeCase {
		eps := world(t, "tcp", 2)
		return wakeCase{
			recv:  func() (wire.Message, error) { return eps[0].Recv(1, 5) },
			fire:  func() { eps[0].Close() },
			check: wantBareClosed,
		}
	},
	// A new incarnation of rank 1 is adopted while rank 0 waits on rank 1
	// and has not noticed the old one go (its listener is gone, its sockets
	// are not): the wait is woken, finds its source alive, resumes, and is
	// served by the new incarnation. The old connection's teardown is stale
	// news and must not fail it.
	"tcp-rejoin-adoption": func(t *testing.T) wakeCase {
		eps := world(t, "tcp", 2)
		addrs := make([]string, len(eps))
		for i, ep := range eps {
			addrs[i] = ep.(*tcpEndpoint).ln.Addr().String()
		}
		return wakeCase{
			recv: func() (wire.Message, error) { return eps[0].Recv(1, 5) },
			fire: func() {
				eps[1].(*tcpEndpoint).ln.Close() // a zombie: frees the address, keeps the sockets
				reborn, err := NewTCPEndpoint(1, addrs, TCPOptions{DialTimeout: 10 * time.Second, Rejoin: true})
				if err != nil {
					t.Error(err)
					eps[0].Close() // release the receiver
					return
				}
				t.Cleanup(func() { reborn.Close() })
				if err := reborn.Send(0, wire.Control(5, 42)); err != nil {
					t.Error(err)
				}
			},
			check: func(t *testing.T, m wire.Message, err error) {
				if err != nil || m.Ints[0] != 42 {
					t.Fatalf("wait across the adoption: %v %v, want the new incarnation's message", m, err)
				}
			},
		}
	},
}

// runWake parks c's receiver (settle gives it time to; zero fires the event
// at once, racing the park) and fires the event.
func runWake(t *testing.T, c wakeCase, settle time.Duration) {
	t.Helper()
	type result struct {
		m   wire.Message
		err error
	}
	done := make(chan result, 1)
	go func() {
		m, err := c.recv()
		done <- result{m, err}
	}()
	time.Sleep(settle)
	c.fire()
	select {
	case r := <-done:
		c.check(t, r.m, r.err)
	case <-time.After(10 * time.Second):
		t.Fatal("the event did not wake the parked Recv")
	}
}

// TestWakeReachesParkedRecv: after each event the parked receiver returns
// the right typed error (or, across a rejoin, its message).
func TestWakeReachesParkedRecv(t *testing.T) {
	for _, cases := range []map[string]func(*testing.T) wakeCase{inProcessWakes, tcpWakes} {
		for name, build := range cases {
			t.Run(name, func(t *testing.T) {
				runWake(t, build(t), 20*time.Millisecond)
			})
		}
	}
}

// TestWakeRacesPark fires the event with no settling time, over and over:
// across repetitions it lands before the receiver's check, after its park,
// and in between — the window in which only lock → broadcast → unlock keeps
// the wake from being lost.
func TestWakeRacesPark(t *testing.T) {
	for name, build := range inProcessWakes {
		t.Run(name, func(t *testing.T) {
			for i := 0; i < 50; i++ {
				runWake(t, build(t), 0)
			}
		})
	}
}
