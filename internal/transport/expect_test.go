package transport

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"psrahgadmm/internal/wire"
)

// The wake rule behind Expecter: an owner that declared n frames sleeps
// through the first n−1 and is woken by the n-th; Wake with a reason,
// Close and a deadline still end a short wait, and what was queued by then
// is returned first. No case waits on the clock to decide what happened: a
// parked owner is seen through its mailbox's wait, under the lock.

// boxOf is ep's mailbox.
func boxOf(ep Endpoint) *mailbox {
	switch e := ep.(type) {
	case *chanEndpoint:
		return &e.box
	case *tcpEndpoint:
		return &e.box
	}
	panic("transport: no mailbox")
}

// parkedFor is the queue length b's owner is parked until, 0 when it is
// not parked.
func parkedFor(b *mailbox) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.wait
}

// queued is how many frames b holds undrained.
func queued(b *mailbox) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.q)
}

// until yields until cond holds.
func until(cond func() bool) {
	for !cond() {
		runtime.Gosched()
	}
}

type recvResult struct {
	m   wire.Message
	err error
}

// recvAsync runs recv on its own goroutine.
func recvAsync(recv func() (wire.Message, error)) <-chan recvResult {
	done := make(chan recvResult, 1)
	go func() {
		m, err := recv()
		done <- recvResult{m, err}
	}()
	return done
}

// shortWait parks rank 0 of eps in Recv(AnySource, 5) declared to need 3
// frames, then queues 2 of them (from ranks 1 and 2, carrying 1 and 2).
// It returns the pending Recv; the owner is still parked.
func shortWait(t *testing.T, eps []Endpoint, recv func() (wire.Message, error)) <-chan recvResult {
	t.Helper()
	b := boxOf(eps[0])
	eps[0].(Expecter).Expect(3)
	done := recvAsync(recv)
	until(func() bool { return parkedFor(b) != 0 })
	if got := parkedFor(b); got != 3 {
		t.Fatalf("the owner parked until %d frames, want 3", got)
	}
	for r := 1; r <= 2; r++ {
		if err := eps[r].Send(0, wire.Control(5, int64(r))); err != nil {
			t.Fatal(err)
		}
		until(func() bool { return queued(b) == r || parkedFor(b) != 3 })
		if got := parkedFor(b); got != 3 {
			t.Fatalf("after %d of 3 frames the owner waits for %d, want still parked for 3", r, got)
		}
	}
	select {
	case r := <-done:
		t.Fatalf("Recv returned %v %v with 2 of 3 frames queued", r.m, r.err)
	default:
	}
	return done
}

// drainShort checks what a woken short wait returns: the two queued frames
// in order, and then, with nothing left, the error the event set.
func drainShort(t *testing.T, ep Endpoint, first recvResult, next func() (wire.Message, error), want func(error) bool) {
	t.Helper()
	if first.err != nil || first.m.Ints[0] != 1 {
		t.Fatalf("woken Recv: %v %v, want the first queued frame", first.m, first.err)
	}
	ep.(Expecter).Expect(0)
	if m, err := next(); err != nil || m.Ints[0] != 2 {
		t.Fatalf("second Recv: %v %v, want the second queued frame", m, err)
	}
	if _, err := next(); !want(err) {
		t.Fatalf("third Recv: %v, want the event's error", err)
	}
}

// TestMailboxWakesOwnerOnceItsFramesAreQueued: an owner that needs 3
// frames stays parked through 2 deliveries and wakes on the 3rd, on both
// fabrics (over TCP the deliveries are the connection readers' puts).
func TestMailboxWakesOwnerOnceItsFramesAreQueued(t *testing.T) {
	for _, fab := range fabrics() {
		t.Run(fab, func(t *testing.T) {
			eps := world(t, fab, 4)
			done := shortWait(t, eps, func() (wire.Message, error) { return eps[0].Recv(AnySource, 5) })
			if err := eps[3].Send(0, wire.Control(5, 3)); err != nil {
				t.Fatal(err)
			}
			r := <-done
			if r.err != nil || r.m.Ints[0] != 1 {
				t.Fatalf("Recv: %v %v, want the first frame", r.m, r.err)
			}
			eps[0].(Expecter).Expect(0)
			for want := int64(2); want <= 3; want++ {
				if m, err := eps[0].Recv(AnySource, 5); err != nil || m.Ints[0] != want {
					t.Fatalf("Recv: %v %v, want frame %d", m, err, want)
				}
			}
		})
	}
}

// TestMailboxClampsTheCountToTheBound: a count above inboxDepth waits for
// a full inbox, never for more than it can hold.
func TestMailboxClampsTheCountToTheBound(t *testing.T) {
	f := NewChanFabric(2)
	defer f.Close()
	f.endpoints[0].Expect(inboxDepth + 5)
	done := recvAsync(func() (wire.Message, error) { return f.Endpoint(0).Recv(1, 5) })
	until(func() bool { return parkedFor(&f.endpoints[0].box) == inboxDepth })
	for i := range inboxDepth {
		if err := f.Endpoint(1).Send(0, wire.Control(5, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if r := <-done; r.err != nil || r.m.Ints[0] != 0 {
		t.Fatalf("Recv: %v %v, want the first frame", r.m, r.err)
	}
}

// TestWakeEndsAShortWait: Wake with a reason to stop and Close end the
// wait of an owner short of its count at once, and the frames queued
// before are returned before their error.
func TestWakeEndsAShortWait(t *testing.T) {
	errStop := errors.New("told to stop")
	events := []struct {
		name string
		fire func(eps []Endpoint)
		want func(error) bool
	}{
		{"wake-with-reason", func(eps []Endpoint) {
			w := eps[0].(Wakeable)
			w.StopWhen(func(int, int32) error { return errStop })
			w.Wake()
		}, func(err error) bool { return errors.Is(err, errStop) }},
		{"close", func(eps []Endpoint) { eps[0].Close() }, func(err error) bool { return errors.Is(err, ErrClosed) }},
	}
	for _, ev := range events {
		t.Run(ev.name, func(t *testing.T) {
			eps := world(t, "chan", 3)
			recv := func() (wire.Message, error) { return eps[0].Recv(AnySource, 5) }
			done := shortWait(t, eps, recv)
			ev.fire(eps)
			drainShort(t, eps[0], <-done, recv, ev.want)
		})
	}
}

// TestRecvTimeoutEndsAShortWait: a deadline ends the wait of an owner
// short of its count, and the frames queued before are returned before
// ErrTimeout. A run in which the deadline fell before either delivery (the
// wait ends in ErrTimeout with nothing taken) is repeated with a longer
// one, so no outcome hangs on how fast the deliveries were.
func TestRecvTimeoutEndsAShortWait(t *testing.T) {
	isTimeout := func(err error) bool { return errors.Is(err, ErrTimeout) }
	for _, fab := range fabrics() {
		t.Run(fab, func(t *testing.T) {
			for d := 20 * time.Millisecond; ; d *= 2 {
				eps := world(t, fab, 2)
				recv := func() (wire.Message, error) { return eps[0].RecvTimeout(AnySource, 5, d) }
				eps[0].(Expecter).Expect(3)
				done := recvAsync(recv)
				until(func() bool { return parkedFor(boxOf(eps[0])) == 3 || len(done) > 0 })
				for i := int64(1); i <= 2; i++ { // one sender: FIFO on both fabrics
					if err := eps[1].Send(0, wire.Control(5, i)); err != nil {
						t.Fatal(err)
					}
				}
				first := <-done
				if isTimeout(first.err) && d < time.Minute {
					continue
				}
				drainShort(t, eps[0], first, recv, isTimeout)
				return
			}
		})
	}
}
