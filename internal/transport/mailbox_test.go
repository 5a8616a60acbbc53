package transport

import (
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"psrahgadmm/internal/raceflag"
	"psrahgadmm/internal/sparse"
	"psrahgadmm/internal/wire"
)

// These tests pin what the channel ring behind chanEndpoint gave for free
// and the mailbox has to provide on purpose: a footprint that follows the
// messages in flight, a bound on undrained messages, arrival-order
// matching with per-pair FIFO, and wake-ups on Close and Reopen.

// psrRound is the message pattern of one flat PSR-Allreduce among all
// ranks of f: every member sends one frame to every peer, receives p−1
// from anyone, and does it again on the next tag. Members are barrier-
// aligned per round, as the engine's crew is.
func psrRound(t *testing.T, f *ChanFabric, tag int32) {
	t.Helper()
	p := f.Size()
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ep := f.Endpoint(r)
			for phase := int32(0); phase < 2; phase++ {
				for q := 0; q < p; q++ {
					if q == r {
						continue
					}
					if err := ep.Send(q, wire.Control(tag+phase, int64(r))); err != nil {
						t.Error(err)
						return
					}
				}
				for q := 0; q < p-1; q++ {
					if _, err := ep.Recv(AnySource, tag+phase); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
}

// TestMailboxFootprint: a fabric costs nothing per rank until messages are
// in flight, and afterwards holds a small multiple of the in-flight
// high-water mark — not inboxDepth slots per rank (18.9 MB at p = 64).
func TestMailboxFootprint(t *testing.T) {
	const p = 64
	var f *ChanFabric
	built := uint64(1 << 62)
	for try := 0; try < 3; try++ { // the least of three: other goroutines may allocate too
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f = NewChanFabricZeroCopy(p)
		runtime.ReadMemStats(&after)
		built = min(built, after.TotalAlloc-before.TotalAlloc)
	}
	defer f.Close()
	if built >= 64<<10 {
		t.Fatalf("NewChanFabricZeroCopy(%d) allocated %d bytes, want < 64 KiB", p, built)
	}
	for round := 0; round < 50; round++ {
		psrRound(t, f, int32(2*round))
	}
	for r, ep := range f.endpoints {
		if held := cap(ep.box.q) + cap(ep.box.pending.msgs); held > 4*2*(p-1) {
			t.Errorf("rank %d holds %d message slots after 50 rounds, want <= %d", r, held, 4*2*(p-1))
		}
		if box := &ep.box; len(box.q) != 0 || len(box.pending.msgs) != 0 || box.pending.head != 0 {
			t.Errorf("rank %d not drained: q %d, pending %d from %d", r, len(box.q), len(box.pending.msgs), box.pending.head)
		}
	}
}

// parkedSend starts ep.Send(to, m) on its own goroutine and reports its
// result on the returned channel once it returns. It gives the send time
// to reach the bound; a send that is merely slow to start makes the
// caller's "still blocked" check pass vacuously, never fail.
func parkedSend(ep Endpoint, to int, m wire.Message) <-chan error {
	done := make(chan error, 1)
	go func() { done <- ep.Send(to, m) }()
	time.Sleep(20 * time.Millisecond)
	return done
}

func mustStillBlock(t *testing.T, done <-chan error, what string) {
	t.Helper()
	select {
	case err := <-done:
		t.Fatalf("%s returned (%v) instead of blocking at the bound", what, err)
	default:
	}
}

func waitSend(t *testing.T, done <-chan error, what string) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		t.Fatalf("%s still blocked", what)
		return nil
	}
}

// TestMailboxBackpressure: inboxDepth bounds the undrained messages of one
// endpoint. The next Send blocks, resumes once the owner drains, and gives
// up with ErrClosed when the sender's or the destination's endpoint closes
// while it is held.
func TestMailboxBackpressure(t *testing.T) {
	f := NewChanFabric(3)
	defer f.Close()
	fill := func() {
		t.Helper()
		for i := 0; i < inboxDepth; i++ {
			if err := f.Endpoint(0).Send(2, wire.Control(1, int64(i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	fill()
	done := parkedSend(f.Endpoint(0), 2, wire.Control(1, inboxDepth))
	mustStillBlock(t, done, "send past the bound")
	if queued := inboxLen(t, f.Endpoint(2)); queued != inboxDepth {
		t.Fatalf("%d messages queued undrained, want the bound %d", queued, inboxDepth)
	}

	// One Recv drains the batch and lets the held sender through; every
	// message arrives once, in send order.
	for i := 0; i <= inboxDepth; i++ {
		m, err := f.Endpoint(2).RecvTimeout(0, 1, 10*time.Second)
		if err != nil || m.Ints[0] != int64(i) {
			t.Fatalf("message %d: got %v, %v", i, m.Ints, err)
		}
	}
	if err := waitSend(t, done, "held send after the drain"); err != nil {
		t.Fatalf("held send after the drain: %v", err)
	}

	// The sender's own endpoint closes while it is held.
	fill()
	done = parkedSend(f.Endpoint(1), 2, wire.Control(1, 0))
	mustStillBlock(t, done, "send past the bound")
	f.Endpoint(1).Close()
	if err := waitSend(t, done, "held send whose own endpoint closed"); !errors.Is(err, ErrClosed) {
		t.Fatalf("held send whose own endpoint closed: %v, want ErrClosed", err)
	}

	// The destination closes while a sender is held.
	done = parkedSend(f.Endpoint(0), 2, wire.Control(1, 0))
	mustStillBlock(t, done, "send past the bound")
	f.Endpoint(2).Close()
	if err := waitSend(t, done, "held send whose destination closed"); !errors.Is(err, ErrClosed) {
		t.Fatalf("held send whose destination closed: %v, want ErrClosed", err)
	}
}

// quadraticPending is the buffer pending replaced: take scans from the
// start and closes the gap by moving everything behind the match.
type quadraticPending struct{ msgs []wire.Message }

func (p *quadraticPending) take(from int, tag int32) (wire.Message, bool) {
	for i, m := range p.msgs {
		if m.Tag != tag {
			continue
		}
		if from != AnySource && int(m.From) != from {
			continue
		}
		p.msgs = append(p.msgs[:i], p.msgs[i+1:]...)
		return m, true
	}
	return wire.Message{}, false
}

// TestPendingMatchesQuadraticTake drives pending and the buffer it replaced
// with the same random interleaving of puts (singly, as the TCP reader
// does, and in batches, as the mailbox does) and takes (targeted and
// AnySource). Every take must agree — first match in arrival order, which
// is per-pair FIFO — and pending must hold no message outside its live
// window: vacated slots zeroed, the slice reset once drained.
func TestPendingMatchesQuadraticTake(t *testing.T) {
	vacant := func(m wire.Message) bool {
		return m.Kind == 0 && m.Tag == 0 && m.From == 0 && m.Ints == nil && m.Dense == nil && m.Sparse == nil
	}
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		var p pending
		var ref quadraticPending
		id, highWater := int64(0), 0 // every message carries a unique id
		for op := 0; op < 1500; op++ {
			if r.Intn(4) == 0 {
				batch := make([]wire.Message, 1+r.Intn(6)*r.Intn(2))
				for i := range batch {
					batch[i] = wire.Control(int32(r.Intn(3)), id)
					batch[i].From = int32(r.Intn(4))
					id++
				}
				p.put(batch...)
				ref.msgs = append(ref.msgs, batch...)
			} else {
				from, tag := r.Intn(5)-1, int32(r.Intn(3))
				got, ok := p.take(from, tag)
				want, wantOK := ref.take(from, tag)
				if ok != wantOK || !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d op %d: take(%d, %d) = %v %v, want %v %v", seed, op, from, tag, got, ok, want, wantOK)
				}
			}
			if len(ref.msgs) == 0 && (len(p.msgs) != 0 || p.head != 0) {
				t.Fatalf("seed %d op %d: drained but not reset: len %d head %d", seed, op, len(p.msgs), p.head)
			}
			// A buffer that never fully drains still reclaims its vacated
			// prefix: at most as many vacated slots as live ones at a put.
			highWater = max(highWater, len(ref.msgs))
			if len(p.msgs) > 2*highWater+6 {
				t.Fatalf("seed %d op %d: %d slots in use for a live high-water mark of %d", seed, op, len(p.msgs), highWater)
			}
			if live := p.msgs[p.head:]; len(live) != len(ref.msgs) {
				t.Fatalf("seed %d op %d: %d live messages, want %d", seed, op, len(live), len(ref.msgs))
			}
			for i, m := range p.msgs[:cap(p.msgs)] {
				switch live := i >= p.head && i < len(p.msgs); {
				case live && m.Ints[0] != ref.msgs[i-p.head].Ints[0]:
					t.Fatalf("seed %d op %d: live message %d is id %d, want %d", seed, op, i-p.head, m.Ints[0], ref.msgs[i-p.head].Ints[0])
				case !live && !vacant(m):
					t.Fatalf("seed %d op %d: slot %d outside [%d, %d) still holds %v", seed, op, i, p.head, len(p.msgs), m)
				}
			}
		}
	}
}

// TestMailboxCloseWakesParkedRecv: Close wakes the owner parked in Recv,
// and what was delivered before it is still matched first.
func TestMailboxCloseWakesParkedRecv(t *testing.T) {
	f := NewChanFabric(2)
	defer f.Close()
	parked := make(chan error, 1)
	go func() {
		_, err := f.Endpoint(1).Recv(0, 9) // nobody sends tag 9
		parked <- err
	}()
	for i := int64(1); i <= 2; i++ {
		if err := f.Endpoint(0).Send(1, wire.Control(7, i)); err != nil {
			t.Fatal(err)
		}
	}
	f.Endpoint(1).Close()
	select {
	case err := <-parked:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("parked Recv: %v, want ErrClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not wake the parked Recv")
	}
	for i := int64(1); i <= 2; i++ {
		if m, err := f.Endpoint(1).Recv(0, 7); err != nil || m.Ints[0] != i {
			t.Fatalf("message %d delivered before Close: %v %v", i, m, err)
		}
	}
	if _, err := f.Endpoint(1).Recv(0, 7); !errors.Is(err, ErrClosed) {
		t.Fatalf("drained Recv: %v, want ErrClosed", err)
	}
}

// TestMailboxReopenUnderConcurrentSenders: peers keep sending while a rank
// is closed and reopened. A send lands in either life or fails with
// ErrClosed, nothing else; once the senders stop, a reopened rank starts
// empty and carries traffic again.
func TestMailboxReopenUnderConcurrentSenders(t *testing.T) {
	const senders = 3
	f := NewChanFabric(senders + 1)
	defer f.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for s := 1; s <= senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := f.Endpoint(s).Send(0, wire.Control(1, int64(s))); err != nil && !errors.Is(err, ErrClosed) {
					t.Errorf("sender %d: %v", s, err)
					return
				}
			}
		}(s)
	}
	for life := 0; life < 50; life++ {
		// The owner drains whatever this life received, then dies.
		if _, err := f.Endpoint(0).RecvTimeout(AnySource, 1, time.Millisecond); err != nil && !errors.Is(err, ErrTimeout) {
			t.Fatalf("life %d: %v", life, err)
		}
		f.Endpoint(0).Close()
		f.Reopen(0)
	}
	close(stop)
	f.Endpoint(0).Close() // a sender held at the bound sees stop only once woken
	wg.Wait()
	f.Reopen(0)
	box := &f.endpoints[0].box
	if len(box.q) != 0 || len(box.pending.msgs) != 0 {
		t.Fatalf("reopened with %d queued and %d buffered messages", len(box.q), len(box.pending.msgs))
	}
	if err := f.Endpoint(1).Send(0, wire.Control(2, 42)); err != nil {
		t.Fatal(err)
	}
	if m, err := f.Endpoint(0).Recv(1, 2); err != nil || m.Ints[0] != 42 {
		t.Fatalf("traffic after reopen: %v %v", m, err)
	}
}

// TestRecvTimeoutQueuedMessageAllocatesNothing: a deadline costs a timer
// only when the wait has to park, on every fabric — collective.RecvRetry
// asks for every message with one, and nearly all of them are already
// there — and a matched Recv, the collectives' receive, allocates nothing
// either; nor does a 63-sender fan-in, send side included.
func TestRecvTimeoutQueuedMessageAllocatesNothing(t *testing.T) {
	const runs = 200
	for name, build := range map[string]func(t *testing.T) []Endpoint{
		"chan": func(t *testing.T) []Endpoint { return world(t, "chan", 2) },
		"chan-zero-copy": func(t *testing.T) []Endpoint {
			f := NewChanFabricZeroCopy(2)
			t.Cleanup(f.Close)
			return []Endpoint{f.Endpoint(0), f.Endpoint(1)}
		},
		"fault-over-chan": func(t *testing.T) []Endpoint {
			f := NewFaultFabric(NewChanFabric(2), FaultPlan{})
			t.Cleanup(f.Close)
			return []Endpoint{f.Endpoint(0), f.Endpoint(1)}
		},
		"fault-over-chan-zero-copy": func(t *testing.T) []Endpoint {
			f := NewFaultFabric(NewChanFabricZeroCopy(2), FaultPlan{})
			t.Cleanup(f.Close)
			return []Endpoint{f.Endpoint(0), f.Endpoint(1)}
		},
		"tcp": func(t *testing.T) []Endpoint {
			// No heartbeats: the ticker's frames would be counted too.
			return tcpWorld(t, 2, func(int) TCPOptions {
				return TCPOptions{DialTimeout: 10 * time.Second, HeartbeatInterval: -1}
			})
		},
	} {
		t.Run(name, func(t *testing.T) {
			eps := build(t)
			// Deliver everything first (the TCP reader does so on its own
			// time, and allocates as it decodes), then measure the receives:
			// the first warm-up run drains the batch, the rest match from
			// pending.
			for i := 0; i < 2*(runs+1); i++ {
				if err := eps[0].Send(1, wire.Control(7, int64(i))); err != nil {
					t.Fatal(err)
				}
			}
			waitInboxLen(t, eps[1], 2*(runs+1))
			allocs := testing.AllocsPerRun(runs, func() {
				if _, err := eps[1].RecvTimeout(0, 7, time.Minute); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("RecvTimeout of a delivered message allocates %v objects, want 0", allocs)
			}
			allocs = testing.AllocsPerRun(runs, func() {
				if _, err := eps[1].Recv(0, 7); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("Recv of a delivered message allocates %v objects, want 0", allocs)
			}
		})
	}
	// One member's view of a 64-rank PSR round: 63 peers each deliver a
	// small frame, then the owner receives them all from anyone. Delivery
	// appends to the inbox and the drain trades it with pending, so a warm
	// fan-in allocates nothing on either side.
	t.Run("chan-fanin-64", func(t *testing.T) {
		if raceflag.Enabled {
			t.Skip("allocation counts are inflated under -race")
		}
		const n = 64
		f := NewChanFabricZeroCopy(n)
		defer f.Close()
		v := sparse.NewVector(256, 0)
		for i := int32(0); i < 256; i += 20 {
			v.Append(i, float64(i))
		}
		msg := wire.SparseMsg(7, v)
		allocs := testing.AllocsPerRun(runs, func() {
			for s := 1; s < n; s++ {
				if err := f.Endpoint(s).Send(0, msg); err != nil {
					t.Fatal(err)
				}
			}
			for s := 1; s < n; s++ {
				if _, err := f.Endpoint(0).Recv(AnySource, 7); err != nil {
					t.Fatal(err)
				}
			}
		})
		if allocs != 0 {
			t.Fatalf("a warm 63-sender fan-in allocates %v objects, want 0", allocs)
		}
	})
}

// TestPendingMatchBeatsEveryStop: a message the owner already drained into
// pending is returned by recv's short path before a reason to stop, Close or
// an expired deadline is reported — the Recv contract's "delivered first".
// (TestRecvTimeoutQueuedMessageAllocatesNothing holds a matched Recv at 0
// allocations.)
func TestPendingMatchBeatsEveryStop(t *testing.T) {
	errStopped := errors.New("stopped")
	for _, c := range []struct {
		name string
		stop func(f *ChanFabric)
		recv func(ep Endpoint) (wire.Message, error)
		want error
	}{
		{"reason to stop",
			func(f *ChanFabric) { f.endpoints[0].StopWhen(func(int, int32) error { return errStopped }) },
			func(ep Endpoint) (wire.Message, error) { return ep.Recv(1, 1) }, errStopped},
		{"close",
			func(f *ChanFabric) { f.Endpoint(0).Close() },
			func(ep Endpoint) (wire.Message, error) { return ep.Recv(1, 1) }, ErrClosed},
		{"expired deadline",
			func(*ChanFabric) {},
			func(ep Endpoint) (wire.Message, error) { return ep.RecvTimeout(1, 1, time.Nanosecond) }, ErrTimeout},
	} {
		t.Run(c.name, func(t *testing.T) {
			f := NewChanFabric(2)
			defer f.Close()
			for _, m := range []wire.Message{wire.Control(1, 10), wire.Control(1, 11), wire.Control(2, 0)} {
				if err := f.Endpoint(1).Send(0, m); err != nil {
					t.Fatal(err)
				}
			}
			// Matching tag 2 drains the whole batch: both tag-1 messages now
			// wait in pending, not in the queue.
			if _, err := f.Endpoint(0).Recv(1, 2); err != nil {
				t.Fatal(err)
			}
			if box := &f.endpoints[0].box; len(box.q) != 0 || len(box.pending.msgs)-box.pending.head != 2 {
				t.Fatalf("%d queued, %d pending; want 0 and 2", len(box.q), len(box.pending.msgs)-box.pending.head)
			}
			c.stop(f)
			for _, want := range []int64{10, 11} {
				if m, err := c.recv(f.Endpoint(0)); err != nil || m.Ints[0] != want {
					t.Fatalf("pending message %d: %v %v", want, m, err)
				}
			}
			if _, err := c.recv(f.Endpoint(0)); !errors.Is(err, c.want) {
				t.Fatalf("after pending drained: %v, want %v", err, c.want)
			}
		})
	}
}

// killOnSendFabric is a fabric in which the destination dies after the
// fault layer's entry checks and before the delivery underneath — the
// window a concurrent kill has to land in, held open.
type killOnSendFabric struct {
	*ChanFabric
	ff *FaultFabric
}

type killOnSendEndpoint struct {
	Wakeable // the fault fabric must be able to wake what it wraps
	fab      *killOnSendFabric
}

func (f *killOnSendFabric) Endpoint(i int) Endpoint {
	return killOnSendEndpoint{f.ChanFabric.Endpoint(i).(Wakeable), f}
}

func (e killOnSendEndpoint) Send(to int, m wire.Message) error {
	e.fab.ff.Kill(to)
	return e.Wakeable.Send(to, m)
}

// TestFaultSendRacesKill: a survivor whose send races a peer's kill learns
// that the PEER is down. A bare ErrClosed would read as "my own endpoint
// was killed", and the elastic engine would bury the sender with the
// victim.
func TestFaultSendRacesKill(t *testing.T) {
	under := &killOnSendFabric{ChanFabric: NewChanFabric(3)}
	ff := NewFaultFabric(under, FaultPlan{})
	under.ff = ff
	defer ff.Close()
	err := ff.Endpoint(0).Send(2, wire.Control(1, 1))
	var pd *PeerDownError
	if !errors.As(err, &pd) || pd.Peer != 2 {
		t.Fatalf("send racing the kill of rank 2: %v, want *PeerDownError{Peer: 2}", err)
	}
	// The sender's own death still reads as its own.
	ff.Kill(0)
	if err := ff.Endpoint(0).Send(1, wire.Control(1, 1)); !errors.Is(err, ErrClosed) || errors.As(err, &pd) {
		t.Fatalf("send from a killed rank: %v, want bare ErrClosed", err)
	}
}
