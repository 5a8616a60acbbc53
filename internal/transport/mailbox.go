package transport

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"psrahgadmm/internal/wire"
)

// inboxDepth bounds each rank's undrained messages: the ones delivered
// since its owner last entered Recv. The ADMM algorithms are at most a few
// messages ahead per peer (a flat PSR round parks 2(p−1) in one inbox), so
// the bound is never reached in practice; if it is, the producer — the
// sender in process, the connection's reader over TCP — is held until the
// owner drains, which is exactly MPI's eager-limit behaviour. It is a
// bound, not a size: a mailbox holds what is in flight and nothing is
// allocated up front (DESIGN.md §6.1, "The mailbox").
const inboxDepth = 4096

// Interrupt is a receiver's reason to stop waiting: it returns the error a
// Recv(from, tag) that nothing delivered can satisfy must fail with, or nil
// to keep waiting. It runs under the mailbox's lock, so whoever changes what
// it reads must release its own locks and then call Wake — the receiver
// either saw the change or is parked by the time the wake arrives.
type Interrupt func(from int, tag int32) error

// Wakeable is the optional interface of endpoints whose blocked receivers
// can be given a reason to stop from outside: StopWhen installs it (nil
// removes it) and Wake makes every parked Recv consult it again. Fault
// injection and the engine's round abort are both built on it; an endpoint
// without it can only be unblocked by a message, a deadline or Close.
type Wakeable interface {
	Endpoint
	StopWhen(stop Interrupt)
	Wake()
}

// mailLife is one open-until-closed lifetime of a mailbox. reset swaps in
// a fresh life, so a put that loaded the old one still sees it closed.
type mailLife struct {
	closed atomic.Bool
}

// errInboxClosed is put's report that the destination's life ended.
var errInboxClosed = errors.New("transport: inbox closed")

// mailbox is one rank's inbox on either fabric, and the only place a rank
// waits. mu guards q, the messages delivered since the owner last drained,
// in arrival order, wait and stop; pending and need belong to the owner
// goroutine alone: pending holds what it drained but has not matched yet,
// need how many frames its next receives need (expect). q grows to the
// in-flight high-water mark and is refilled from index 0.
type mailbox struct {
	mu      sync.Mutex
	q       []wire.Message
	arrived sync.Cond // the owner, parked in recv on an empty q
	space   sync.Cond // producers held at inboxDepth
	wait    int       // 0, or the owner is in arrived.Wait until q holds wait frames
	need    int
	pending pending
	stop    Interrupt

	life atomic.Pointer[mailLife]
}

func (b *mailbox) init() {
	b.arrived.L, b.space.L = &b.mu, &b.mu
	b.life.Store(new(mailLife))
}

// put delivers *m, holding the caller while the inbox is at the bound. It
// gives up with errInboxClosed once this mailbox's life is closed — a
// closed-but-drainable inbox takes nothing more — and with ErrClosed once
// sender's is (nil: the producer has no life of its own). A held producer
// re-checks both on every wake.
func (b *mailbox) put(m *wire.Message, sender *mailLife) error {
	life := b.life.Load()
	b.mu.Lock()
	for {
		if sender != nil && sender.closed.Load() {
			b.mu.Unlock()
			return ErrClosed
		}
		if life.closed.Load() {
			b.mu.Unlock()
			return errInboxClosed
		}
		if len(b.q) < inboxDepth {
			break
		}
		b.space.Wait()
	}
	b.q = append(b.q, *m)
	// Only a parked owner needs the signal, and only once q holds the
	// frames it waits for; one that is not parked finds q non-empty under
	// the lock before it would park.
	signal := b.wait > 0 && len(b.q) >= b.wait
	if signal {
		b.wait = 0
	}
	b.mu.Unlock()
	if signal {
		b.arrived.Signal()
	}
	return nil
}

// recvDeadline is the expiry of one parked recv; expired is guarded by the
// mailbox's mu.
type recvDeadline struct {
	timer   *time.Timer
	expired bool
}

func (b *mailbox) armDeadline(d time.Duration) *recvDeadline {
	dl := new(recvDeadline)
	dl.timer = time.AfterFunc(d, func() {
		b.mu.Lock()
		dl.expired = true
		b.mu.Unlock()
		b.arrived.Signal()
	})
	return dl
}

// expect sets need (see Expecter). A frame of any tag counts toward it, so
// the count can wake the owner early but never strand it: a recv parks only
// once pending holds no match, so every frame it needs is still to come.
func (b *mailbox) expect(n int) { b.need = n }

// recv returns the first delivered message matching (from, tag), parking
// until one arrives, the reason to stop or Close says it never will, or d
// (when positive) runs out. A match the owner already drained is returned
// at once: no lock, no deadline, no defer.
func (b *mailbox) recv(from int, tag int32, d time.Duration) (wire.Message, error) {
	if m, ok := b.pending.take(from, tag); ok {
		return m, nil
	}
	return b.await(from, tag, d)
}

// await is recv once pending holds no match: it drains q into pending under
// the lock, parking while q is empty, until a drained batch holds a match.
func (b *mailbox) await(from int, tag int32, d time.Duration) (wire.Message, error) {
	// The deadline is armed only when the wait is about to park: a match
	// already delivered, and every d <= 0, costs no timer and no allocation.
	var dl *recvDeadline
	defer func() {
		if dl != nil {
			dl.timer.Stop()
		}
	}()
	for {
		b.mu.Lock()
		// Reason, closed and expired are consulted only on an empty q, so a
		// message delivered before a death, an abort or Close is always
		// matched first (see the Endpoint.Recv contract). The reason goes
		// before closed: a typed cause beats the ErrClosed of the teardown
		// it set off.
		for len(b.q) == 0 {
			var err error
			if b.stop != nil {
				err = b.stop(from, tag)
			}
			switch {
			case err != nil:
			case b.life.Load().closed.Load():
				err = ErrClosed
			case dl != nil && dl.expired:
				err = fmt.Errorf("transport: recv from %d tag %d: %w", from, tag, ErrTimeout)
			case dl == nil && d > 0:
				dl = b.armDeadline(d)
			}
			if err != nil {
				b.mu.Unlock()
				return wire.Message{}, err
			}
			b.wait = min(max(b.need, 1), inboxDepth)
			b.arrived.Wait()
			b.wait = 0
		}
		// Take the whole batch under one lock: trade slices when pending is
		// drained (its slots are zeroed, its slice reset), append otherwise
		// and zero q so the mailbox pins no payload.
		atBound := len(b.q) >= inboxDepth
		if len(b.pending.msgs) == 0 {
			b.q, b.pending.msgs = b.pending.msgs, b.q
		} else {
			b.pending.put(b.q...)
			clear(b.q)
			b.q = b.q[:0]
		}
		b.mu.Unlock()
		if atBound {
			b.space.Broadcast()
		}
		if m, ok := b.pending.take(from, tag); ok {
			return m, nil
		}
	}
}

// stopWhen installs the owner's reason to stop; it outlives reset.
func (b *mailbox) stopWhen(stop Interrupt) {
	b.mu.Lock()
	b.stop = stop
	b.mu.Unlock()
}

// wake makes the parked owner consult its reason (and held producers their
// lives) again. Taking the lock orders the wake after the waiter's check:
// it either saw the change the caller made or is parked by now.
func (b *mailbox) wake() {
	b.mu.Lock()
	b.arrived.Broadcast()
	b.space.Broadcast()
	b.mu.Unlock()
}

// close ends the current life and wakes whoever is parked on this mailbox.
// It reports whether this call did the closing.
func (b *mailbox) close() bool {
	if b.life.Load().closed.Swap(true) {
		return false
	}
	b.wake()
	return true
}

// reset starts a fresh life with an empty inbox, keeping the reason.
func (b *mailbox) reset() {
	b.mu.Lock()
	b.q = nil
	b.pending = pending{}
	b.life.Store(new(mailLife))
	b.mu.Unlock()
}

// recvDownError decides whether self's Recv(from, ...) can still be
// satisfied, given the fabric's death records. A targeted Recv fails as
// soon as its source is down, gracefully or not. An AnySource Recv fails on
// a CRASHED peer — a rank that vanished without a goodbye may be exactly
// the one whose message the caller is waiting for, so continuing risks a
// hang — but each crash is reported only ONCE per observer (reported): the
// report lets the caller register the death, after which later any-source
// waits tolerate the known-dead rank like a graceful departure (ranks that
// Closed after finishing) as long as at least one remote peer is still
// alive. Without the once-only rule an elastic caller that already pruned
// the dead rank would have every subsequent wait re-failed by old news —
// the Group Generator's request loop would spin instead of serving
// survivors. A fully departed world fails regardless: nobody is left to
// send. The caller holds the lock guarding down and reported.
func recvDownError(down []*PeerDownError, reported []bool, self, from int) error {
	if from != AnySource {
		if d := down[from]; d != nil {
			return d
		}
		return nil
	}
	var first *PeerDownError
	allDown := true
	for r, d := range down {
		if r == self {
			continue
		}
		if d == nil {
			allDown = false
			continue
		}
		if first == nil {
			first = d
		}
		if !d.Graceful && !reported[r] {
			reported[r] = true
			return d // a crash can strand this wait forever — fail now
		}
	}
	if allDown && first != nil {
		return first
	}
	return nil // live peers remain (or single-rank world: loopback only)
}
