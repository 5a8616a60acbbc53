package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"psrahgadmm/internal/wire"
)

// inboxDepth bounds each rank's undrained messages: the ones delivered
// since its owner last entered Recv. The ADMM algorithms are at most a few
// messages ahead per peer (a flat PSR round parks 2(p−1) in one inbox), so
// the bound is never reached in practice; if it is, Send blocks until the
// owner drains, which is exactly MPI's eager-limit behaviour. It is a
// bound, not a size: a mailbox holds what is in flight and nothing is
// allocated up front (DESIGN.md §6.1, "The in-process mailbox").
const inboxDepth = 4096

// ChanFabric is an in-process fabric connecting n rank goroutines through
// one mailbox per rank. Construct it once, hand Endpoint(i) to goroutine i.
type ChanFabric struct {
	size      int
	zeroCopy  bool
	endpoints []*chanEndpoint
}

// NewChanFabric creates a fabric with n ranks.
func NewChanFabric(n int) *ChanFabric {
	return newChanFabric(n, false)
}

// NewChanFabricZeroCopy creates a fabric whose Sends deliver float
// payloads WITHOUT the defensive deep copy — the delivered Dense/Sparse
// alias the sender's buffers. This deliberately opts out of the Endpoint
// aliasing contract and is safe only under the discipline the core engine
// enforces: collectives are barrier-aligned (every member completes a
// round before any member's buffers are rewritten for the next), and
// messages left over from aborted rounds are matched by tag but never
// payload-read. Anything without that structure must use NewChanFabric.
func NewChanFabricZeroCopy(n int) *ChanFabric {
	return newChanFabric(n, true)
}

func newChanFabric(n int, zeroCopy bool) *ChanFabric {
	if n <= 0 {
		panic("transport: fabric size must be positive")
	}
	f := &ChanFabric{size: n, zeroCopy: zeroCopy}
	f.endpoints = make([]*chanEndpoint, n)
	for i := range f.endpoints {
		ep := &chanEndpoint{fabric: f, rank: i}
		ep.arrived.L, ep.space.L = &ep.mu, &ep.mu
		ep.life.Store(new(chanLife))
		f.endpoints[i] = ep
	}
	return f
}

// Reopen resurrects a closed endpoint as a fresh life: stale messages from
// the previous life are dropped and a new open state installed, so a
// rejoining rank starts with an empty inbox. The caller must guarantee the
// previous owner goroutine has quiesced (no Recv in flight on this
// endpoint); concurrent Sends from peers are safe — they land in either
// life and at worst see one extra ErrClosed.
func (f *ChanFabric) Reopen(i int) {
	if err := checkRank(i, f.size); err != nil {
		panic(err)
	}
	ep := f.endpoints[i]
	ep.mu.Lock()
	ep.q = nil
	ep.buf = pending{}
	ep.life.Store(new(chanLife))
	ep.mu.Unlock()
}

// Size returns the number of ranks.
func (f *ChanFabric) Size() int { return f.size }

// Endpoint returns rank i's endpoint.
func (f *ChanFabric) Endpoint(i int) Endpoint {
	if err := checkRank(i, f.size); err != nil {
		panic(err)
	}
	return f.endpoints[i]
}

// Close closes every endpoint in the fabric.
func (f *ChanFabric) Close() {
	for _, ep := range f.endpoints {
		_ = ep.Close()
	}
}

// chanLife is one open-until-closed lifetime of an endpoint. Reopen swaps
// in a fresh life, so a Send that loaded the old one still sees it closed.
type chanLife struct {
	closed atomic.Bool
}

// chanEndpoint is one rank's mailbox. mu guards q, the messages delivered
// since the owner last drained, in arrival order; buf belongs to the owner
// goroutine alone and holds what it drained but has not matched yet. q
// grows to the in-flight high-water mark and is refilled from index 0.
type chanEndpoint struct {
	fabric *ChanFabric
	rank   int

	mu      sync.Mutex
	q       []wire.Message
	arrived sync.Cond // the owner, parked in Recv on an empty q
	space   sync.Cond // senders held at inboxDepth
	buf     pending

	life  atomic.Pointer[chanLife]
	stats statsCounter
}

func (e *chanEndpoint) Rank() int { return e.rank }
func (e *chanEndpoint) Size() int { return e.fabric.size }

func (e *chanEndpoint) Send(to int, m wire.Message) error {
	if err := checkRank(to, e.fabric.size); err != nil {
		return err
	}
	m.From = int32(e.rank)
	// Deep-copy float payloads: delivery must not alias the sender's
	// buffers, or a sender mutating its vector on a later collective step
	// races with a receiver still reading this one. This mirrors the TCP
	// fabric, where serialization makes the copy implicit. Zero-copy
	// fabrics shift that burden to the caller (see NewChanFabricZeroCopy).
	if !e.fabric.zeroCopy {
		if m.Dense != nil {
			m.Dense = append([]float64(nil), m.Dense...)
		}
		if m.Sparse != nil {
			m.Sparse = m.Sparse.Clone()
		}
	}
	dst := e.fabric.endpoints[to]
	own, dstLife := e.life.Load(), dst.life.Load()
	dst.mu.Lock()
	// A send to a closed-but-drainable inbox must still fail, and a sender
	// held at the bound re-checks both lives on every wake: Close
	// broadcasts space on every endpoint.
	for {
		if own.closed.Load() {
			dst.mu.Unlock()
			return ErrClosed
		}
		if dstLife.closed.Load() {
			dst.mu.Unlock()
			return fmt.Errorf("transport: send to closed rank %d: %w", to, ErrClosed)
		}
		if len(dst.q) < inboxDepth {
			break
		}
		dst.space.Wait()
	}
	dst.q = append(dst.q, m)
	dst.mu.Unlock()
	dst.arrived.Signal()
	e.stats.record(m)
	return nil
}

func (e *chanEndpoint) Recv(from int, tag int32) (wire.Message, error) {
	return e.recv(from, tag, 0)
}

func (e *chanEndpoint) RecvTimeout(from int, tag int32, d time.Duration) (wire.Message, error) {
	return e.recv(from, tag, d)
}

// recvDeadline is the expiry of one parked RecvTimeout; expired is guarded
// by the endpoint's mu.
type recvDeadline struct {
	timer   *time.Timer
	expired bool
}

func (e *chanEndpoint) armDeadline(d time.Duration) *recvDeadline {
	dl := new(recvDeadline)
	dl.timer = time.AfterFunc(d, func() {
		e.mu.Lock()
		dl.expired = true
		e.mu.Unlock()
		e.arrived.Signal()
	})
	return dl
}

func (e *chanEndpoint) recv(from int, tag int32, d time.Duration) (wire.Message, error) {
	if from != AnySource {
		if err := checkRank(from, e.fabric.size); err != nil {
			return wire.Message{}, err
		}
	}
	// The deadline is armed only when the wait is about to park: a match
	// that is already delivered, and every d <= 0, costs no timer and no
	// allocation.
	var dl *recvDeadline
	defer func() {
		if dl != nil {
			dl.timer.Stop()
		}
	}()
	for {
		if m, ok := e.buf.take(from, tag); ok {
			return m, nil
		}
		e.mu.Lock()
		// Closed and expired are consulted only on an empty q, so a message
		// delivered before Close is always matched first (see the
		// Endpoint.Recv contract).
		for len(e.q) == 0 {
			switch {
			case e.life.Load().closed.Load():
				e.mu.Unlock()
				return wire.Message{}, ErrClosed
			case dl != nil && dl.expired:
				e.mu.Unlock()
				return wire.Message{}, fmt.Errorf("transport: recv from %d tag %d: %w", from, tag, ErrTimeout)
			case dl == nil && d > 0:
				dl = e.armDeadline(d)
			}
			e.arrived.Wait()
		}
		// Take the whole batch under one lock: trade slices when buf is
		// drained (its slots are zeroed, its slice reset), append otherwise
		// and zero q so the mailbox pins no payload.
		atBound := len(e.q) >= inboxDepth
		if len(e.buf.msgs) == 0 {
			e.q, e.buf.msgs = e.buf.msgs, e.q
		} else {
			e.buf.put(e.q...)
			clear(e.q)
			e.q = e.q[:0]
		}
		e.mu.Unlock()
		if atBound {
			e.space.Broadcast()
		}
	}
}

// SendNonBlocking reports that Send completes without a concurrent
// receiver: delivery is an append to the destination's mailbox (it can
// block only if a peer falls inboxDepth messages behind, which the lockstep
// collectives never approach). Collectives use this to skip the send
// goroutine.
func (e *chanEndpoint) SendNonBlocking() bool { return true }

func (e *chanEndpoint) Stats() Stats { return e.stats.snapshot() }

// Close marks the life closed and wakes whoever may be parked on it: the
// owner's Recv, and senders held at the bound of any inbox — this
// endpoint's own goroutine may be one of them, in any peer's mailbox. n
// wakes on a rare path. Taking each lock orders the wake after the
// waiter's closed check.
func (e *chanEndpoint) Close() error {
	if e.life.Load().closed.Swap(true) {
		return nil
	}
	for _, ep := range e.fabric.endpoints {
		ep.mu.Lock()
		ep.arrived.Broadcast()
		ep.space.Broadcast()
		ep.mu.Unlock()
	}
	return nil
}
