package transport

import (
	"fmt"
	"time"

	"psrahgadmm/internal/wire"
)

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
		ep.box.init()
		f.endpoints[i] = ep
	}
	return f
}

// Reopen resurrects a closed endpoint as a fresh life: stale messages from
// the previous life are dropped and a new open state installed, so a
// rejoining rank starts with an empty inbox (and the reason to stop it was
// given, if any). The caller must guarantee the
// previous owner goroutine has quiesced (no Recv in flight on this
// endpoint); concurrent Sends from peers are safe — they land in either
// life and at worst see one extra ErrClosed.
func (f *ChanFabric) Reopen(i int) {
	if err := checkRank(i, f.size); err != nil {
		panic(err)
	}
	f.endpoints[i].box.reset()
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

// chanEndpoint is one rank of a ChanFabric: its mailbox, which its peers
// put into and it alone receives from, and the traffic it sent. Only its
// one sender at a time writes msgs and bytes (see Endpoint), so they are
// plain fields, not atomics; nothing else on this fabric counts.
type chanEndpoint struct {
	fabric *ChanFabric
	rank   int
	box    mailbox
	msgs   int64
	bytes  int64
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
		copyPayload(&m)
	}
	// Sized before the put: once delivered, the payload is the receiver's.
	n := int64(wire.EncodedBytes(&m))
	switch err := e.fabric.endpoints[to].box.put(&m, e.box.life.Load()); err {
	case nil:
		e.msgs++
		e.bytes += n
		return nil
	case errInboxClosed:
		return fmt.Errorf("transport: send to closed rank %d: %w", to, ErrClosed)
	default:
		return err
	}
}

func (e *chanEndpoint) Recv(from int, tag int32) (wire.Message, error) {
	if err := checkSource(from, e.fabric.size); err != nil {
		return wire.Message{}, err
	}
	return e.box.recv(from, tag, 0)
}

func (e *chanEndpoint) RecvTimeout(from int, tag int32, d time.Duration) (wire.Message, error) {
	if err := checkSource(from, e.fabric.size); err != nil {
		return wire.Message{}, err
	}
	return e.box.recv(from, tag, d)
}

func (e *chanEndpoint) StopWhen(stop Interrupt) { e.box.stopWhen(stop) }
func (e *chanEndpoint) Wake()                   { e.box.wake() }
func (e *chanEndpoint) Expect(n int)            { e.box.expect(n) }

// SendNonBlocking reports that Send completes without a concurrent
// receiver: delivery is an append to the destination's mailbox (it can
// block only if a peer falls inboxDepth messages behind, which the lockstep
// collectives never approach). Collectives use this to skip the send
// goroutine.
func (e *chanEndpoint) SendNonBlocking() bool { return true }

func (e *chanEndpoint) Stats() Stats { return Stats{MsgsSent: e.msgs, BytesSent: e.bytes} }

// Close ends the life and wakes whoever may be parked on it: the owner's
// Recv, and senders held at the bound of any inbox — this endpoint's own
// goroutine may be one of them, in any peer's mailbox. n wakes on a rare
// path.
func (e *chanEndpoint) Close() error {
	if e.box.close() {
		for _, ep := range e.fabric.endpoints {
			ep.box.wake()
		}
	}
	return nil
}
