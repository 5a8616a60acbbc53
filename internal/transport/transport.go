// Package transport provides the message-passing fabric the PSRA-HGADMM
// algorithms run on. It plays the role MPICH plays in the paper: reliable,
// ordered, tagged point-to-point messaging between ranks, with two
// interchangeable implementations:
//
//   - ChanFabric: all ranks are goroutines in one process and a Send is an
//     append to the destination's mailbox. This is the default for the
//     engine, the tests, and the benchmark harness.
//   - TCPFabric: each rank is a peer in a full TCP mesh using the wire
//     codec, one reader per connection feeding the rank's mailbox. This is
//     the "custom RPC" substitute for MPI when ranks live in separate
//     processes (see cmd/psra-worker).
//
// On both, a rank waits for a message in exactly one place — mailbox.recv —
// and whatever else may end that wait (a dead peer, an injected fault, the
// engine aborting a round) is a reason the mailbox consults, not a loop
// around it. Collectives (package collective) and the WLG runtime (package
// wlg) are written purely against Endpoint, so every algorithm runs
// unchanged on either fabric.
package transport

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"psrahgadmm/internal/wire"
)

// AnySource makes Recv match a message from any sender, like MPI_ANY_SOURCE.
const AnySource = -1

// ErrClosed is returned by Send/Recv after the endpoint has been closed.
var ErrClosed = errors.New("transport: endpoint closed")

// ErrTimeout is returned (wrapped) by RecvTimeout when the deadline expires
// before a matching message arrives. Check with errors.Is.
var ErrTimeout = errors.New("transport: deadline exceeded")

// PeerDownError reports that a specific peer rank has failed: its
// connection broke, a frame from it failed to decode, or it went silent
// past the configured heartbeat timeout. Once a peer is down, every Send to
// it and every Recv that could only be satisfied by it fails fast with this
// error instead of blocking forever — the property the WLG runtime needs to
// turn a crashed worker into a clean abort rather than a cluster-wide hang.
type PeerDownError struct {
	// Peer is the world rank that failed.
	Peer int
	// Cause is the first error observed from the peer (EOF, decode
	// failure, write error, or heartbeat timeout).
	Cause error
	// Graceful is true when the peer announced an orderly shutdown (a
	// goodbye frame preceded the disconnect) rather than crashing. A
	// graceful departure still fails targeted Sends and Recvs — the peer
	// will never speak again — but is tolerated by Recv(AnySource) waits,
	// which only a crash (or a fully departed world) aborts.
	Graceful bool
}

func (e *PeerDownError) Error() string {
	return fmt.Sprintf("transport: peer %d down: %v", e.Peer, e.Cause)
}

func (e *PeerDownError) Unwrap() error { return e.Cause }

// Endpoint is one rank's handle onto the fabric. Send and Recv follow MPI
// point-to-point semantics: messages between a fixed (sender, receiver)
// pair are delivered in send order, and Recv matches on (source, tag),
// buffering non-matching messages until a matching Recv arrives.
//
// An Endpoint is safe for use by a single goroutine (one rank = one
// goroutine); concurrent Sends from the owning goroutine's helpers must be
// externally serialized.
type Endpoint interface {
	// Rank returns this endpoint's 0-based rank.
	Rank() int
	// Size returns the number of ranks in the world.
	Size() int
	// Send delivers m to rank `to`. The From field is stamped by the
	// fabric. Delivered payloads never alias the sender's buffers: the
	// channel fabric and a TCP self-send deep-copy float payloads, the
	// TCP fabric otherwise serializes. Senders may mutate their buffers as
	// soon as Send returns.
	Send(to int, m wire.Message) error
	// Recv blocks until a message with the given tag from the given source
	// (or from anyone when from == AnySource) is available.
	//
	// Delivery guarantee around shutdown: messages already delivered to
	// this endpoint before Close are never dropped — Recv drains and
	// matches them first and returns ErrClosed only once no buffered
	// message matches. Likewise, frames received from a peer before it
	// died are matched before Recv reports the peer's PeerDownError.
	//
	// Failure policy: a targeted Recv fails once its source is down for
	// any reason. An AnySource Recv fails on the first crashed peer, but
	// tolerates graceful departures (PeerDownError.Graceful) while any
	// remote peer is still alive.
	Recv(from int, tag int32) (wire.Message, error)
	// RecvTimeout is Recv with a deadline: it returns an error wrapping
	// ErrTimeout if no matching message arrives within d. d <= 0 means no
	// deadline (identical to Recv). On fabrics with failure detection a
	// dead peer surfaces as PeerDownError as soon as it is detected, which
	// may be well before the deadline.
	RecvTimeout(from int, tag int32, d time.Duration) (wire.Message, error)
	// Stats returns cumulative traffic and error counters for this endpoint.
	Stats() Stats
	// Close tears down the endpoint. Blocked Recvs return ErrClosed (after
	// draining already-delivered messages, per the Recv contract).
	Close() error
}

// NonBlockingSender is the optional interface of endpoints whose Send
// needs no concurrent receiver to make progress (in-process buffered
// delivery). Collectives consult it to send inline instead of spawning a
// goroutine per message — the dominant per-iteration allocation on hot
// paths. Endpoints that may block in Send (TCP flow control, injected
// fault delays) simply don't implement it, or return false; wrappers
// should forward the question to what they wrap.
type NonBlockingSender interface {
	SendNonBlocking() bool
}

// SendsNonBlocking reports whether ep advertises non-blocking sends.
func SendsNonBlocking(ep Endpoint) bool {
	nb, ok := ep.(NonBlockingSender)
	return ok && nb.SendNonBlocking()
}

// Releaser is the optional interface of endpoints that decode received
// payloads into pooled storage: the TCP fabric. Release hands back the
// payload of a message this endpoint's Recv returned, once the caller has
// copied out of it; the next frame a connection reader decodes may then
// overwrite it. Release is legal at most once per message and only when
// nothing will read the payload again. Releasing a message whose payload
// did not come from the pool — a loopback self-send's copy — is a no-op.
// Wrappers must NOT forward Release: a wrapper may deliver one payload
// twice (FaultPlan.DupProb) or hand it to someone who keeps it, so a
// wrapped endpoint simply keeps allocating what it receives.
type Releaser interface {
	Release(m wire.Message)
}

// copyPayload gives m float payloads of its own, so that delivery does not
// alias the sender's buffers (Endpoint.Send's contract) on paths that do
// not serialize. Control integers are small and not copied.
func copyPayload(m *wire.Message) {
	if m.Dense != nil {
		m.Dense = append([]float64(nil), m.Dense...)
	}
	if m.Sparse != nil {
		m.Sparse = m.Sparse.Clone()
	}
}

// Fabric is a set of endpoints sharing one world — the handle the engine
// holds to build, wrap (fault injection), and tear down a whole cluster of
// ranks at once. ChanFabric and FaultFabric implement it.
type Fabric interface {
	// Size returns the number of ranks.
	Size() int
	// Endpoint returns rank i's endpoint.
	Endpoint(i int) Endpoint
	// Close closes every endpoint, unblocking all ranks.
	Close()
}

// Stats counts traffic an endpoint has sent and errors it has observed.
type Stats struct {
	MsgsSent  int64
	BytesSent int64
	// RecvErrors counts frames that failed to decode on this endpoint's
	// reader side (corrupted frames, protocol violations). A clean peer
	// shutdown (EOF at a frame boundary) is not counted.
	RecvErrors int64
	// HeartbeatsSent counts keepalive frames, which are deliberately
	// excluded from MsgsSent/BytesSent so algorithm-traffic accounting is
	// unchanged by liveness plumbing.
	HeartbeatsSent int64
	// FramesCorrupt counts frames whose CRC32C trailer failed verification
	// on this endpoint's reader side. Each one was dropped (never delivered
	// to the algorithm) and recovered by the collective retry layer; a
	// nonzero count with a correct result is the integrity layer working.
	FramesCorrupt int64
}

type statsCounter struct {
	msgs       atomic.Int64
	bytes      atomic.Int64
	recvErrs   atomic.Int64
	heartbeats atomic.Int64
	corrupt    atomic.Int64
}

func (s *statsCounter) record(m wire.Message) {
	s.msgs.Add(1)
	s.bytes.Add(int64(wire.EncodedBytes(m)))
}

func (s *statsCounter) snapshot() Stats {
	return Stats{
		MsgsSent:       s.msgs.Load(),
		BytesSent:      s.bytes.Load(),
		RecvErrors:     s.recvErrs.Load(),
		HeartbeatsSent: s.heartbeats.Load(),
		FramesCorrupt:  s.corrupt.Load(),
	}
}

func checkRank(rank, size int) error {
	if rank < 0 || rank >= size {
		return fmt.Errorf("transport: rank %d out of range [0,%d)", rank, size)
	}
	return nil
}

// checkSource validates the from argument of a Recv.
func checkSource(from, size int) error {
	if from == AnySource {
		return nil
	}
	return checkRank(from, size)
}

// pending is the arrival-ordered buffer of received-but-unmatched
// messages. msgs[head:] are live; msgs[:head] are vacated slots, zeroed so
// that a taken message's payload is not pinned by the buffer.
type pending struct {
	msgs []wire.Message
	head int
}

// take removes and returns the first buffered message matching (from, tag).
// The gap is closed from the head side — a match is usually at or near the
// head, so this moves the few messages before it, not the rest of the
// batch — and a drained buffer resets to msgs[:0].
func (p *pending) take(from int, tag int32) (wire.Message, bool) {
	for i := p.head; i < len(p.msgs); i++ {
		if !matches(p.msgs[i], from, tag) {
			continue
		}
		m := p.msgs[i]
		copy(p.msgs[p.head+1:i+1], p.msgs[p.head:i])
		p.msgs[p.head] = wire.Message{}
		p.head++
		if p.head == len(p.msgs) {
			p.msgs, p.head = p.msgs[:0], 0
		}
		return m, true
	}
	return wire.Message{}, false
}

// put appends ms in arrival order. The vacated prefix is reclaimed once it
// is at least as long as the live part, so a buffer that never fully drains
// stays within a constant factor of its live high-water mark at amortised
// constant cost per message.
func (p *pending) put(ms ...wire.Message) {
	if p.head > 0 && p.head >= len(p.msgs)-p.head {
		n := copy(p.msgs, p.msgs[p.head:])
		clear(p.msgs[n:])
		p.msgs, p.head = p.msgs[:n], 0
	}
	p.msgs = append(p.msgs, ms...)
}

// matches reports whether m satisfies a Recv(from, tag) call.
func matches(m wire.Message, from int, tag int32) bool {
	return m.Tag == tag && (from == AnySource || int(m.From) == from)
}
