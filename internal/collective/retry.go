package collective

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"psrahgadmm/internal/transport"
	"psrahgadmm/internal/wire"
)

// Bounded retry with exponential backoff: the degraded-mode runtimes never
// block forever on a peer, and never declare one dead on first loss. A
// message that a FaultFabric dropped or delayed is retried under a growing
// deadline; only transport-level death evidence (PeerDownError) or an
// exhausted budget ends the wait. Crucially the two outcomes are distinct:
//
//   - *transport.PeerDownError — the peer is KNOWN dead; the caller prunes
//     it from membership.
//   - ErrUnavailable — the budget ran out but the peer is (as far as the
//     transport knows) alive; the caller treats the exchange as stale and
//     moves on WITHOUT declaring anyone dead. Slowness is not death.
//
// This is tentpole (3) of the elastic design: a peer is only removed from
// the world after the transport itself says so, never because a retry
// budget expired.

// ErrUnavailable reports that a peer did not respond within the retry
// budget but is not known to be dead. Callers skip the exchange (bounded
// staleness) instead of pruning the peer.
var ErrUnavailable = errors.New("collective: peer unresponsive within retry budget")

// ackTagOffset maps a data tag to its acknowledgement tag. User tags must
// stay below this offset; the wire package's reserved control tags are
// negative and cannot collide.
const ackTagOffset = int32(1) << 28

// AckTag returns the acknowledgement tag paired with a data tag.
func AckTag(tag int32) int32 { return tag + ackTagOffset }

// RetryPolicy bounds a retried exchange: up to Attempts tries, the i-th
// waiting BaseDelay·2^i capped at MaxDelay. The zero value means the
// defaults (4 attempts, 50ms base, 2s cap).
type RetryPolicy struct {
	Attempts  int
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Jitter decorrelates the waits: each attempt draws uniformly from
	// [BaseDelay, 3·previous], clamped to [delay(attempt)/2, MaxDelay].
	// The clamp keeps the exponential shape — the budget a caller sized
	// against the deterministic schedule still holds to within 2× — while
	// N survivors retrying the same dead peer spread out instead of
	// thundering the transport in lockstep. Off by default so tests that
	// pin exact schedules stay deterministic.
	Jitter bool
}

func (p RetryPolicy) fill() RetryPolicy {
	if p.Attempts <= 0 {
		p.Attempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	return p
}

// delay returns the attempt-th wait (0-based) under exponential backoff.
func (p RetryPolicy) delay(attempt int) time.Duration {
	d := p.BaseDelay
	for i := 0; i < attempt; i++ {
		d *= 2
		if d >= p.MaxDelay {
			return p.MaxDelay
		}
	}
	if d > p.MaxDelay {
		d = p.MaxDelay
	}
	return d
}

// jitteredDelay returns the attempt-th wait under decorrelated jitter: a
// uniform draw from [BaseDelay, 3·prev] (prev = the previous attempt's
// wait), clamped to [delay(attempt)/2, MaxDelay]. Drawing against the
// previous *realized* wait rather than the deterministic schedule is what
// decorrelates concurrent retriers: their sleep sequences diverge after
// the first draw instead of re-synchronizing every attempt.
func (p RetryPolicy) jitteredDelay(attempt int, prev time.Duration) time.Duration {
	hi := 3 * prev
	if hi < p.BaseDelay {
		hi = p.BaseDelay
	}
	d := p.BaseDelay
	if span := int64(hi - p.BaseDelay); span > 0 {
		d += time.Duration(rand.Int63n(span + 1))
	}
	if floor := p.delay(attempt) / 2; d < floor {
		d = floor
	}
	if d > p.MaxDelay {
		d = p.MaxDelay
	}
	return d
}

// wait returns the attempt-th wait, threading prev for jitter's
// decorrelation state. Callers start with prev = 0.
func (p RetryPolicy) wait(attempt int, prev time.Duration) time.Duration {
	if !p.Jitter {
		return p.delay(attempt)
	}
	if prev <= 0 {
		prev = p.BaseDelay
	}
	return p.jitteredDelay(attempt, prev)
}

// RecvRetry waits for a message from `from` (or transport.AnySource) on
// tag, retrying with exponential backoff. It returns the message; a
// *transport.PeerDownError as soon as the source is known dead; or
// ErrUnavailable once the budget is exhausted with the peer still alive.
func RecvRetry(ep transport.Endpoint, from int, tag int32, pol RetryPolicy) (wire.Message, error) {
	pol = pol.fill()
	var prev time.Duration
	var corrupt error
	for attempt := 0; attempt < pol.Attempts; attempt++ {
		prev = pol.wait(attempt, prev)
		m, err := ep.RecvTimeout(from, tag, prev)
		if err == nil {
			return m, nil
		}
		switch {
		case errors.Is(err, transport.ErrTimeout):
		case errors.Is(err, wire.ErrFrameCorrupt):
			// The frame arrived but failed its integrity check and was
			// dropped: a recoverable loss, not a wrong answer. Burn an
			// attempt and keep waiting — an ack-protocol sender re-sends.
			corrupt = err
		default:
			return wire.Message{}, err
		}
	}
	if corrupt != nil {
		return wire.Message{}, fmt.Errorf("collective: recv from %d tag %d: %w (last corrupt frame: %v)",
			from, tag, ErrUnavailable, corrupt)
	}
	return wire.Message{}, fmt.Errorf("collective: recv from %d tag %d: %w", from, tag, ErrUnavailable)
}

// SendAck sends m to `to` and waits for the receiver's acknowledgement on
// AckTag(m.Tag), resending the payload on each timeout — the recovery path
// for FaultFabric drops. The receiver acknowledges each copy it takes with
// a control message on AckTag(m.Tag).
//
// When the ack budget is exhausted the sender probes the peer's liveness:
// a dead peer returns its PeerDownError; a live peer means the data (or
// its ack) was merely lost or slow, and the send is reported successful —
// at-least-once delivery, with duplicates left harmlessly unmatched under
// the iteration-unique tags all callers use.
func SendAck(ep transport.Endpoint, to int, m wire.Message, pol RetryPolicy) error {
	pol = pol.fill()
	ackTag := AckTag(m.Tag)
	var prev time.Duration
	for attempt := 0; attempt < pol.Attempts; attempt++ {
		if err := ep.Send(to, m); err != nil {
			return err
		}
		prev = pol.wait(attempt, prev)
		_, err := ep.RecvTimeout(to, ackTag, prev)
		if err == nil {
			return nil
		}
		// A corrupt frame (the data frame on the receiver's side, or the
		// ack on ours) is a recoverable loss: loop and resend the payload,
		// exactly as for a timeout.
		if !errors.Is(err, transport.ErrTimeout) && !errors.Is(err, wire.ErrFrameCorrupt) {
			return err
		}
	}
	if err := ProbePeer(ep, to); err != nil {
		return err
	}
	return nil // peer alive: assume delivered (ack lost), proceed
}

// probeTag is a tag no protocol sends on: a RecvTimeout against it can
// only end in ErrTimeout (peer alive) or a PeerDownError (peer dead),
// which is exactly the liveness oracle SendAck needs.
const probeTag = ackTagOffset - 1

// ProbePeer checks whether a peer is known dead without exchanging any
// message: it returns the peer's PeerDownError if the transport has one,
// nil while the peer is (as far as anyone knows) alive.
func ProbePeer(ep transport.Endpoint, peer int) error {
	_, err := ep.RecvTimeout(peer, probeTag, time.Millisecond)
	if err == nil || errors.Is(err, transport.ErrTimeout) {
		return nil
	}
	return err
}
