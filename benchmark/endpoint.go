package main

import (
	"sync"
	"time"

	"psrahgadmm/internal/transport"
	"psrahgadmm/internal/wire"
)

// timedEndpoint decorates a transport.Endpoint with a span around every
// Send and Recv, so the traced mesh run can say where a rank's time on the
// wire went. It changes nothing else: results, errors, deadlines and
// Stats pass through untouched.
//
// The runtime's collectives may Send from helper goroutines while the
// rank's own goroutine sits in Recv, so the per-rank context is guarded.
type timedEndpoint struct {
	transport.Endpoint
	rec *recorder
	gg  int // the Group Generator's rank

	mu       sync.Mutex
	parent   int   // span the next Send/Recv belongs to
	iter     int   // iteration it belongs to
	ggSentAt int64 // start of the last Send to the GG, -1 when none is pending
}

func newTimedEndpoint(ep transport.Endpoint, rec *recorder, gg int) *timedEndpoint {
	return &timedEndpoint{Endpoint: ep, rec: rec, gg: gg, parent: -1, ggSentAt: -1}
}

// enter sets the span and iteration that following calls are charged to.
func (t *timedEndpoint) enter(parent, iter int) {
	t.mu.Lock()
	t.parent, t.iter = parent, iter
	t.mu.Unlock()
}

func (t *timedEndpoint) context() (parent, iter int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.parent, t.iter
}

func (t *timedEndpoint) Send(to int, m wire.Message) error {
	parent, iter := t.context()
	start := t.rec.now()
	err := t.Endpoint.Send(to, m)
	t.rec.add("transport.send", parent, t.Rank(), iter, start, t.rec.now())
	if to == t.gg {
		t.mu.Lock()
		t.ggSentAt = start
		t.mu.Unlock()
	}
	return err
}

func (t *timedEndpoint) Recv(from int, tag int32) (wire.Message, error) {
	parent, iter := t.context()
	start := t.rec.now()
	m, err := t.Endpoint.Recv(from, tag)
	t.recvDone(from, parent, iter, start)
	return m, err
}

func (t *timedEndpoint) RecvTimeout(from int, tag int32, d time.Duration) (wire.Message, error) {
	parent, iter := t.context()
	start := t.rec.now()
	m, err := t.Endpoint.RecvTimeout(from, tag, d)
	t.recvDone(from, parent, iter, start)
	return m, err
}

// recvDone records the wait, and — when this Recv answers a pending
// request to the Group Generator — the whole GG round trip, from the
// request's Send to the reply's arrival.
func (t *timedEndpoint) recvDone(from, parent, iter int, start int64) {
	end := t.rec.now()
	t.rec.add("transport.recv", parent, t.Rank(), iter, start, end)
	if from != t.gg {
		return
	}
	t.mu.Lock()
	sent := t.ggSentAt
	t.ggSentAt = -1
	t.mu.Unlock()
	if sent >= 0 {
		t.rec.add("wlg.gg_wait", parent, t.Rank(), iter, sent, end)
	}
}

// SendNonBlocking forwards the optional fast-path question to the wrapped
// endpoint, as transport asks of wrappers.
func (t *timedEndpoint) SendNonBlocking() bool { return transport.SendsNonBlocking(t.Endpoint) }
