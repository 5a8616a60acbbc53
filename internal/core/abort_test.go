package core

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"psrahgadmm/internal/dataset"
	"psrahgadmm/internal/sparse"
	"psrahgadmm/internal/transport"
	"psrahgadmm/internal/wire"
)

// newTestCrew is a crew of n members over fab and nothing else of a run.
func newTestCrew(t *testing.T, fab transport.Fabric, elastic bool) *strategyEnv {
	t.Helper()
	env := &strategyEnv{ws: make([]*worker, fab.Size()), fab: fab, elastic: elastic}
	env.crew = newCrew(env)
	t.Cleanup(func() {
		env.crew.close()
		fab.Close()
	})
	return env
}

// TestCrewEndpointsSendNonBlocking: nothing stands between the crew and the
// fabric's endpoints, so a run sends inline exactly when the fabric says it
// can — over the in-process fabric, not over a fault-injecting one (whose
// sends may sleep) — elastic or not. A wrapper that hid SendNonBlocking once
// cost elastic runs a goroutine per message.
func TestCrewEndpointsSendNonBlocking(t *testing.T) {
	for _, elastic := range []bool{false, true} {
		env := newTestCrew(t, transport.NewChanFabricZeroCopy(3), elastic)
		for r, ep := range env.crew.eps {
			if !transport.SendsNonBlocking(ep) {
				t.Fatalf("elastic=%v: crew endpoint %d over a ChanFabric does not advertise non-blocking sends", elastic, r)
			}
		}
		env = newTestCrew(t, transport.NewFaultFabric(transport.NewChanFabricZeroCopy(3), transport.FaultPlan{}), elastic)
		for r, ep := range env.crew.eps {
			if transport.SendsNonBlocking(ep) {
				t.Fatalf("elastic=%v: crew endpoint %d over a FaultFabric advertises non-blocking sends", elastic, r)
			}
		}
	}
}

var errInjectedSend = errors.New("injected send failure")

// failingSendFabric is a ChanFabric in which one rank's Send starts failing
// once armed sends have gone through: a member that dies of something the
// transport knows nothing about, partway through a collective.
type failingSendFabric struct {
	*transport.ChanFabric
	victim int
	left   atomic.Int64 // sends the victim may still make; negative: unlimited
}

type failingSendEndpoint struct {
	transport.Wakeable
	fab *failingSendFabric
}

func (f *failingSendFabric) Endpoint(i int) transport.Endpoint {
	ep := f.ChanFabric.Endpoint(i)
	if i != f.victim {
		return ep
	}
	return failingSendEndpoint{ep.(transport.Wakeable), f}
}

func (e failingSendEndpoint) Send(to int, m wire.Message) error {
	if e.fab.left.Load() >= 0 && e.fab.left.Add(-1) < 0 {
		return errInjectedSend
	}
	return e.Wakeable.Send(to, m)
}

// SendNonBlocking forwards the question, as transport asks of wrappers: the
// chan endpoint underneath takes one sender at a time.
func (e failingSendEndpoint) SendNonBlocking() bool { return transport.SendsNonBlocking(e.Wakeable) }

// TestAbortedRoundUnblocksGroupAndRetryIsClean: one member of a 64-rank
// flat PSR round fails after 20 of its 63 scatter sends, which reach the
// first 20 other members in member order. The 43 it never reached are
// parked — with no deadline — on a chunk it will never send, and member 0,
// the round's root, also waits for the victim's gather frame; the failing
// member sets the latch and wakes them, and each stops with
// errRoundAborted. A member other than 0 that the victim did reach needs
// nothing more from it: it finishes its share (nil) unless the latch
// stops it first while it still waits on another member's chunk. The
// fabric is not closed and nothing refuses a send after the latch is set,
// so the aborted attempt's stragglers are all delivered; that is safe
// because every attempt draws a fresh tag window, which the retry shows:
// over the same fabric it matches none of them and returns the exact sum.
func TestAbortedRoundUnblocksGroupAndRetryIsClean(t *testing.T) {
	const p, dim, victim = 64, 4096, 17
	fab := &failingSendFabric{ChanFabric: transport.NewChanFabricZeroCopy(p), victim: victim}
	fab.left.Store(20)
	env := newTestCrew(t, fab, false)

	ranks := make([]int, p)
	inputs := make([]*sparse.Vector, p)
	want := sparse.NewVector(dim, 0)
	for r := range ranks {
		ranks[r] = r
		inputs[r] = sparse.NewVector(dim, 0)
		for j := r % 7; j < dim; j += 7 + r%5 {
			inputs[r].Index = append(inputs[r].Index, int32(j))
			inputs[r].Value = append(inputs[r].Value, float64(r+1))
		}
	}
	dense := make([]float64, dim)
	for _, in := range inputs {
		for k, j := range in.Index {
			dense[j] += in.Value[k]
		}
	}
	for j, v := range dense {
		if v != 0 {
			want.Index = append(want.Index, int32(j))
			want.Value = append(want.Value, v)
		}
	}

	// round runs one attempt under a watchdog: a member nobody woke is a
	// failure, not a hung job.
	round := func(what string, out *sparse.Vector) error {
		t.Helper()
		done := make(chan error, 1)
		go func() {
			_, err := groupAllreduce(env, ranks, commPSRSparse, nil, inputs, out)
			done <- err
		}()
		select {
		case err := <-done:
			return err
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: members still blocked", what)
			return nil
		}
	}

	out := new(sparse.Vector)
	err := round("aborted attempt", out)
	if !errors.Is(err, errInjectedSend) {
		t.Fatalf("aborted attempt: %v, want the victim's injected failure", err)
	}
	// reached: the victim's scatter walks the other members in order.
	reached := func(r int) bool {
		if r > victim {
			r--
		}
		return r < 20
	}
	for r, err := range env.crew.errs {
		switch {
		case r == victim:
			if !errors.Is(err, errInjectedSend) {
				t.Fatalf("victim: %v, want the injected failure", err)
			}
		case r != 0 && reached(r):
			if err != nil && !errors.Is(err, errRoundAborted) {
				t.Fatalf("member %d: %v, want nil or errRoundAborted", r, err)
			}
		case !errors.Is(err, errRoundAborted):
			t.Fatalf("member %d: %v, want errRoundAborted", r, err)
		}
	}

	fab.left.Store(-1)
	if err := round("retry", out); err != nil {
		t.Fatalf("retry over the same fabric: %v", err)
	}
	if len(out.Index) != len(want.Index) {
		t.Fatalf("retry: %d entries, want %d", len(out.Index), len(want.Index))
	}
	for k := range want.Index {
		if out.Index[k] != want.Index[k] || out.Value[k] != want.Value[k] {
			t.Fatalf("retry: entry %d = (%d, %v), want (%d, %v)", k, out.Index[k], out.Value[k], want.Index[k], want.Value[k])
		}
	}
}

// TestScheduledKillIsReportedTyped: in a fail-stop run the victim's own
// member fails first (its endpoint is dead before the round starts) and
// sets the abort latch, yet the run's error is the typed *PeerDownError a
// survivor saw, not the victim's bare ErrClosed or the abort's noise — the
// kill precedes the cascade, and the fault layer's reason is consulted
// before the crew's.
func TestScheduledKillIsReportedTyped(t *testing.T) {
	// Wide and sparse, so that some survivor has nothing to send the victim
	// and learns of the death while blocked in Recv, not from a failed Send.
	train, _, err := dataset.Generate(dataset.News20Like(0.001, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []Algorithm{PSRAHGADMM, PSRAADMM} {
		t.Run(string(alg), func(t *testing.T) {
			cfg := baseConfig(alg, 3, 2)
			cfg.MaxIter = 20
			cfg.Faults = &transport.FaultPlan{Seed: 3, KillAtIteration: map[int]int{2: 5}}
			_, err := Run(cfg, train, RunOptions{})
			var pd *transport.PeerDownError
			if !errors.As(err, &pd) || pd.Peer != 2 {
				t.Fatalf("Run: %v, want *PeerDownError{Peer: 2}", err)
			}
		})
	}
}
