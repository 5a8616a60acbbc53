package collective

import (
	"errors"
	"strings"
	"testing"
	"time"

	"psrahgadmm/internal/transport"
	"psrahgadmm/internal/wire"
)

func TestRecvRetryOutwaitsDelay(t *testing.T) {
	fab := transport.NewChanFabric(2)
	defer fab.Close()
	go func() {
		time.Sleep(60 * time.Millisecond)
		fab.Endpoint(1).Send(0, wire.Control(9, 7))
	}()
	pol := RetryPolicy{Attempts: 6, BaseDelay: 10 * time.Millisecond}
	m, err := RecvRetry(fab.Endpoint(0), 1, 9, pol)
	if err != nil {
		t.Fatalf("RecvRetry should outlast the delay: %v", err)
	}
	if m.Ints[0] != 7 {
		t.Fatalf("wrong payload: %+v", m)
	}
}

// TestJitteredBackoffBounds pins the decorrelated-jitter envelope: every
// wait stays within [delay(attempt)/2, MaxDelay], so a budget sized
// against the deterministic schedule still holds to within 2×, and the
// draws actually vary — the whole point of jitter.
func TestJitteredBackoffBounds(t *testing.T) {
	pol := RetryPolicy{
		Attempts:  6,
		BaseDelay: 10 * time.Millisecond,
		MaxDelay:  50 * time.Millisecond,
		Jitter:    true,
	}.fill()
	distinct := make(map[time.Duration]bool)
	for trial := 0; trial < 200; trial++ {
		var prev time.Duration
		for attempt := 0; attempt < pol.Attempts; attempt++ {
			d := pol.wait(attempt, prev)
			lo, hi := pol.delay(attempt)/2, pol.MaxDelay
			if d < lo || d > hi {
				t.Fatalf("attempt %d: wait %v outside [%v, %v]", attempt, d, lo, hi)
			}
			prev = d
			distinct[d] = true
		}
	}
	if len(distinct) < 10 {
		t.Fatalf("jitter produced only %d distinct waits across 200 trials", len(distinct))
	}
	// Without Jitter the schedule is exactly the deterministic one.
	det := RetryPolicy{Attempts: 3, BaseDelay: 10 * time.Millisecond, MaxDelay: 50 * time.Millisecond}.fill()
	for attempt := 0; attempt < det.Attempts; attempt++ {
		if det.wait(attempt, 0) != det.delay(attempt) {
			t.Fatalf("attempt %d: non-jittered wait diverged from schedule", attempt)
		}
	}
}

func TestRecvRetryBudgetExhaustion(t *testing.T) {
	fab := transport.NewChanFabric(2)
	defer fab.Close()
	pol := RetryPolicy{Attempts: 3, BaseDelay: 5 * time.Millisecond}
	_, err := RecvRetry(fab.Endpoint(0), 1, 9, pol)
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("want ErrUnavailable, got %v", err)
	}
}

func TestRecvRetryFastFailsOnDeath(t *testing.T) {
	fab := transport.NewFaultFabric(transport.NewChanFabric(2), transport.FaultPlan{Seed: 1})
	defer fab.Close()
	fab.Kill(1)
	start := time.Now()
	pol := RetryPolicy{Attempts: 10, BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second}
	_, err := RecvRetry(fab.Endpoint(0), 1, 9, pol)
	var pd *transport.PeerDownError
	if !errors.As(err, &pd) || pd.Peer != 1 {
		t.Fatalf("want PeerDownError{1}, got %v", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("death must short-circuit the backoff, not exhaust it")
	}
}

// recvAck is SendAck's receiving side as the GG loop writes it: take the
// message with RecvRetry semantics and acknowledge it on AckTag(tag).
func recvAck(ep transport.Endpoint, from int, tag int32, pol RetryPolicy) (wire.Message, error) {
	m, err := RecvRetry(ep, from, tag, pol)
	if err == nil {
		_ = ep.Send(int(m.From), wire.Control(AckTag(tag), 0))
	}
	return m, err
}

// TestSendAckRecoversFromPartition drops the first transmissions in a
// transient partition; SendAck's resend loop delivers once the partition
// heals, and the receiver's ack stops the resends.
func TestSendAckRecoversFromPartition(t *testing.T) {
	fab := transport.NewFaultFabric(transport.NewChanFabric(2), transport.FaultPlan{Seed: 1})
	defer fab.Close()
	fab.Partition(0, 1)
	go func() {
		time.Sleep(80 * time.Millisecond)
		fab.Heal(0, 1)
	}()
	pol := RetryPolicy{Attempts: 8, BaseDelay: 20 * time.Millisecond}
	done := make(chan error, 1)
	go func() { done <- SendAck(fab.Endpoint(0), 1, wire.Control(33, 5), pol) }()
	m, err := recvAck(fab.Endpoint(1), 0, 33, pol)
	if err != nil {
		t.Fatalf("recvAck: %v", err)
	}
	if m.Ints[0] != 5 {
		t.Fatalf("wrong payload: %+v", m)
	}
	if err := <-done; err != nil {
		t.Fatalf("SendAck: %v", err)
	}
	if fab.InjectedDrops() == 0 {
		t.Fatal("test never exercised the drop path")
	}
}

func TestSendAckReportsDeadPeer(t *testing.T) {
	fab := transport.NewFaultFabric(transport.NewChanFabric(2), transport.FaultPlan{Seed: 1})
	defer fab.Close()
	fab.Kill(1)
	pol := RetryPolicy{Attempts: 3, BaseDelay: 5 * time.Millisecond}
	err := SendAck(fab.Endpoint(0), 1, wire.Control(33, 5), pol)
	var pd *transport.PeerDownError
	if !errors.As(err, &pd) || pd.Peer != 1 {
		t.Fatalf("want PeerDownError{1}, got %v", err)
	}
}

// TestSendAckToleratesLostAck pins the give-up rule: when the budget runs
// out against a peer that is alive but never acks (it consumed the data
// with a plain Recv), the probe finds it alive and the send is reported
// successful rather than the peer executed.
func TestSendAckToleratesLostAck(t *testing.T) {
	fab := transport.NewChanFabric(2)
	defer fab.Close()
	got := make(chan wire.Message, 1)
	go func() {
		m, _ := fab.Endpoint(1).Recv(0, 33)
		got <- m
	}()
	pol := RetryPolicy{Attempts: 2, BaseDelay: 10 * time.Millisecond}
	if err := SendAck(fab.Endpoint(0), 1, wire.Control(33, 5), pol); err != nil {
		t.Fatalf("live-but-silent peer must not fail the send: %v", err)
	}
	m := <-got
	if m.Ints[0] != 5 {
		t.Fatalf("wrong payload: %+v", m)
	}
}

func TestRetryPolicyBackoff(t *testing.T) {
	p := RetryPolicy{BaseDelay: 10 * time.Millisecond, MaxDelay: 50 * time.Millisecond, Attempts: 6}
	want := []time.Duration{10, 20, 40, 50, 50}
	for i, w := range want {
		if d := p.delay(i); d != w*time.Millisecond {
			t.Fatalf("delay(%d) = %v, want %v", i, d, w*time.Millisecond)
		}
	}
}

// TestSendAckRecoversFromCorruption drives the ack protocol through a
// fabric that bit-flips frames: every detected corruption must behave like
// a lost frame (resend), and the delivered payload must equal the sent one.
func TestSendAckRecoversFromCorruption(t *testing.T) {
	fab := transport.NewFaultFabric(transport.NewChanFabric(2), transport.FaultPlan{Seed: 3, CorruptProb: 0.35})
	defer fab.Close()
	pol := RetryPolicy{Attempts: 12, BaseDelay: 5 * time.Millisecond, MaxDelay: 40 * time.Millisecond}
	var corrupted int64
	for i := 0; i < 15; i++ {
		tag := int32(100 + i)
		payload := []float64{float64(i), -float64(i), 0.25 * float64(i)}
		done := make(chan error, 1)
		go func() { done <- SendAck(fab.Endpoint(0), 1, wire.DenseMsg(tag, payload), pol) }()
		m, err := recvAck(fab.Endpoint(1), 0, tag, pol)
		if err != nil {
			t.Fatalf("round %d: recvAck: %v", i, err)
		}
		if len(m.Dense) != 3 || m.Dense[0] != payload[0] || m.Dense[1] != payload[1] || m.Dense[2] != payload[2] {
			t.Fatalf("round %d: payload corrupted in delivery: %v", i, m.Dense)
		}
		if err := <-done; err != nil {
			t.Fatalf("round %d: SendAck: %v", i, err)
		}
	}
	corrupted = fab.InjectedCorruptions()
	if corrupted == 0 {
		t.Fatal("CorruptProb=0.35 over 40 ack rounds injected nothing")
	}
	if fab.SilentCorruptions() != 0 {
		t.Fatalf("%d silent corruptions delivered", fab.SilentCorruptions())
	}
	t.Logf("recovered from %d injected corruptions", corrupted)
}

// TestRecvRetryReportsCorruptExhaustion checks the typed trail when every
// attempt is corrupted: the error wraps ErrUnavailable AND mentions the
// corrupt cause, so callers can distinguish a poisoned link from silence.
func TestRecvRetryReportsCorruptExhaustion(t *testing.T) {
	fab := transport.NewFaultFabric(transport.NewChanFabric(2), transport.FaultPlan{Seed: 1})
	defer fab.Close()
	pol := RetryPolicy{Attempts: 3, BaseDelay: 5 * time.Millisecond}
	// Arm three times: each resend-less attempt consumes one corrupt event.
	for i := 0; i < 3; i++ {
		fab.ArmCorrupt(0)
		if err := fab.Endpoint(0).Send(1, wire.Control(77, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	_, err := RecvRetry(fab.Endpoint(1), 0, 77, pol)
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
	if !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("error %q does not mention corruption", err)
	}
}
