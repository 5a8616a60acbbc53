package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"psrahgadmm/internal/wire"
)

// tcpWorld builds an n-rank TCP mesh with per-rank options.
func tcpWorld(t *testing.T, n int, opts func(rank int) TCPOptions) []Endpoint {
	t.Helper()
	ports := freePorts(t, n)
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("127.0.0.1:%d", ports[i])
	}
	eps := make([]Endpoint, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o := TCPOptions{DialTimeout: 10 * time.Second}
			if opts != nil {
				o = opts(i)
			}
			eps[i], errs[i] = NewTCPEndpoint(i, addrs, o)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
	}
	t.Cleanup(func() {
		for _, ep := range eps {
			ep.Close()
		}
	})
	return eps
}

func TestRecvTimeout(t *testing.T) {
	for _, fab := range fabrics() {
		t.Run(fab, func(t *testing.T) {
			eps := world(t, fab, 2)
			start := time.Now()
			_, err := eps[0].RecvTimeout(1, 7, 60*time.Millisecond)
			if !errors.Is(err, ErrTimeout) {
				t.Fatalf("err = %v, want ErrTimeout", err)
			}
			if elapsed := time.Since(start); elapsed < 50*time.Millisecond || elapsed > 3*time.Second {
				t.Fatalf("deadline not respected: %v", elapsed)
			}
			// A matching message beats the deadline.
			if err := eps[1].Send(0, wire.Control(7, 42)); err != nil {
				t.Fatal(err)
			}
			m, err := eps[0].RecvTimeout(1, 7, 5*time.Second)
			if err != nil || m.Ints[0] != 42 {
				t.Fatalf("RecvTimeout with message pending: %v %v", m, err)
			}
		})
	}
}

// TestTCPPeerKillMidCollective is the ISSUE's no-hang stress test: four
// ranks exchange all-to-all rounds over TCP, then one rank dies abruptly.
// Every surviving rank's blocked Recv on the victim must return a typed
// *PeerDownError well within the deadline — no hang, no ErrTimeout.
func TestTCPPeerKillMidCollective(t *testing.T) {
	const n, victim = 4, 2
	const liveRounds = 2
	eps := world(t, "tcp", n)

	exchange := func(r, round int) error {
		tag := int32(10 + round)
		for p := 0; p < n; p++ {
			if p == r {
				continue
			}
			if err := eps[r].Send(p, wire.Control(tag, int64(r))); err != nil {
				return fmt.Errorf("rank %d round %d send to %d: %w", r, round, p, err)
			}
		}
		for p := 0; p < n; p++ {
			if p == r {
				continue
			}
			if _, err := eps[r].RecvTimeout(p, tag, 10*time.Second); err != nil {
				return fmt.Errorf("rank %d round %d recv from %d: %w", r, round, p, err)
			}
		}
		return nil
	}

	died := make(chan struct{})
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		if r == victim {
			continue
		}
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for round := 0; round < liveRounds; round++ {
				if err := exchange(r, round); err != nil {
					errs[r] = err
					return
				}
			}
			<-died
			// The collective's next step: a Recv that only the dead victim
			// could satisfy.
			_, err := eps[r].RecvTimeout(victim, 99, 5*time.Second)
			errs[r] = err
		}(r)
	}
	// The victim participates in the live rounds, then dies without ever
	// sending on tag 99.
	for round := 0; round < liveRounds; round++ {
		if err := exchange(victim, round); err != nil {
			t.Fatalf("victim round %d: %v", round, err)
		}
	}
	eps[victim].Close()
	close(died)
	wg.Wait()

	for r := 0; r < n; r++ {
		if r == victim {
			continue
		}
		var pd *PeerDownError
		if !errors.As(errs[r], &pd) {
			t.Fatalf("rank %d: err = %v, want *PeerDownError", r, errs[r])
		}
		if pd.Peer != victim {
			t.Fatalf("rank %d: PeerDownError.Peer = %d, want %d", r, pd.Peer, victim)
		}
	}
}

// TestTCPSendToDeadPeerFailsFast verifies the send side of failure
// detection: once the victim is observed down, Send returns PeerDownError
// instead of writing into a dead socket forever.
func TestTCPSendToDeadPeerFailsFast(t *testing.T) {
	eps := world(t, "tcp", 2)
	eps[1].Close()
	// First observe the death via a blocked Recv...
	_, err := eps[0].RecvTimeout(1, 5, 5*time.Second)
	var pd *PeerDownError
	if !errors.As(err, &pd) {
		t.Fatalf("recv err = %v, want *PeerDownError", err)
	}
	// ...after which sends fail fast with the same typed error.
	err = eps[0].Send(1, wire.Control(1, 1))
	if !errors.As(err, &pd) || pd.Peer != 1 {
		t.Fatalf("send err = %v, want *PeerDownError{Peer: 1}", err)
	}
}

// TestCloseDrainsDeliveredMessages pins the Endpoint.Recv shutdown
// guarantee: messages that reached the endpoint's inbox before Close are
// matched by later Recvs; only then does Recv report ErrClosed. Before the
// fix, inbox-resident messages raced a random select against ErrClosed
// while pending-buffered ones were always returned.
func TestCloseDrainsDeliveredMessages(t *testing.T) {
	for _, fab := range fabrics() {
		t.Run(fab, func(t *testing.T) {
			eps := world(t, fab, 2)
			if err := eps[0].Send(1, wire.Control(7, 1)); err != nil {
				t.Fatal(err)
			}
			if err := eps[0].Send(1, wire.Control(8, 2)); err != nil {
				t.Fatal(err)
			}
			// Wait until both messages are in rank 1's inbox (the TCP
			// reader delivers asynchronously).
			waitInboxLen(t, eps[1], 2)
			eps[1].Close()
			if m, err := eps[1].Recv(0, 7); err != nil || m.Ints[0] != 1 {
				t.Fatalf("inbox message lost after Close: %v %v", m, err)
			}
			if m, err := eps[1].Recv(0, 8); err != nil || m.Ints[0] != 2 {
				t.Fatalf("second inbox message lost after Close: %v %v", m, err)
			}
			if _, err := eps[1].Recv(0, 9); !errors.Is(err, ErrClosed) {
				t.Fatalf("err = %v, want ErrClosed once drained", err)
			}
		})
	}
}

// inboxLen is the number of delivered messages ep's owner has not drained.
func inboxLen(t *testing.T, ep Endpoint) int {
	t.Helper()
	var box *mailbox
	switch e := ep.(type) {
	case *chanEndpoint:
		box = &e.box
	case *tcpEndpoint:
		box = &e.box
	case *faultEndpoint:
		return inboxLen(t, e.under)
	default:
		t.Fatalf("unknown endpoint type %T", ep)
	}
	box.mu.Lock()
	defer box.mu.Unlock()
	return len(box.q)
}

func waitInboxLen(t *testing.T, ep Endpoint, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for inboxLen(t, ep) < want {
		if time.Now().After(deadline) {
			t.Fatalf("inbox never reached %d messages (have %d)", want, inboxLen(t, ep))
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTCPDialBudgetNotExceeded pins the dial-retry fix: the total wall time
// spent failing to reach an absent peer must stay near DialTimeout, not the
// ~2× overshoot the old code allowed by handing every attempt the full
// timeout.
func TestTCPDialBudgetNotExceeded(t *testing.T) {
	ports := freePorts(t, 2)
	addrs := []string{
		fmt.Sprintf("127.0.0.1:%d", ports[0]), // never listens
		fmt.Sprintf("127.0.0.1:%d", ports[1]),
	}
	const budget = 300 * time.Millisecond
	start := time.Now()
	_, err := NewTCPEndpoint(1, addrs, TCPOptions{DialTimeout: budget})
	elapsed := time.Since(start)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout in chain: rank 0 never listened", err)
	}
	if elapsed > 4*budget {
		t.Fatalf("dial retries ran %v, far beyond the %v budget", elapsed, budget)
	}
}

// TestTCPDialPauseSchedule pins the retry schedule as a pure function: the
// pauses double from 1ms to a 50ms cap, and each is cut to the budget left.
func TestTCPDialPauseSchedule(t *testing.T) {
	const ms = time.Millisecond
	want := []time.Duration{1 * ms, 2 * ms, 4 * ms, 8 * ms, 16 * ms, 32 * ms, 50 * ms, 50 * ms}
	var pause time.Duration
	for i, w := range want {
		if pause = dialPause(pause, time.Hour); pause != w {
			t.Fatalf("pause %d = %v, want %v (schedule %v)", i, pause, w, want)
		}
	}
	for _, c := range []struct{ prev, remaining, want time.Duration }{
		{0, 300 * time.Microsecond, 300 * time.Microsecond},
		{4 * ms, 3 * ms, 3 * ms},
		{50 * ms, 20 * ms, 20 * ms},
		{16 * ms, 0, 0},
	} {
		if got := dialPause(c.prev, c.remaining); got != c.want {
			t.Fatalf("dialPause(%v, %v) = %v, want %v", c.prev, c.remaining, got, c.want)
		}
	}
}

// TestTCPDialLatePeer starts rank 0 about 30ms after rank 1 began dialling
// it: rank 1's refused dials retry until rank 0 listens, the mesh comes up,
// and a message round-trips.
func TestTCPDialLatePeer(t *testing.T) {
	ports := freePorts(t, 2)
	addrs := []string{
		fmt.Sprintf("127.0.0.1:%d", ports[0]),
		fmt.Sprintf("127.0.0.1:%d", ports[1]),
	}
	opts := TCPOptions{DialTimeout: 10 * time.Second}
	var eps [2]Endpoint
	var errs [2]error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		eps[1], errs[1] = NewTCPEndpoint(1, addrs, opts)
	}()
	go func() {
		defer wg.Done()
		time.Sleep(30 * time.Millisecond)
		eps[0], errs[0] = NewTCPEndpoint(0, addrs, opts)
	}()
	wg.Wait()
	for _, ep := range eps {
		if ep != nil {
			defer ep.Close()
		}
	}
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	if err := eps[1].Send(0, wire.Control(7, 41)); err != nil {
		t.Fatal(err)
	}
	m, err := eps[0].RecvTimeout(1, 7, 5*time.Second)
	if err != nil || m.Ints[0] != 41 {
		t.Fatalf("rank 0 recv: %v %v", m, err)
	}
	if err := eps[0].Send(1, wire.Control(8, m.Ints[0]+1)); err != nil {
		t.Fatal(err)
	}
	if m, err = eps[1].RecvTimeout(0, 8, 5*time.Second); err != nil || m.Ints[0] != 42 {
		t.Fatalf("rank 1 recv: %v %v", m, err)
	}
}

// TestTCPBootstrapAcceptTimesOut starts rank 0 of a 2-rank mesh alone: the
// higher rank never dials, so establishment must give up with ErrTimeout
// inside the DialTimeout budget instead of blocking in Accept forever. A
// peer that connects but never hand-shakes is bounded by the same budget.
func TestTCPBootstrapAcceptTimesOut(t *testing.T) {
	ports := freePorts(t, 2)
	addrs := []string{
		fmt.Sprintf("127.0.0.1:%d", ports[0]),
		fmt.Sprintf("127.0.0.1:%d", ports[1]), // never starts
	}
	const budget = 300 * time.Millisecond
	for _, silentDialer := range []bool{false, true} {
		done := make(chan error, 1)
		start := time.Now()
		go func() {
			ep, err := NewTCPEndpoint(0, addrs, TCPOptions{DialTimeout: budget})
			if err == nil {
				ep.Close()
			}
			done <- err
		}()
		if silentDialer {
			conn, err := dialRetry(addrs[0], 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close() // connected, but the handshake never comes
		}
		select {
		case err := <-done:
			if !errors.Is(err, ErrTimeout) {
				t.Fatalf("silentDialer=%v: err = %v, want ErrTimeout in chain", silentDialer, err)
			}
			if elapsed := time.Since(start); elapsed > 4*budget {
				t.Fatalf("silentDialer=%v: establishment ran %v, far beyond the %v budget", silentDialer, elapsed, budget)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("silentDialer=%v: NewTCPEndpoint still blocked long after its %v budget", silentDialer, budget)
		}
	}
}

// TestTCPStrayConnectionDuringBootstrap: while rank 0 of a 2-rank mesh
// waits for rank 1, a connection that is no peer's arrives, writes, and
// hangs up — a port probe, a hello naming a rank outside the world, a hello
// naming rank 0 itself. The accept loop drops it and keeps serving: rank 1
// then joins, and a message round-trips.
func TestTCPStrayConnectionDuringBootstrap(t *testing.T) {
	hello := func(rank int64) []byte {
		b, err := wire.AppendMessage(nil, wire.Control(wire.TagHandshake, rank))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, c := range []struct {
		name  string
		stray []byte
	}{
		{"http-probe", []byte("GET / HTTP/1.0")},
		{"out-of-world-hello", hello(7)},
		{"own-rank-hello", hello(0)},
	} {
		t.Run(c.name, func(t *testing.T) {
			ports := freePorts(t, 2)
			addrs := []string{
				fmt.Sprintf("127.0.0.1:%d", ports[0]),
				fmt.Sprintf("127.0.0.1:%d", ports[1]),
			}
			opts := TCPOptions{DialTimeout: 5 * time.Second}
			var ep0 Endpoint
			var err0 error
			started := make(chan struct{})
			go func() {
				defer close(started)
				ep0, err0 = NewTCPEndpoint(0, addrs, opts)
			}()
			stray, err := dialRetry(addrs[0], 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			stray.Write(c.stray)
			stray.Close()
			ep1, err1 := NewTCPEndpoint(1, addrs, opts)
			<-started
			for _, ep := range []Endpoint{ep0, ep1} {
				if ep != nil {
					defer ep.Close()
				}
			}
			if err0 != nil || err1 != nil {
				t.Fatalf("bring-up after a stray connection: rank 0: %v; rank 1: %v", err0, err1)
			}
			if err := ep1.Send(0, wire.Control(7, 41)); err != nil {
				t.Fatal(err)
			}
			m, err := ep0.RecvTimeout(1, 7, 5*time.Second)
			if err != nil || m.Ints[0] != 41 {
				t.Fatalf("rank 0 recv: %v %v", m, err)
			}
			if err := ep0.Send(1, wire.Control(8, 42)); err != nil {
				t.Fatal(err)
			}
			if m, err = ep1.RecvTimeout(0, 8, 5*time.Second); err != nil || m.Ints[0] != 42 {
				t.Fatalf("rank 1 recv: %v %v", m, err)
			}
		})
	}
}

// TestTCPCloseCutsHalfOpenHandshake: Close on an established endpoint whose
// accept loop is reading the hello of a connection that never sends one
// returns at once, not after the DialTimeout that bounds the read.
func TestTCPCloseCutsHalfOpenHandshake(t *testing.T) {
	const budget = 2 * time.Second
	eps := tcpWorld(t, 2, func(int) TCPOptions { return TCPOptions{DialTimeout: budget} })
	e := eps[0].(*tcpEndpoint)
	silent, err := net.Dial("tcp", e.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	reading := func() bool {
		e.mu.Lock()
		defer e.mu.Unlock()
		return e.greeting != nil
	}
	for deadline := time.Now().Add(5 * time.Second); !reading(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the accept loop never started reading the silent connection's hello")
		}
	}
	start := time.Now()
	e.Close()
	if elapsed := time.Since(start); elapsed > budget/4 {
		t.Fatalf("Close took %v with a half-open handshake (DialTimeout %v)", elapsed, budget)
	}
}

// TestTCPDialUnacknowledgedTimesOut: a peer that reads rank 1's hello and
// never acknowledges it does not make a mesh. The wait for the ack shares
// the dial budget, and a spent budget fails with ErrTimeout.
func TestTCPDialUnacknowledgedTimesOut(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	held := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			wire.Decode(conn) // the hello; no ack ever follows
		}
		held <- conn
	}()
	addrs := []string{ln.Addr().String(), fmt.Sprintf("127.0.0.1:%d", freePorts(t, 1)[0])}
	const budget = 300 * time.Millisecond
	start := time.Now()
	ep, err := NewTCPEndpoint(1, addrs, TCPOptions{DialTimeout: budget})
	elapsed := time.Since(start)
	if err == nil {
		ep.Close()
	}
	if conn := <-held; conn != nil {
		conn.Close()
	}
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout in chain: the peer never acknowledged", err)
	}
	if elapsed > 4*budget {
		t.Fatalf("establishment ran %v, far beyond the %v budget", elapsed, budget)
	}
}

// dialRetry dials addr until it accepts or the budget runs out.
func dialRetry(addr string, budget time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(budget)
	for {
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil || time.Now().After(deadline) {
			return conn, err
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTCPDecodeErrorSurfaced injects garbage into an established mesh
// connection and verifies corruption is (a) counted in Stats.RecvErrors,
// distinguishing it from a clean shutdown, and (b) converted into a typed
// PeerDownError for receivers.
func TestTCPDecodeErrorSurfaced(t *testing.T) {
	eps := world(t, "tcp", 2)
	raw := eps[0].(*tcpEndpoint).peers[1].conn
	if _, err := raw.Write([]byte("XXXXXXXXXXXXXXXX")); err != nil { // 16 bytes of bad magic
		t.Fatal(err)
	}
	_, err := eps[1].RecvTimeout(0, 1, 5*time.Second)
	var pd *PeerDownError
	if !errors.As(err, &pd) {
		t.Fatalf("err = %v, want *PeerDownError", err)
	}
	if !errors.Is(err, wire.ErrBadFrame) {
		t.Fatalf("cause = %v, want wire.ErrBadFrame in chain", err)
	}
	if got := eps[1].Stats().RecvErrors; got != 1 {
		t.Fatalf("Stats.RecvErrors = %d, want 1", got)
	}
	if got := eps[0].Stats().RecvErrors; got != 0 {
		t.Fatalf("writer's Stats.RecvErrors = %d, want 0", got)
	}
}

// TestTCPPeerTimeoutDetectsSilentPeer simulates a silent partition: rank 0
// has heartbeats disabled and never sends, so rank 1's PeerTimeout must
// declare it down even though the connection never errors.
func TestTCPPeerTimeoutDetectsSilentPeer(t *testing.T) {
	eps := tcpWorld(t, 2, func(rank int) TCPOptions {
		o := TCPOptions{DialTimeout: 10 * time.Second}
		if rank == 0 {
			o.HeartbeatInterval = -1 // mute: simulates a one-way partition
		} else {
			o.HeartbeatInterval = 50 * time.Millisecond
			o.PeerTimeout = 250 * time.Millisecond
		}
		return o
	})
	start := time.Now()
	_, err := eps[1].RecvTimeout(0, 3, 10*time.Second)
	var pd *PeerDownError
	if !errors.As(err, &pd) {
		t.Fatalf("err = %v, want *PeerDownError", err)
	}
	if pd.Peer != 0 {
		t.Fatalf("Peer = %d, want 0", pd.Peer)
	}
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("cause = %v, want heartbeat ErrTimeout in chain", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("silent peer took %v to detect", elapsed)
	}
}

// TestTCPHeartbeatsKeepIdleConnectionAlive is the false-positive guard:
// two mutually heartbeating ranks sit idle well past PeerTimeout, then
// exchange real traffic successfully.
func TestTCPHeartbeatsKeepIdleConnectionAlive(t *testing.T) {
	eps := tcpWorld(t, 2, func(rank int) TCPOptions {
		return TCPOptions{
			DialTimeout:       10 * time.Second,
			HeartbeatInterval: 50 * time.Millisecond,
			PeerTimeout:       300 * time.Millisecond,
		}
	})
	time.Sleep(800 * time.Millisecond) // idle >> PeerTimeout
	if err := eps[0].Send(1, wire.Control(4, 9)); err != nil {
		t.Fatalf("send after idle period: %v", err)
	}
	m, err := eps[1].RecvTimeout(0, 4, 5*time.Second)
	if err != nil || m.Ints[0] != 9 {
		t.Fatalf("recv after idle period: %v %v", m, err)
	}
	if hb := eps[0].Stats().HeartbeatsSent; hb == 0 {
		t.Fatal("no heartbeats recorded during idle period")
	}
	if sent := eps[0].Stats().MsgsSent; sent != 1 {
		t.Fatalf("heartbeats leaked into MsgsSent: %d", sent)
	}
}

// TestTCPAnySourceCrashVsGracefulClose pins the any-source failure policy:
// a rank that Closes cleanly (goodbye + FIN) must not abort another rank's
// Recv(AnySource) wait while live peers remain, but a rank that vanishes
// without a goodbye — a crash — must fail it promptly, because the crashed
// rank may be exactly the sender the wait needs.
func TestTCPAnySourceCrashVsGracefulClose(t *testing.T) {
	eps := world(t, "tcp", 3)

	// Rank 2 departs cleanly. Rank 1 is still alive, so rank 0's
	// AnySource wait must survive and match rank 1's message.
	eps[2].Close()
	done := make(chan error, 1)
	go func() {
		m, err := eps[0].Recv(AnySource, 21)
		if err == nil && m.Ints[0] != 7 {
			err = fmt.Errorf("wrong payload %v", m.Ints)
		}
		done <- err
	}()
	time.Sleep(100 * time.Millisecond) // let rank 2's goodbye+EOF land first
	if err := eps[1].Send(0, wire.Control(21, 7)); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("graceful close aborted AnySource wait: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("AnySource recv hung")
	}
	// Rank 0 knows rank 2 left, and gracefully.
	var pd *PeerDownError
	if _, err := eps[0].RecvTimeout(2, 22, time.Second); !errors.As(err, &pd) || !pd.Graceful {
		t.Fatalf("targeted recv from departed rank = %v, want graceful *PeerDownError", err)
	}

	// Rank 1 crashes: its side of the socket breaks with no goodbye. Rank
	// 0's next AnySource wait must fail with a non-graceful PeerDownError
	// instead of blocking forever.
	eps[1].(*tcpEndpoint).peers[0].conn.Close()
	_, err := eps[0].Recv(AnySource, 23)
	if !errors.As(err, &pd) || pd.Peer != 1 {
		t.Fatalf("err = %v, want *PeerDownError{Peer: 1}", err)
	}
	if pd.Graceful {
		t.Fatal("crash misreported as graceful departure")
	}
}
