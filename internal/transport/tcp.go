package transport

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"psrahgadmm/internal/sparse"
	"psrahgadmm/internal/wire"
)

// handshakeTag is the reserved tag carried by the one-time rank
// identification frame exchanged when a mesh connection is established.
// User code must not send on this tag.
const handshakeTag = wire.TagHandshake

// maxCorruptRun is how many consecutive checksum-failed frames a reader
// tolerates (each dropped and re-sent by the retry layer) before declaring
// the connection poisoned and marking the peer down. Isolated flips recover
// invisibly; a systematically broken link fails fast instead of spinning.
const maxCorruptRun = 8

// TCPOptions configures mesh establishment and failure detection.
type TCPOptions struct {
	// DialTimeout bounds the TOTAL wall time NewTCPEndpoint spends
	// establishing the mesh: retrying dials to peers that have not started
	// listening yet (the individual dial attempts included), waiting for
	// their acknowledgements, and waiting for higher ranks to dial in. A
	// failed dial is retried after 1ms, and each later pause doubles up to
	// 50ms (1, 2, 4, …, 32, 50, 50, … ms), cut to what is left of the
	// budget. A spent budget fails with ErrTimeout. It also bounds how long
	// the accept loop waits for one incoming connection's hello. Default
	// 30s.
	DialTimeout time.Duration
	// HeartbeatInterval is how often an idle connection carries a
	// keepalive frame (wire.TagHeartbeat), keeping silent peer failures
	// detectable. Heartbeats are consumed by the transport, never surface
	// from Recv, and are excluded from MsgsSent/BytesSent. Default 1s; a
	// negative value disables heartbeats (and with them PeerTimeout
	// detection).
	HeartbeatInterval time.Duration
	// PeerTimeout, when positive, marks a peer down (PeerDownError) after
	// no frame — data or heartbeat — has been received from it for this
	// long. It should be several times the peers' HeartbeatInterval.
	// Default 0: disabled; peer failure is then detected only through
	// connection errors (EOF, reset, write failure), which the OS reports
	// promptly for process death but not for silent network partitions.
	PeerTimeout time.Duration
	// Rejoin marks this endpoint as a restarted incarnation joining an
	// already-established mesh. It changes only whom NewTCPEndpoint dials:
	// EVERY peer instead of the lower ranks, and it waits for no higher
	// rank. The peers' accept loops adopt the new connections in place of
	// the dead ones, as they adopt any acknowledged hello. A peer that
	// cannot be reached within DialTimeout is recorded as down.
	Rejoin bool
}

func (o *TCPOptions) fill() {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 30 * time.Second
	}
	if o.HeartbeatInterval == 0 {
		o.HeartbeatInterval = time.Second
	}
}

// The dial retry schedule. Ranks started together always race — rank i
// dials rank j < i right after its own Listen, often before j's — so the
// first pause is short; doubling keeps a peer that is seconds late from
// being dialled more than once per dialPauseMax.
const (
	dialPauseFirst = time.Millisecond
	dialPauseMax   = 50 * time.Millisecond
)

// dialPause is the pause after a failed dial, given the previous pause
// (0 before the first): dialPauseFirst, then double the previous, capped at
// dialPauseMax and cut to the remaining budget. A cut pause spends the
// budget, so the cut never feeds a later doubling.
func dialPause(prev, remaining time.Duration) time.Duration {
	return min(max(2*prev, dialPauseFirst), dialPauseMax, remaining)
}

// tcpEndpoint is one rank of a full TCP mesh. Every pair of ranks shares
// exactly one TCP connection: rank i dials every rank j < i and accepts
// from every j > i, so connection count is n(n-1)/2 across the cluster.
// A connection is joined one way at bring-up and at a rejoin alike: the
// dialer sends a hello naming its rank; the accept loop, which serves the
// listener from Listen to Close, installs the connection as that rank's
// and acknowledges it; and the dialer adopts it once it reads the ack.
//
// Failure model: each peer connection has a dedicated reader; any read
// error, decode error, write error, or heartbeat silence marks that peer
// down exactly once. A down peer turns every Send to it and every Recv that
// depends on it into a fast *PeerDownError instead of a hang (see
// Endpoint.Recv for the buffered-delivery guarantee).
type tcpEndpoint struct {
	rank  int
	size  int
	opts  TCPOptions
	ln    net.Listener
	peers []*tcpPeer // indexed by rank; peers[rank] == nil; guarded by mu

	// box is fed by the connection readers (and loopback sends). A reader
	// held at its bound stops reading, which is the socket's back-pressure.
	box mailbox

	mu       sync.Mutex
	down     []*PeerDownError // indexed by rank, nil while alive
	reported []bool           // crashes already surfaced to an any-source wait
	firstErr error            // first decode error seen by any reader
	greeting net.Conn         // the accepted connection whose hello is being read

	joined    chan struct{} // signalled after each adoption; bring-up waits on it
	closeOnce sync.Once
	closed    chan struct{}
	wg        sync.WaitGroup
	stats     statsCounter
}

type tcpPeer struct {
	conn       net.Conn
	wmu        sync.Mutex   // serializes frame writes
	lastSend   atomic.Int64 // UnixNano of the last frame written
	lastRecv   atomic.Int64 // UnixNano of the last frame read
	sawGoodbye atomic.Bool  // peer announced an orderly shutdown
}

// NewTCPEndpoint joins a TCP mesh as `rank`. addrs lists the listen address
// of every rank (host:port); addrs[rank] is this process's own listen
// address. The call blocks until the full mesh is established: every rank
// it dials has acknowledged its hello, and at bring-up every higher rank
// has dialled in.
func NewTCPEndpoint(rank int, addrs []string, opts TCPOptions) (Endpoint, error) {
	opts.fill()
	size := len(addrs)
	if err := checkRank(rank, size); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addrs[rank])
	if err != nil {
		return nil, fmt.Errorf("transport: rank %d listen %s: %w", rank, addrs[rank], err)
	}
	deadline := time.Now().Add(opts.DialTimeout)
	e := &tcpEndpoint{
		rank:     rank,
		size:     size,
		opts:     opts,
		ln:       ln,
		peers:    make([]*tcpPeer, size),
		down:     make([]*PeerDownError, size),
		reported: make([]bool, size),
		joined:   make(chan struct{}, 1),
		closed:   make(chan struct{}),
	}
	e.box.init()
	e.box.stopWhen(e.stopErr)
	e.wg.Add(1)
	go e.acceptLoop()
	if opts.HeartbeatInterval > 0 && size > 1 {
		e.wg.Add(1)
		go e.heartbeatLoop()
	}

	dialTo := rank
	if opts.Rejoin {
		dialTo = size
	}
	errs := make([]error, size)
	var dials sync.WaitGroup
	for peer := range dialTo {
		if peer == rank {
			continue
		}
		dials.Add(1)
		go func() {
			defer dials.Done()
			errs[peer] = e.dial(peer, addrs[peer], deadline)
		}()
	}
	dials.Wait()
	if opts.Rejoin {
		// A rejoining incarnation may find some peers dead themselves; that
		// is a membership fact, not a setup failure — record them down and
		// join the survivors.
		e.mu.Lock()
		for peer, err := range errs {
			if err != nil {
				e.down[peer] = &PeerDownError{Peer: peer, Cause: err}
			}
		}
		e.mu.Unlock()
		return e, nil
	}
	if err = cmp.Or(errs...); err == nil {
		err = e.awaitHigher(deadline)
	}
	if err != nil {
		e.Close()
		return nil, err
	}
	return e, nil
}

// dial joins peer from this side: it dials addr on dialPause's schedule,
// sends the hello, waits for the ack and adopts the connection. Attempts,
// pauses and the ack share one budget that ends at deadline, so each
// attempt is capped by what is left of it rather than restarting the full
// timeout (which could overshoot ~2×). A spent budget fails with
// ErrTimeout, whether a pause, an attempt or the wait for the ack spent it.
func (e *tcpEndpoint) dial(peer int, addr string, deadline time.Time) error {
	var pause time.Duration
	var lastErr error
	for {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return fmt.Errorf("transport: rank %d dial rank %d (%s): %w (last attempt: %v)",
				e.rank, peer, addr, ErrTimeout, lastErr)
		}
		conn, err := net.DialTimeout("tcp", addr, remaining)
		if err != nil {
			lastErr = err
			pause = dialPause(pause, time.Until(deadline))
			time.Sleep(pause)
			continue
		}
		conn.SetReadDeadline(deadline)
		var ack wire.Message
		if err = wire.Encode(conn, e.hello()); err == nil {
			ack, err = wire.Decode(conn)
		}
		if err == nil && helloRank(ack) != peer {
			err = fmt.Errorf("unexpected ack (tag %d, %d ints)", ack.Tag, len(ack.Ints))
		}
		if errors.Is(err, os.ErrDeadlineExceeded) {
			err = fmt.Errorf("%w: %v", ErrTimeout, err)
		}
		if err != nil {
			conn.Close()
			return fmt.Errorf("transport: rank %d handshake with rank %d: %w", e.rank, peer, err)
		}
		e.adopt(peer, conn, false)
		return nil
	}
}

// awaitHigher waits until every higher rank has dialled in and been
// adopted, or fails with ErrTimeout at deadline.
func (e *tcpEndpoint) awaitHigher(deadline time.Time) error {
	expire := time.NewTimer(time.Until(deadline))
	defer expire.Stop()
	higher := e.size - 1 - e.rank
	for {
		joined := 0
		e.mu.Lock()
		for _, p := range e.peers[e.rank+1:] {
			if p != nil {
				joined++
			}
		}
		e.mu.Unlock()
		if joined == higher {
			return nil
		}
		select {
		case <-e.joined:
		case <-expire.C:
			return fmt.Errorf("transport: rank %d: %d of %d higher ranks joined within %v: %w",
				e.rank, joined, higher, e.opts.DialTimeout, ErrTimeout)
		}
	}
}

// acceptLoop serves the listener from Listen to Close, for bring-up and
// rejoins alike. It reads one hello at a time; a connection whose hello is
// malformed, names this rank or names a rank outside the world is dropped,
// and the loop keeps serving.
func (e *tcpEndpoint) acceptLoop() {
	defer e.wg.Done()
	for {
		conn, err := e.ln.Accept()
		if err != nil {
			return // listener closed (endpoint shutdown)
		}
		if peer := e.readHello(conn); peer >= 0 {
			e.adopt(peer, conn, true)
		} else {
			conn.Close()
		}
	}
}

// readHello reads conn's hello within DialTimeout and returns the peer it
// names, or -1 when it names none. While it reads, conn is e.greeting,
// which Close closes, so a connection that never says hello holds up the
// accept loop but not Close.
func (e *tcpEndpoint) readHello(conn net.Conn) int {
	e.mu.Lock()
	if e.isClosed() {
		e.mu.Unlock()
		return -1
	}
	e.greeting = conn
	e.mu.Unlock()
	conn.SetReadDeadline(time.Now().Add(e.opts.DialTimeout))
	m, err := wire.Decode(conn)
	e.mu.Lock()
	e.greeting = nil
	e.mu.Unlock()
	if peer := helloRank(m); err == nil && peer != e.rank && checkRank(peer, e.size) == nil {
		return peer
	}
	return -1
}

// hello is the frame both sides of a new connection send once: the dialer
// to name itself, the acceptor to acknowledge.
func (e *tcpEndpoint) hello() wire.Message {
	m := wire.Control(handshakeTag, int64(e.rank))
	m.From = int32(e.rank)
	return m
}

// helloRank returns the rank a hello names, or -1 if m is not a hello.
func helloRank(m wire.Message) int {
	if m.Tag != handshakeTag || len(m.Ints) != 1 {
		return -1
	}
	return int(m.Ints[0])
}

// adopt installs conn as peer's connection and starts its reader. The new
// connection supersedes an older one whether or not that one's death was
// seen yet (peerDown ignores stale reports against it), clears the peer's
// down records and wakes targeted waits on it. With ack, conn was accepted
// and is acknowledged only now: the dialer reports its mesh ready as soon
// as it reads the ack, so by then this rank must already see the peer
// alive. The ack is written under the new peer's write lock, taken before
// the peer is published, so no frame that finds the peer goes out first.
func (e *tcpEndpoint) adopt(peer int, conn net.Conn, ack bool) {
	conn.SetReadDeadline(time.Time{})
	p := &tcpPeer{conn: conn}
	now := time.Now().UnixNano()
	p.lastSend.Store(now)
	p.lastRecv.Store(now)
	p.wmu.Lock()
	e.mu.Lock()
	if e.isClosed() {
		e.mu.Unlock()
		p.wmu.Unlock()
		conn.Close()
		return
	}
	old := e.peers[peer]
	e.peers[peer] = p
	e.down[peer] = nil
	e.reported[peer] = false
	e.mu.Unlock()
	e.box.wake()
	select {
	case e.joined <- struct{}{}:
	default:
	}
	if old != nil {
		old.conn.Close()
	}
	var err error
	if ack {
		err = wire.Encode(conn, e.hello())
	}
	p.wmu.Unlock()
	if err != nil {
		e.peerDown(peer, p, fmt.Errorf("handshake ack: %w", err), false)
		return
	}
	e.wg.Add(1)
	go e.readLoop(peer, p)
}

func (e *tcpEndpoint) isClosed() bool {
	select {
	case <-e.closed:
		return true
	default:
		return false
	}
}

// peer returns rank r's current connection (nil before it joins), or its
// PeerDownError once it is down. A rejoin may replace the connection at
// any time, so a caller passes the one it got to peerDown when reporting a
// failure it observed on it.
func (e *tcpEndpoint) peer(r int) (*tcpPeer, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if d := e.down[r]; d != nil {
		return nil, d
	}
	return e.peers[r], nil
}

// peerDown records the first failure observed for peer and wakes every
// blocked Recv. Closing the connection stops its reader and fails any
// in-flight writes fast instead of letting them buffer into a dead socket.
// The reporter passes the connection object it observed the failure on: a
// report against a connection a rejoin has since superseded is stale news
// about the previous incarnation and must not kill the new one.
func (e *tcpEndpoint) peerDown(peer int, p *tcpPeer, cause error, graceful bool) {
	e.mu.Lock()
	if p != nil && e.peers[peer] != p {
		e.mu.Unlock()
		p.conn.Close() // stale observer of a superseded connection
		return
	}
	if e.down[peer] != nil {
		e.mu.Unlock()
		return
	}
	e.down[peer] = &PeerDownError{Peer: peer, Cause: cause, Graceful: graceful}
	cur := e.peers[peer]
	e.mu.Unlock()
	e.box.wake()
	if cur != nil {
		cur.conn.Close()
	}
}

// stopErr is the mailbox's reason to stop waiting: the endpoint is closed,
// or the peers that could still satisfy the Recv are down (recvDownError).
func (e *tcpEndpoint) stopErr(from int, _ int32) error {
	if e.isClosed() {
		return ErrClosed
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return recvDownError(e.down, e.reported, e.rank, from)
}

// noteDecodeError counts a corrupted frame and logs the first one, so a
// poisoned stream is distinguishable from a clean shutdown in both Stats
// and the process log.
func (e *tcpEndpoint) noteDecodeError(peer int, err error) {
	e.stats.recvErrs.Add(1)
	e.mu.Lock()
	first := e.firstErr == nil
	if first {
		e.firstErr = err
	}
	e.mu.Unlock()
	if first {
		log.Printf("transport: rank %d: decode error from peer %d: %v", e.rank, peer, err)
	}
}

// recvVecs pools the vectors connection readers decode sparse frames into,
// process-wide like wire's encode buffers. A vector leaves the pool with
// the message it carries and comes back only through Release.
var recvVecs = sync.Pool{New: func() any { return new(sparse.Vector) }}

// Release implements Releaser. Readers stamp From with the peer, never
// with this rank, so a message from this rank is a self-send whose payload
// is Send's private copy, not the pool's.
func (e *tcpEndpoint) Release(m wire.Message) {
	if m.Sparse != nil && int(m.From) != e.rank {
		recvVecs.Put(m.Sparse)
	}
}

func (e *tcpEndpoint) readLoop(peer int, p *tcpPeer) {
	defer e.wg.Done()
	// The frame scratch is grown by DecodeInto only when a payload exceeds
	// it, so the steady state reads every frame into the same buffer, and
	// sparse payloads into pooled vectors. reuse is held until a frame
	// delivers it.
	var frame []byte
	var reuse *sparse.Vector
	corruptRun := 0
	for {
		if reuse == nil {
			reuse = recvVecs.Get().(*sparse.Vector)
		}
		var m wire.Message
		var err error
		m, frame, err = wire.DecodeInto(p.conn, frame, reuse)
		if errors.Is(err, wire.ErrFrameCorrupt) {
			// The checksum failed but the framing held: exactly one frame
			// was consumed, so the stream is still aligned. Drop the frame
			// — the sender's retry layer re-sends it — and keep reading.
			// A long run of consecutive corrupt frames means the link (or
			// peer) is systematically poisoned; give up on it then.
			e.stats.corrupt.Add(1)
			e.noteDecodeError(peer, err)
			p.lastRecv.Store(time.Now().UnixNano())
			if corruptRun++; corruptRun >= maxCorruptRun {
				e.peerDown(peer, p, fmt.Errorf("%d consecutive corrupt frames: %w", corruptRun, err), false)
				return
			}
			continue
		}
		if err != nil {
			if e.isClosed() {
				return // local shutdown, not a peer failure
			}
			switch {
			case errors.Is(err, io.EOF) && p.sawGoodbye.Load():
				// FIN after a goodbye frame: an orderly departure.
				e.peerDown(peer, p, errors.New("peer closed"), true)
			case errors.Is(err, io.EOF):
				// FIN with no goodbye: the process died.
				e.peerDown(peer, p, errors.New("connection closed by peer"), false)
			case errors.Is(err, wire.ErrBadFrame):
				e.noteDecodeError(peer, err)
				e.peerDown(peer, p, fmt.Errorf("corrupted frame: %w", err), false)
			default:
				// Mid-frame EOF, reset, or read error — includes the
				// conn.Close a concurrent peerDown already performed, in
				// which case this is a no-op. A goodbye still marks the
				// departure orderly even if the teardown raced the read.
				e.peerDown(peer, p, fmt.Errorf("read: %w", err), p.sawGoodbye.Load())
			}
			return
		}
		corruptRun = 0
		p.lastRecv.Store(time.Now().UnixNano())
		if m.Tag == wire.TagHeartbeat {
			continue // liveness plumbing, never delivered
		}
		if m.Tag == wire.TagGoodbye {
			p.sawGoodbye.Store(true)
			continue // shutdown announcement; the EOF that follows is clean
		}
		m.From = int32(peer) // trust the mesh, not the frame
		if m.Sparse != nil {
			reuse = nil // the consumer's until it releases it
		}
		if e.box.put(&m, nil) != nil {
			return // closed while held at the bound
		}
	}
}

// heartbeatLoop keeps idle connections carrying traffic and, when
// PeerTimeout is set, converts prolonged silence into a peer-down event.
func (e *tcpEndpoint) heartbeatLoop() {
	defer e.wg.Done()
	ticker := time.NewTicker(e.opts.HeartbeatInterval)
	defer ticker.Stop()
	for {
		select {
		case <-e.closed:
			return
		case <-ticker.C:
		}
		now := time.Now().UnixNano()
		for r := range e.size {
			p, _ := e.peer(r)
			if p == nil {
				continue
			}
			if pt := e.opts.PeerTimeout; pt > 0 && now-p.lastRecv.Load() > int64(pt) {
				e.peerDown(r, p, fmt.Errorf("no traffic for %v: %w", pt, ErrTimeout), false)
				continue
			}
			if now-p.lastSend.Load() < int64(e.opts.HeartbeatInterval) {
				continue // connection is busy; no keepalive needed
			}
			if e.write(r, p, wire.Control(wire.TagHeartbeat)) == nil {
				e.stats.heartbeats.Add(1)
			}
		}
	}
}

// write is how Send, heartbeats and goodbyes put a frame on p, rank
// peer's connection: it stamps From, encodes under the write lock and
// stamps lastSend. A failed write marks the peer down and returns its
// PeerDownError, unless the endpoint is closed, which is no peer's failure
// and returns ErrClosed.
func (e *tcpEndpoint) write(peer int, p *tcpPeer, m wire.Message) error {
	m.From = int32(e.rank)
	p.wmu.Lock()
	err := wire.Encode(p.conn, m)
	p.wmu.Unlock()
	if err != nil {
		if e.isClosed() {
			return ErrClosed
		}
		e.peerDown(peer, p, fmt.Errorf("write: %w", err), p.sawGoodbye.Load())
		_, err = e.peer(peer)
		return err
	}
	p.lastSend.Store(time.Now().UnixNano())
	return nil
}

func (e *tcpEndpoint) Rank() int { return e.rank }
func (e *tcpEndpoint) Size() int { return e.size }

func (e *tcpEndpoint) Send(to int, m wire.Message) error {
	if err := checkRank(to, e.size); err != nil {
		return err
	}
	if to == e.rank {
		// Loopback without touching the network, and so without the copy
		// serialization makes: take one, or the receiver would read the
		// sender's buffers.
		m.From = int32(e.rank)
		copyPayload(&m)
		if e.box.put(&m, nil) != nil {
			return ErrClosed
		}
		e.stats.record(m)
		return nil
	}
	p, err := e.peer(to)
	if err != nil {
		return err
	}
	if p == nil {
		return fmt.Errorf("transport: no connection to rank %d", to)
	}
	if e.isClosed() {
		return ErrClosed
	}
	if err := e.write(to, p, m); err != nil {
		return err
	}
	e.stats.record(m)
	return nil
}

func (e *tcpEndpoint) Recv(from int, tag int32) (wire.Message, error) {
	return e.RecvTimeout(from, tag, 0)
}

// RecvTimeout matches what the readers delivered before it consults
// stopErr: a reader puts every decoded frame before it reports the
// failure, so frames a peer sent before it died (or that arrived before
// Close) are still matched first.
func (e *tcpEndpoint) RecvTimeout(from int, tag int32, d time.Duration) (wire.Message, error) {
	if err := checkSource(from, e.size); err != nil {
		return wire.Message{}, err
	}
	return e.box.recv(from, tag, d)
}

// Expect implements Expecter: the connection readers put into the same
// mailbox as the chan fabric's senders.
func (e *tcpEndpoint) Expect(n int) { e.box.expect(n) }

func (e *tcpEndpoint) Stats() Stats { return e.stats.snapshot() }

// Close says goodbye to every live peer, then closes the listener, the
// connection whose hello the accept loop is reading, and every peer
// connection, and waits for the endpoint's goroutines.
func (e *tcpEndpoint) Close() error {
	e.closeOnce.Do(func() {
		for r := range e.size {
			if p, _ := e.peer(r); p != nil {
				// Best effort: a peer that misses the goodbye errs on the
				// side of reporting a crash — a failure, never a hang.
				e.write(r, p, wire.Control(wire.TagGoodbye))
			}
		}
		close(e.closed)
		e.box.close()
		e.ln.Close()
		e.mu.Lock()
		if e.greeting != nil {
			e.greeting.Close()
		}
		for _, p := range e.peers {
			if p != nil {
				p.conn.Close()
			}
		}
		e.mu.Unlock()
	})
	e.wg.Wait()
	return nil
}
