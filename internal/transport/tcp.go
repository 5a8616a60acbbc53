package transport

import (
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
	// listening yet (the individual dial attempts included), and waiting
	// for higher ranks to dial in and hand-shake. Default 30s.
	DialTimeout time.Duration
	// RetryInterval is the pause between dial attempts. Default 50ms.
	RetryInterval time.Duration
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
	// already-established mesh: instead of the dial-lower/accept-higher
	// bootstrap it dials EVERY peer, whose persistent accept loops adopt
	// the new connections in place of the dead ones and re-arm their
	// heartbeat state.
	Rejoin bool
}

func (o *TCPOptions) fill() {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 30 * time.Second
	}
	if o.RetryInterval <= 0 {
		o.RetryInterval = 50 * time.Millisecond
	}
	if o.HeartbeatInterval == 0 {
		o.HeartbeatInterval = time.Second
	}
}

// tcpEndpoint is one rank of a full TCP mesh. Every pair of ranks shares
// exactly one TCP connection: rank i dials every rank j < i and accepts
// from every j > i, so connection count is n(n-1)/2 across the cluster.
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
	peers []*tcpPeer // indexed by rank; peers[rank] == nil; guarded by mu after setup

	// box is fed by the connection readers (and loopback sends). A reader
	// held at its bound stops reading, which is the socket's back-pressure.
	box mailbox

	mu       sync.Mutex
	down     []*PeerDownError // indexed by rank, nil while alive
	reported []bool           // crashes already surfaced to an any-source wait
	firstErr error            // first decode error seen by any reader

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
// address. The call blocks until the full mesh is established.
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
	e := &tcpEndpoint{
		rank:     rank,
		size:     size,
		opts:     opts,
		ln:       ln,
		peers:    make([]*tcpPeer, size),
		down:     make([]*PeerDownError, size),
		reported: make([]bool, size),
		closed:   make(chan struct{}),
	}
	e.box.init()
	e.box.stopWhen(e.stopErr)

	var mu sync.Mutex
	var firstErr error
	setErr := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	var setup sync.WaitGroup

	// Accept connections from all higher ranks (a rejoining incarnation
	// instead dials everyone; its peers' accept loops adopt it). Accepts
	// and handshakes share the dial budget, so a higher rank that never
	// shows up fails establishment instead of hanging it.
	higher := size - 1 - rank
	if opts.Rejoin {
		higher = 0
	}
	acceptBy := time.Now().Add(opts.DialTimeout)
	tcpLn := ln.(*net.TCPListener)
	setup.Add(1)
	go func() {
		defer setup.Done()
		tcpLn.SetDeadline(acceptBy)
		defer tcpLn.SetDeadline(time.Time{}) // acceptRejoins waits indefinitely
		// timedOut maps the net package's deadline error onto ErrTimeout.
		timedOut := func(joined int, err error) error {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				return fmt.Errorf("%d of %d higher ranks joined within %v: %w", joined, higher, opts.DialTimeout, ErrTimeout)
			}
			return err
		}
		for i := 0; i < higher; i++ {
			conn, err := ln.Accept()
			if err != nil {
				setErr(fmt.Errorf("transport: rank %d accept: %w", rank, timedOut(i, err)))
				return
			}
			conn.SetReadDeadline(acceptBy)
			m, err := wire.Decode(conn)
			if err == nil && (m.Tag != handshakeTag || len(m.Ints) != 1) {
				err = fmt.Errorf("unexpected frame (tag %d, %d ints)", m.Tag, len(m.Ints))
			}
			if err != nil {
				conn.Close()
				setErr(fmt.Errorf("transport: rank %d bad handshake: %w", rank, timedOut(i, err)))
				return
			}
			conn.SetReadDeadline(time.Time{})
			peer := int(m.Ints[0])
			if err := checkRank(peer, size); err != nil || peer <= rank {
				conn.Close()
				setErr(fmt.Errorf("transport: rank %d handshake from invalid rank %d", rank, peer))
				return
			}
			mu.Lock()
			dup := e.peers[peer] != nil
			if !dup {
				e.peers[peer] = &tcpPeer{conn: conn}
			}
			mu.Unlock()
			if dup {
				conn.Close()
				setErr(fmt.Errorf("transport: rank %d duplicate handshake from %d", rank, peer))
				return
			}
		}
	}()

	// Dial all lower ranks — all peers when rejoining — retrying while
	// they come up. The whole loop — attempts and pauses — shares one
	// wall-clock budget of opts.DialTimeout, so each attempt is capped by
	// the remaining budget rather than restarting the full timeout (which
	// could overshoot ~2×).
	dialHigh := rank
	if opts.Rejoin {
		dialHigh = size
	}
	for peer := 0; peer < dialHigh; peer++ {
		if peer == rank {
			continue
		}
		setup.Add(1)
		go func(peer int) {
			defer setup.Done()
			deadline := time.Now().Add(opts.DialTimeout)
			// A rejoining incarnation may find some peers dead themselves;
			// that is a membership fact, not a setup failure — record them
			// down and join the survivors.
			fail := setErr
			if opts.Rejoin {
				fail = func(err error) {
					e.mu.Lock()
					e.down[peer] = &PeerDownError{Peer: peer, Cause: err}
					e.mu.Unlock()
				}
			}
			for {
				remaining := time.Until(deadline)
				if remaining <= 0 {
					fail(fmt.Errorf("transport: rank %d dial rank %d (%s): %w",
						rank, peer, addrs[peer], ErrTimeout))
					return
				}
				conn, err := net.DialTimeout("tcp", addrs[peer], remaining)
				if err == nil {
					hs := wire.Control(handshakeTag, int64(rank))
					hs.From = int32(rank)
					if err := wire.Encode(conn, hs); err != nil {
						conn.Close()
						fail(fmt.Errorf("transport: rank %d handshake to %d: %w", rank, peer, err))
						return
					}
					if opts.Rejoin {
						// Wait for the peer to adopt the connection before
						// reporting the mesh ready, or an immediate Send from
						// the peer's side could still see the old down record.
						conn.SetReadDeadline(deadline)
						ack, err := wire.Decode(conn)
						if err != nil || ack.Tag != handshakeTag {
							conn.Close()
							fail(fmt.Errorf("transport: rank %d rejoin ack from %d: %v", rank, peer, err))
							return
						}
						conn.SetReadDeadline(time.Time{})
					}
					mu.Lock()
					e.peers[peer] = &tcpPeer{conn: conn}
					mu.Unlock()
					return
				}
				if remaining = time.Until(deadline); remaining <= 0 {
					fail(fmt.Errorf("transport: rank %d dial rank %d (%s): %w", rank, peer, addrs[peer], err))
					return
				}
				if pause := opts.RetryInterval; pause > remaining {
					time.Sleep(remaining)
				} else {
					time.Sleep(pause)
				}
			}
		}(peer)
	}

	setup.Wait()
	if firstErr != nil {
		e.teardown()
		return nil, firstErr
	}

	// Start one reader per peer connection, plus the heartbeat ticker.
	now := time.Now().UnixNano()
	for p, peer := range e.peers {
		if peer == nil {
			continue
		}
		peer.lastSend.Store(now)
		peer.lastRecv.Store(now)
		e.wg.Add(1)
		go e.readLoop(p, peer)
	}
	if e.opts.HeartbeatInterval > 0 && size > 1 {
		e.wg.Add(1)
		go e.heartbeatLoop()
	}
	// The listener stays open for the life of the endpoint so restarted
	// incarnations of dead peers can re-dial into the mesh.
	e.wg.Add(1)
	go e.acceptRejoins()
	return e, nil
}

// acceptRejoins serves the listener after mesh establishment: every new
// connection must hand-shake as a known rank, and is adopted as that
// peer's new incarnation — replacing the dead (or about-to-be-declared-
// dead) connection, clearing the down record, and re-arming heartbeat
// state. Handshakes are processed one at a time; rejoin traffic is rare.
func (e *tcpEndpoint) acceptRejoins() {
	defer e.wg.Done()
	for {
		conn, err := e.ln.Accept()
		if err != nil {
			return // listener closed (endpoint shutdown)
		}
		conn.SetReadDeadline(time.Now().Add(e.opts.DialTimeout))
		m, err := wire.Decode(conn)
		if err != nil || m.Tag != handshakeTag || len(m.Ints) != 1 {
			conn.Close()
			continue
		}
		conn.SetReadDeadline(time.Time{})
		peer := int(m.Ints[0])
		if checkRank(peer, e.size) != nil || peer == e.rank {
			conn.Close()
			continue
		}
		p := &tcpPeer{conn: conn}
		now := time.Now().UnixNano()
		p.lastSend.Store(now)
		p.lastRecv.Store(now)
		// Install, THEN acknowledge: the dialer reports the mesh ready as
		// soon as it reads the ack, so by then this rank must already see
		// the peer alive. The ack is written under the new peer's send
		// lock, taken before the peer is published, so no Send that finds
		// it can interleave with the ack on the wire.
		p.wmu.Lock()
		e.mu.Lock()
		select {
		case <-e.closed:
			e.mu.Unlock()
			conn.Close()
			return
		default:
		}
		old := e.peers[peer]
		e.peers[peer] = p
		e.down[peer] = nil
		e.reported[peer] = false
		e.mu.Unlock()
		e.box.wake() // targeted waits on the revived rank resume
		if old != nil {
			// A new incarnation supersedes the old connection whether or not
			// its death was detected yet; stale observers of the old conn are
			// ignored by peerDown's identity check.
			old.conn.Close()
		}
		ack := wire.Control(handshakeTag, int64(e.rank))
		ack.From = int32(e.rank)
		err = wire.Encode(conn, ack)
		p.wmu.Unlock()
		if err != nil {
			e.peerDown(peer, p, fmt.Errorf("rejoin ack: %w", err), false)
			continue
		}
		e.wg.Add(1)
		go e.readLoop(peer, p)
	}
}

// getPeer returns the current connection object for a rank; rejoins may
// replace it at any time, so callers must pass the same object to peerDown
// when reporting a failure they observed on it.
func (e *tcpEndpoint) getPeer(r int) *tcpPeer {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.peers[r]
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

// peerErr returns peer's PeerDownError, or nil while it is alive.
func (e *tcpEndpoint) peerErr(peer int) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if d := e.down[peer]; d != nil {
		return d
	}
	return nil
}

// stopErr is the mailbox's reason to stop waiting: the endpoint is closed,
// or the peers that could still satisfy the Recv are down (recvDownError).
func (e *tcpEndpoint) stopErr(from int, _ int32) error {
	select {
	case <-e.closed:
		return ErrClosed
	default:
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
			select {
			case <-e.closed:
				return // local shutdown, not a peer failure
			default:
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
		for r := 0; r < e.size; r++ {
			p := e.getPeer(r)
			if p == nil || e.peerErr(r) != nil {
				continue
			}
			if pt := e.opts.PeerTimeout; pt > 0 && now-p.lastRecv.Load() > int64(pt) {
				e.peerDown(r, p, fmt.Errorf("no traffic for %v: %w", pt, ErrTimeout), false)
				continue
			}
			if now-p.lastSend.Load() < int64(e.opts.HeartbeatInterval) {
				continue // connection is busy; no keepalive needed
			}
			hb := wire.Control(wire.TagHeartbeat)
			hb.From = int32(e.rank)
			p.wmu.Lock()
			err := wire.Encode(p.conn, hb)
			p.wmu.Unlock()
			if err != nil {
				select {
				case <-e.closed:
					return
				default:
				}
				e.peerDown(r, p, fmt.Errorf("heartbeat write: %w", err), p.sawGoodbye.Load())
				continue
			}
			p.lastSend.Store(now)
			e.stats.heartbeats.Add(1)
		}
	}
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
	if err := e.peerErr(to); err != nil {
		return err
	}
	peer := e.getPeer(to)
	if peer == nil {
		return fmt.Errorf("transport: no connection to rank %d", to)
	}
	select {
	case <-e.closed:
		return ErrClosed
	default:
	}
	m.From = int32(e.rank)
	peer.wmu.Lock()
	err := wire.Encode(peer.conn, m)
	peer.wmu.Unlock()
	if err != nil {
		select {
		case <-e.closed:
			return ErrClosed
		default:
		}
		e.peerDown(to, peer, fmt.Errorf("write: %w", err), peer.sawGoodbye.Load())
		return e.peerErr(to)
	}
	peer.lastSend.Store(time.Now().UnixNano())
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

func (e *tcpEndpoint) Stats() Stats { return e.stats.snapshot() }

func (e *tcpEndpoint) teardown() {
	if e.ln != nil {
		e.ln.Close()
	}
	e.mu.Lock()
	peers := append([]*tcpPeer(nil), e.peers...)
	e.mu.Unlock()
	for _, p := range peers {
		if p != nil {
			p.conn.Close()
		}
	}
}

func (e *tcpEndpoint) Close() error {
	e.closeOnce.Do(func() {
		e.sayGoodbye()
		close(e.closed)
		e.box.close()
		e.teardown()
	})
	e.wg.Wait()
	return nil
}

// sayGoodbye announces an orderly shutdown to every live peer so they can
// tell this departure from a crash. Best effort: a peer that is already
// gone, or a socket that fails mid-write, simply misses the announcement
// and errs on the side of reporting a crash — a failure, never a hang.
func (e *tcpEndpoint) sayGoodbye() {
	for r := 0; r < e.size; r++ {
		p := e.getPeer(r)
		if p == nil || e.peerErr(r) != nil {
			continue
		}
		bye := wire.Control(wire.TagGoodbye)
		bye.From = int32(e.rank)
		p.wmu.Lock()
		wire.Encode(p.conn, bye)
		p.wmu.Unlock()
	}
}
