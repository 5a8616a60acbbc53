package transport

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"psrahgadmm/internal/wire"
)

// FaultPlan describes the failures a FaultFabric injects. All randomness is
// drawn from per-rank PRNGs seeded from Seed, so a plan replays identically
// across runs as long as each rank's own send sequence is deterministic —
// which the ADMM runtimes guarantee (one rank = one goroutine).
type FaultPlan struct {
	// Seed derives every per-rank PRNG. Two fabrics with equal plans
	// inject identical fault sequences.
	Seed int64
	// DropProb is the probability an individual Send is silently
	// discarded (message loss). The sender sees success.
	DropProb float64
	// DelayProb is the probability a Send is held for a random duration
	// up to MaxDelay before delivery (network jitter / stragglers).
	DelayProb float64
	// MaxDelay bounds injected delays. Default 10ms when DelayProb > 0.
	MaxDelay time.Duration
	// Partitions lists rank pairs whose traffic is blackholed in both
	// directions, simulating a network partition. Partitioned sends are
	// silently dropped, exactly like a real partition: only deadlines
	// (RecvTimeout) or the peers' own failure detection notice.
	Partitions [][2]int
	// KillAfterSends maps rank → the number of successful Sends after
	// which that rank dies: its endpoint behaves as abruptly closed
	// (ErrClosed from its own calls) and every other rank sees it as a
	// down peer (PeerDownError), mirroring a mid-collective process crash.
	KillAfterSends map[int]int
	// KillAtIteration maps rank → the outer iteration at whose start the
	// rank dies. The transport layer cannot trigger these itself (an
	// iteration is an algorithm notion); the core engine reads the plan
	// and calls Kill at the scheduled boundary. This is how ranks that
	// never touch the fabric — e.g. non-leader workers whose intra-node
	// exchange is simulated — can still be killed deterministically.
	KillAtIteration map[int]int
	// RejoinAtIteration maps rank → the outer iteration at whose start the
	// rank comes back as a new incarnation. Like KillAtIteration it is
	// executed by the engine (via Revive) at the scheduled boundary, and it
	// only makes sense for a rank some earlier entry killed.
	RejoinAtIteration map[int]int
	// DupProb is the probability a delivered Send is delivered twice —
	// at-least-once semantics gone wrong. Protocols must treat duplicated
	// frames as idempotent.
	DupProb float64
	// ReorderProb is the probability a Send is held back and delivered
	// after the sender's next Send, swapping the pair's arrival order. A
	// held message with no successor behaves like a drop.
	ReorderProb float64
	// CorruptProb is the probability a Send's encoded frame suffers a
	// single bit-flip in its payload bytes in transit. The flip is applied
	// to the real wire encoding (CRC32C trailer included, computed before
	// the flip), then run through the real decoder: a detected flip means
	// the frame is dropped and the receiver observes a FrameCorruptError —
	// exactly what a TCP reader does when a checksum fails — while an
	// undetected flip (impossible for single-bit errors under CRC32C, but
	// counted defensively) is delivered wrong, modeling an unprotected
	// wire. Tests assert SilentCorruptions stays zero.
	CorruptProb float64
	// CorruptAtIteration maps rank → the outer iteration at whose start
	// that rank's next algorithm-traffic Send is corrupted. Like
	// KillAtIteration it is executed by the core engine (via ArmCorrupt) at
	// the scheduled boundary, and it fires at most once per run so a
	// post-rollback replay of the same iteration is not re-poisoned.
	CorruptAtIteration map[int]int
	// NaNAtIteration maps rank → the outer iteration at whose start the
	// engine poisons that rank's local solve with a NaN. This is not a
	// transport fault at all — it rides in the plan so every chaos schedule
	// lives in one place — and, like KillAtIteration, the engine executes
	// it (transport cannot see solver state) exactly once per run.
	NaNAtIteration map[int]int
	// ByzantineAtIteration maps rank → the Byzantine behavior that rank
	// adopts FROM the named iteration ONWARD. Unlike the fire-once
	// corruption and NaN schedules, a Byzantine rank stays Byzantine — the
	// threat model is a compromised or persistently buggy worker, not a
	// transient glitch — until the quarantine protocol excludes it. Like
	// NaNAtIteration this is engine-executed (the poison is applied to the
	// contribution after codec encoding, exactly where a compromised
	// worker would inject it); it rides in the plan so every chaos
	// schedule lives in one place.
	ByzantineAtIteration map[int]ByzantineFault
}

// ByzantineFault schedules one rank's semantic-fault behavior.
type ByzantineFault struct {
	// Iteration is the first poisoned iteration.
	Iteration int
	// Mode selects the poison: one of the Byzantine* constants.
	Mode string
	// Until, when positive, is the first iteration the poison NO LONGER
	// applies — a bounded compromise window. Zero means forever, the
	// default threat model. A bounded window is what makes quarantine
	// re-admission observable: once the attack stops, the victim's clean
	// probes accumulate and the engine readmits it.
	Until int
}

// The Byzantine poison modes.
const (
	// ByzantineSignFlip negates the contribution — norm-preserving, so it
	// defeats magnitude-only screens and is the classic robust-aggregation
	// stress case.
	ByzantineSignFlip = "sign-flip"
	// ByzantineScale multiplies the contribution by 10.
	ByzantineScale = "scale"
)

// ByzantineModes lists every valid mode.
func ByzantineModes() []string {
	return []string{ByzantineSignFlip, ByzantineScale}
}

// ValidByzantineMode reports whether mode names a known poison.
func ValidByzantineMode(mode string) bool {
	switch mode {
	case ByzantineSignFlip, ByzantineScale:
		return true
	}
	return false
}

// FaultFabric wraps another Fabric and injects drops, delays, partitions,
// and peer kills according to a deterministic FaultPlan. It implements
// Fabric, so the engine and the WLG runtime run on it unchanged — this is
// the harness the no-hang tests drive and the knob Config.Faults exposes.
//
// It injects on the send side only. A receive is the wrapped endpoint's
// own: each faultEndpoint's stopErr stands in that endpoint's mailbox as
// its reason to stop, and Kill and noteCorrupt — the two things that change
// what stopErr reads — release mu and then wake the receivers concerned.
type FaultFabric struct {
	under Fabric
	plan  FaultPlan
	eps   []*faultEndpoint

	mu       sync.Mutex
	down     []*PeerDownError  // rank → kill record, nil while alive
	cut      map[[2]int]bool   // normalized partitioned pairs
	corruptQ [][]corruptRecord // rank → detected-corrupt frames awaiting its Recv
	drops    atomic.Int64
	delays   atomic.Int64
	dups     atomic.Int64
	reorders atomic.Int64
	corrupts atomic.Int64
	silent   atomic.Int64
}

// corruptRecord is one detected-and-dropped corrupt frame: enough identity
// for the recipient's Recv to surface a typed FrameCorruptError in its
// place, so in-process receivers learn of the loss promptly instead of
// waiting out a deadline the way a TCP receiver would.
type corruptRecord struct {
	from int
	tag  int32
}

// FrameCorruptError reports that a frame destined for this receiver failed
// its integrity check in transit and was dropped. The message never
// arrived; the collective retry layer treats this exactly like a lost
// frame and re-requests it. errors.Is(err, wire.ErrFrameCorrupt) matches.
type FrameCorruptError struct {
	From int
	Tag  int32
}

func (e *FrameCorruptError) Error() string {
	return fmt.Sprintf("transport: corrupt frame from %d tag %d dropped", e.From, e.Tag)
}

func (e *FrameCorruptError) Unwrap() error { return wire.ErrFrameCorrupt }

// NewFaultFabric wraps under with the given plan. Every endpoint of under
// must be Wakeable: a kill has to reach receivers blocked underneath, and
// nothing polls on their behalf.
func NewFaultFabric(under Fabric, plan FaultPlan) *FaultFabric {
	if plan.MaxDelay <= 0 {
		plan.MaxDelay = 10 * time.Millisecond
	}
	f := &FaultFabric{
		under:    under,
		plan:     plan,
		eps:      make([]*faultEndpoint, under.Size()),
		down:     make([]*PeerDownError, under.Size()),
		cut:      make(map[[2]int]bool),
		corruptQ: make([][]corruptRecord, under.Size()),
	}
	for _, p := range plan.Partitions {
		f.cut[pairKey(p[0], p[1])] = true
	}
	for i := range f.eps {
		u := under.Endpoint(i)
		w, ok := u.(Wakeable)
		if !ok {
			panic(fmt.Sprintf("transport: NewFaultFabric over %T, which cannot be woken", u))
		}
		f.eps[i] = &faultEndpoint{
			fab:       f,
			under:     w,
			rng:       rand.New(rand.NewSource(plan.Seed ^ int64(i)*0x5851f42d4c957f2d)),
			killAfter: -1,
			reported:  make([]bool, under.Size()),
		}
		if n, ok := plan.KillAfterSends[i]; ok {
			f.eps[i].killAfter = n
		}
		f.eps[i].StopWhen(nil)
	}
	return f
}

func pairKey(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

// Size returns the number of ranks.
func (f *FaultFabric) Size() int { return f.under.Size() }

// Endpoint returns rank i's fault-injecting endpoint.
func (f *FaultFabric) Endpoint(i int) Endpoint {
	if err := checkRank(i, f.under.Size()); err != nil {
		panic(err)
	}
	return f.eps[i]
}

// Close closes the underlying fabric.
func (f *FaultFabric) Close() { f.under.Close() }

// Kill marks rank dead immediately: its endpoint's calls return ErrClosed
// and every peer observes a PeerDownError for it. Idempotent.
func (f *FaultFabric) Kill(rank int) {
	if err := checkRank(rank, f.under.Size()); err != nil {
		panic(err)
	}
	f.mu.Lock()
	if f.down[rank] == nil {
		f.down[rank] = &PeerDownError{Peer: rank, Cause: errors.New("killed by fault plan")}
	}
	f.mu.Unlock()
	// Closing the victim's underlying endpoint makes peers' direct sends to
	// it fail, as a real crash would; the wake has every blocked receiver —
	// the victim's own included — consult stopErr again.
	f.eps[rank].under.Close()
	for _, e := range f.eps {
		e.under.Wake()
	}
}

// Revive brings a killed rank back as a new incarnation: the kill record
// is cleared, every endpoint's once-per-observer report flag for the rank
// is reset (so a future death of the new incarnation is reported afresh),
// the pending KillAfterSends trigger is disarmed, and — when the
// underlying fabric supports it — the rank's endpoint is reopened with an
// empty inbox. The caller must guarantee the dead rank's old goroutine has
// quiesced before reviving, exactly as a real rejoin is a new process.
func (f *FaultFabric) Revive(rank int) {
	if err := checkRank(rank, f.under.Size()); err != nil {
		panic(err)
	}
	f.mu.Lock()
	f.down[rank] = nil
	f.corruptQ[rank] = nil // a fresh incarnation starts with a clean inbox
	for _, e := range f.eps {
		e.reported[rank] = false
	}
	f.mu.Unlock()
	ep := f.eps[rank]
	ep.rmu.Lock()
	ep.killAfter = -1
	ep.held = nil
	ep.corruptArm = false
	ep.rmu.Unlock()
	if ro, ok := f.under.(interface{ Reopen(int) }); ok {
		ro.Reopen(rank)
	}
}

// Partition blackholes traffic between a and b (both directions) from now
// on. Heal removes the cut.
func (f *FaultFabric) Partition(a, b int) {
	f.mu.Lock()
	f.cut[pairKey(a, b)] = true
	f.mu.Unlock()
}

// Heal reconnects a previously partitioned pair.
func (f *FaultFabric) Heal(a, b int) {
	f.mu.Lock()
	delete(f.cut, pairKey(a, b))
	f.mu.Unlock()
}

// InjectedDrops reports how many sends were discarded (drops + partition
// blackholes) — the number tests assert against to prove injection ran.
func (f *FaultFabric) InjectedDrops() int64 { return f.drops.Load() }

// InjectedDelays reports how many sends were artificially delayed.
func (f *FaultFabric) InjectedDelays() int64 { return f.delays.Load() }

// InjectedDups reports how many sends were delivered twice.
func (f *FaultFabric) InjectedDups() int64 { return f.dups.Load() }

// InjectedReorders reports how many send pairs had their order swapped.
func (f *FaultFabric) InjectedReorders() int64 { return f.reorders.Load() }

// InjectedCorruptions reports how many sends were bit-flipped in transit
// and DETECTED by the frame checksum (then dropped for the retry layer to
// recover). Tests assert this is positive to prove injection ran.
func (f *FaultFabric) InjectedCorruptions() int64 { return f.corrupts.Load() }

// SilentCorruptions reports bit-flipped frames that passed the checksum
// and were delivered wrong. CRC32C detects all single-bit errors, so this
// must be zero; it exists so tests can assert "never silently wrong"
// directly instead of inferring it from convergence.
func (f *FaultFabric) SilentCorruptions() int64 { return f.silent.Load() }

// ArmCorrupt makes rank's next algorithm-traffic Send corrupt in transit.
// The engine calls this at the iteration boundary CorruptAtIteration
// names; tests may call it directly.
func (f *FaultFabric) ArmCorrupt(rank int) {
	if err := checkRank(rank, f.under.Size()); err != nil {
		panic(err)
	}
	ep := f.eps[rank]
	ep.rmu.Lock()
	ep.corruptArm = true
	ep.rmu.Unlock()
}

// noteCorrupt queues a detected-corrupt record for the recipient's Recv
// and wakes it.
func (f *FaultFabric) noteCorrupt(to, from int, tag int32) {
	f.mu.Lock()
	f.corruptQ[to] = append(f.corruptQ[to], corruptRecord{from: from, tag: tag})
	f.mu.Unlock()
	f.eps[to].under.Wake()
}

// takeCorrupt removes and returns the first queued corrupt record matching
// a Recv(from, tag) on rank self, or nil. The caller holds mu.
func (f *FaultFabric) takeCorrupt(self, from int, tag int32) *corruptRecord {
	q := f.corruptQ[self]
	for i := range q {
		if q[i].tag != tag {
			continue
		}
		if from != AnySource && q[i].from != from {
			continue
		}
		rec := q[i]
		f.corruptQ[self] = append(q[:i], q[i+1:]...)
		return &rec
	}
	return nil
}

func (f *FaultFabric) killed(rank int) *PeerDownError {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.down[rank]
}

func (f *FaultFabric) partitioned(a, b int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cut[pairKey(a, b)]
}

// faultEndpoint decorates one rank's endpoint with the fabric's plan.
type faultEndpoint struct {
	fab   *FaultFabric
	under Wakeable

	rmu        sync.Mutex // guards rng, sends, held, and corruptArm (determinism + race safety)
	rng        *rand.Rand
	sends      int
	killAfter  int       // successful sends before suicide; -1 = never
	held       *heldSend // reorder slot: message overtaken by the next send
	corruptArm bool      // next algorithm send is corrupted (ArmCorrupt)
	// reported tracks which kills this endpoint's any-source waits have
	// already surfaced (one report per death per observer); guarded by the
	// fabric mutex alongside the down records it mirrors.
	reported []bool
	// smu serializes every Send forwarded to under, and the Stats read: a
	// faultEndpoint does not advertise NonBlockingSender, so collectives
	// send through it from concurrent goroutines, and a chan endpoint
	// underneath takes one sender at a time.
	smu sync.Mutex
}

func (e *faultEndpoint) Rank() int { return e.under.Rank() }
func (e *faultEndpoint) Size() int { return e.under.Size() }

func (e *faultEndpoint) Send(to int, m wire.Message) error {
	if err := checkRank(to, e.Size()); err != nil {
		return err
	}
	self := e.Rank()
	if e.fab.killed(self) != nil {
		return ErrClosed // a dead rank's own calls fail as if closed
	}
	if d := e.fab.killed(to); d != nil {
		return d
	}
	e.rmu.Lock()
	if e.killAfter >= 0 && e.sends >= e.killAfter {
		e.rmu.Unlock()
		e.fab.Kill(self)
		return ErrClosed
	}
	e.sends++
	drop := e.fab.plan.DropProb > 0 && e.rng.Float64() < e.fab.plan.DropProb
	var delay time.Duration
	if e.fab.plan.DelayProb > 0 && e.rng.Float64() < e.fab.plan.DelayProb {
		delay = time.Duration(e.rng.Int63n(int64(e.fab.plan.MaxDelay))) + 1
	}
	dup := e.fab.plan.DupProb > 0 && e.rng.Float64() < e.fab.plan.DupProb
	reorder := e.fab.plan.ReorderProb > 0 && e.rng.Float64() < e.fab.plan.ReorderProb
	// Corruption draws happen only when corruption is configured, so plans
	// without it replay bit-identical PRNG sequences to older runs. The
	// bit index is drawn here, under the same lock as the decision, to keep
	// the (decision, position) pair deterministic per rank.
	corrupt := false
	corruptBit := 0
	if !wire.IsReservedTag(m.Tag) {
		if e.corruptArm {
			e.corruptArm = false
			corrupt = true
		} else if e.fab.plan.CorruptProb > 0 {
			corrupt = e.rng.Float64() < e.fab.plan.CorruptProb
		}
		if corrupt {
			corruptBit = e.rng.Intn(1 << 30)
		}
	}
	var flush *heldSend
	if reorder && e.held == nil && !drop {
		// Hold this message; the sender's next Send overtakes it.
		e.held = &heldSend{to: to, m: m}
		e.rmu.Unlock()
		return nil // held: the sender cannot tell, like a delay
	}
	if e.held != nil {
		flush = e.held
		e.held = nil
	}
	e.rmu.Unlock()

	if e.fab.partitioned(self, to) || drop {
		e.fab.drops.Add(1)
		return nil // blackholed: the sender cannot tell
	}
	if delay > 0 {
		e.fab.delays.Add(1)
		time.Sleep(delay)
	}
	var err error
	if corrupt {
		err = e.corruptDeliver(to, m, corruptBit)
	} else {
		err = e.forward(to, m)
		if err == nil && dup {
			// Duplicate delivery: the same frame arrives twice. Best effort —
			// the duplicate's failure is invisible, like a retransmit's.
			e.fab.dups.Add(1)
			_ = e.forward(to, m)
		}
	}
	if errors.Is(err, ErrClosed) && e.fab.killed(self) == nil {
		// The entry checks and the delivery are not one step: a kill landing
		// in between surfaces from the fabric underneath as a bare closed
		// endpoint. As in stopErr, prefer the typed cause over ErrClosed
		// noise, so a survivor is not taken for the victim.
		if d := e.fab.killed(to); d != nil {
			err = d
		}
	}
	if flush != nil {
		// The held message arrives after its successor: order swapped.
		e.fab.reorders.Add(1)
		_ = e.forward(flush.to, flush.m)
	}
	return err
}

// forward hands m to the wrapped endpoint, one sender at a time. It is
// taken after any injected delay, so a sleeping send holds up no other.
func (e *faultEndpoint) forward(to int, m wire.Message) error {
	e.smu.Lock()
	defer e.smu.Unlock()
	return e.under.Send(to, m)
}

// heldSend is a message parked by reorder injection until the sender's
// next Send releases it behind that successor.
type heldSend struct {
	to int
	m  wire.Message
}

// corruptDeliver simulates an in-transit bit-flip honestly: the message is
// run through the real wire encoder (CRC trailer computed over the clean
// bytes), one payload bit is flipped, and the real decoder judges the
// result. A detected flip is dropped and recorded for the recipient's Recv
// to surface as FrameCorruptError; an undetected flip — which CRC32C rules
// out for single-bit errors — is delivered wrong and counted as silent, so
// "never silently corrupted" is an asserted property, not an assumption.
func (e *faultEndpoint) corruptDeliver(to int, m wire.Message, bitDraw int) error {
	buf, err := wire.AppendMessage(nil, m)
	if err != nil {
		return err
	}
	lo, hi := wire.HeaderBytes, len(buf)-wire.CRCBytes
	if hi <= lo {
		hi = len(buf) // degenerate frame: flip somewhere, still detected
	}
	bit := bitDraw % ((hi - lo) * 8)
	buf[lo+bit/8] ^= 1 << (bit % 8)
	dm, derr := wire.Decode(bytes.NewReader(buf))
	if derr == nil {
		e.fab.silent.Add(1)
		return e.forward(to, dm)
	}
	e.fab.corrupts.Add(1)
	e.fab.noteCorrupt(to, e.Rank(), m.Tag)
	return nil
}

func (e *faultEndpoint) Recv(from int, tag int32) (wire.Message, error) {
	return e.under.Recv(from, tag)
}

func (e *faultEndpoint) RecvTimeout(from int, tag int32, d time.Duration) (wire.Message, error) {
	return e.under.RecvTimeout(from, tag, d)
}

// stopErr is the reason a Recv(from, tag) that nothing delivered matches
// must stop waiting — messages already delivered, even by a peer killed
// since, win over it. This rank's own kill reads as a closed endpoint; a
// kill always precedes the abort cascade that closes the fabric, so the
// typed PeerDownError comes before the ErrClosed the mailbox would report;
// and a frame bound for this wait that was corrupted in transit is reported
// promptly and typed — the in-process analogue of a TCP reader's checksum
// skip plus the receiver noticing the gap.
func (e *faultEndpoint) stopErr(from int, tag int32) error {
	f, self := e.fab, e.Rank()
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.down[self] != nil {
		return ErrClosed
	}
	if err := recvDownError(f.down, e.reported, self, from); err != nil {
		return err
	}
	if rec := f.takeCorrupt(self, from, tag); rec != nil {
		return &FrameCorruptError{From: rec.from, Tag: rec.tag}
	}
	return nil
}

// StopWhen adds the caller's reason behind the fault layer's own: a kill
// precedes whatever abort it sets off above, so the typed cause is
// reported, not the abort's.
func (e *faultEndpoint) StopWhen(stop Interrupt) {
	if stop == nil {
		e.under.StopWhen(e.stopErr)
		return
	}
	e.under.StopWhen(func(from int, tag int32) error {
		if err := e.stopErr(from, tag); err != nil {
			return err
		}
		return stop(from, tag)
	})
}

func (e *faultEndpoint) Wake() { e.under.Wake() }

func (e *faultEndpoint) Stats() Stats {
	e.smu.Lock()
	defer e.smu.Unlock()
	return e.under.Stats()
}

func (e *faultEndpoint) Close() error { return e.under.Close() }
