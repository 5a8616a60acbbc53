// Package membership turns transport-level failure evidence — typed
// PeerDownErrors from crashed connections, missed heartbeats, fault-plan
// kills — into a monotonic, epoch-stamped view of which ranks are alive.
//
// The in-process engine (core.Run) and the message-passing runtime
// (wlg.Run) share this layer: both feed it the errors their communication
// produces and read back the surviving world. Two invariants keep the view
// sane without any consensus protocol of its own:
//
//   - Death is monotone per incarnation. Every life of a rank carries an
//     incarnation number; marking rank i down kills its current
//     incarnation, and that incarnation never comes back — observers' dead
//     sets for incarnation k only grow, so all views still converge to the
//     union of the evidence. Rejoin is a *new* incarnation: MarkUp (or
//     MarkUpAt, when the number is assigned elsewhere) revives the rank
//     with incarnation k+1 and bumps the epoch, exactly the transition the
//     epoch number was reserved for.
//   - Evidence is ground truth. Ranks are only marked down from transport
//     facts (a PeerDownError, a fault-plan kill), never from timeouts
//     alone — a slow peer stays a member. The bounded-retry helpers in
//     package collective enforce the same rule: a retry budget expiring
//     against a live peer yields staleness, not an execution.
//
// Leader re-election follows from the view deterministically: the leader
// of any rank set is its first live member, so every observer that has
// seen the same evidence elects the same leader with no extra messages.
package membership

import (
	"errors"
	"fmt"
	"sync"

	"psrahgadmm/internal/transport"
)

// Tracker maintains the epoch-stamped live set for one world. It is safe
// for concurrent use: in the engine many collective goroutines observe
// errors at once; in the WLG runtime every rank's goroutine shares one
// tracker per process.
type Tracker struct {
	mu     sync.Mutex
	world  int
	epoch  int
	dead   []bool
	inc    []int // incarnation of the rank's current (or last) life
	causes []error
	// quar marks ranks excluded for SEMANTIC faults: the process is up and
	// its transport works, but its contributions are suspect. A quarantined
	// rank is not Alive — it leaves every live filter, divisor, and
	// subscriber count — yet it is not dead either: no transport evidence
	// exists, its endpoint keeps working, and it may be readmitted without
	// a new incarnation (Unquarantine) or by one (markUpLocked clears the
	// flag, so the incarnation-based rejoin path covers it too).
	quar   []bool
	live   int
	onDown func(rank int, cause error)
	onUp   func(rank, incarnation int)
}

// NewTracker returns a tracker for ranks 0..world-1, all alive, epoch 0,
// every rank at incarnation 0 (its original life).
func NewTracker(world int) *Tracker {
	if world <= 0 {
		panic("membership: world must be positive")
	}
	return &Tracker{
		world:  world,
		dead:   make([]bool, world),
		inc:    make([]int, world),
		causes: make([]error, world),
		quar:   make([]bool, world),
		live:   world,
	}
}

// OnDown registers a hook invoked (outside the tracker lock) each time a
// rank is newly marked down — the metrics layer's event counter feed.
func (t *Tracker) OnDown(fn func(rank int, cause error)) {
	t.mu.Lock()
	t.onDown = fn
	t.mu.Unlock()
}

// OnUp registers a hook invoked (outside the tracker lock) each time a
// rank rejoins as a new incarnation.
func (t *Tracker) OnUp(fn func(rank, incarnation int)) {
	t.mu.Lock()
	t.onUp = fn
	t.mu.Unlock()
}

// MarkDown records rank as dead with the given cause and bumps the epoch.
// Idempotent: re-reporting a known death changes nothing. Returns whether
// the rank was newly marked.
func (t *Tracker) MarkDown(rank int, cause error) bool {
	if rank < 0 || rank >= t.world {
		return false
	}
	t.mu.Lock()
	if t.dead[rank] {
		t.mu.Unlock()
		return false
	}
	// A quarantined rank already left the live count; dying while
	// quarantined must not decrement it twice.
	if !t.quar[rank] {
		t.live--
	}
	t.dead[rank] = true
	t.causes[rank] = cause
	t.epoch++
	hook := t.onDown
	t.mu.Unlock()
	if hook != nil {
		hook(rank, cause)
	}
	return true
}

// MarkUp revives a dead rank as its next incarnation and bumps the epoch.
// Only a dead rank can rejoin this way — a live rank's incarnation never
// changes under it. Returns whether the rank was revived; the new
// incarnation is readable via Incarnation.
func (t *Tracker) MarkUp(rank int) bool {
	if rank < 0 || rank >= t.world {
		return false
	}
	t.mu.Lock()
	if !t.dead[rank] {
		t.mu.Unlock()
		return false
	}
	inc := t.inc[rank] + 1
	hook := t.markUpLocked(rank, inc)
	t.mu.Unlock()
	if hook != nil {
		hook(rank, inc)
	}
	return true
}

// MarkUpAt applies a rejoin whose incarnation number was assigned by an
// authoritative observer (the GG, a checkpoint): the rank is revived and
// its incarnation set to inc. Idempotent: an incarnation at or below the
// local one changes nothing, so a duplicated or re-forwarded rejoin
// announcement is harmless. A rank that is still locally "alive" but
// carries a newer incarnation died and rejoined without this observer
// noticing either transition; the incarnation is adopted and the epoch
// bumped once.
func (t *Tracker) MarkUpAt(rank, inc int) bool {
	if rank < 0 || rank >= t.world || inc <= 0 {
		return false
	}
	t.mu.Lock()
	if inc <= t.inc[rank] {
		t.mu.Unlock()
		return false
	}
	hook := t.markUpLocked(rank, inc)
	t.mu.Unlock()
	if hook != nil {
		hook(rank, inc)
	}
	return true
}

// markUpLocked performs the revive transition under t.mu and returns the
// OnUp hook to fire after unlock (nil if none registered). A new
// incarnation starts with a clean slate: a quarantine against the old life
// does not survive into the new one.
func (t *Tracker) markUpLocked(rank, inc int) func(rank, incarnation int) {
	wasCounted := !t.dead[rank] && !t.quar[rank]
	t.inc[rank] = inc
	t.dead[rank] = false
	t.causes[rank] = nil
	t.quar[rank] = false
	if !wasCounted {
		t.live++
	}
	t.epoch++
	return t.onUp
}

// Quarantine excludes a live rank for a semantic fault: it leaves the live
// set (Alive, LiveCount, View, Live, FirstLive all drop it) and the epoch
// bumps, but the rank is not dead — no incarnation change, no transport
// teardown. Idempotent; a dead rank cannot be quarantined. Returns whether
// the rank was newly quarantined.
func (t *Tracker) Quarantine(rank int) bool {
	if rank < 0 || rank >= t.world {
		return false
	}
	t.mu.Lock()
	if t.dead[rank] || t.quar[rank] {
		t.mu.Unlock()
		return false
	}
	t.quar[rank] = true
	t.live--
	t.epoch++
	t.mu.Unlock()
	return true
}

// Unquarantine readmits a quarantined rank without minting a new
// incarnation — the probation path, for a rank whose clean probes earned
// its way back. Returns whether the rank was readmitted.
func (t *Tracker) Unquarantine(rank int) bool {
	if rank < 0 || rank >= t.world {
		return false
	}
	t.mu.Lock()
	if t.dead[rank] || !t.quar[rank] {
		t.mu.Unlock()
		return false
	}
	t.quar[rank] = false
	t.live++
	t.epoch++
	t.mu.Unlock()
	return true
}

// Quarantined reports whether rank is currently quarantined.
func (t *Tracker) Quarantined(rank int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return rank >= 0 && rank < t.world && t.quar[rank]
}

// QuarantinedCount returns how many ranks are currently quarantined.
func (t *Tracker) QuarantinedCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for r := 0; r < t.world; r++ {
		if t.quar[r] {
			n++
		}
	}
	return n
}

// Incarnation returns the incarnation number of the rank's current (or,
// when dead, last) life: 0 for the original process, k for its k-th rejoin.
func (t *Tracker) Incarnation(rank int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if rank < 0 || rank >= t.world {
		return -1
	}
	return t.inc[rank]
}

// Observe extracts a *transport.PeerDownError from err and marks the peer
// down. It returns the peer rank and whether err carried one.
func (t *Tracker) Observe(err error) (int, bool) {
	var pd *transport.PeerDownError
	if !errors.As(err, &pd) {
		return -1, false
	}
	t.MarkDown(pd.Peer, pd)
	return pd.Peer, true
}

// Alive reports whether rank is still a member: neither dead nor
// quarantined.
func (t *Tracker) Alive(rank int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return rank >= 0 && rank < t.world && !t.dead[rank] && !t.quar[rank]
}

// Epoch returns the current membership epoch: the number of membership
// transitions (deaths and rejoins) observed so far. Every degraded-mode
// decision is stamped with it.
func (t *Tracker) Epoch() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.epoch
}

// LiveCount returns how many ranks remain alive.
func (t *Tracker) LiveCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.live
}

// Live filters ranks down to its live members, preserving order.
func (t *Tracker) Live(ranks []int) []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]int, 0, len(ranks))
	for _, r := range ranks {
		if r >= 0 && r < t.world && !t.dead[r] && !t.quar[r] {
			out = append(out, r)
		}
	}
	return out
}

// FirstLive returns the first live rank of the ordered set — the
// deterministic leader-election rule — or -1 when every member is dead.
func (t *Tracker) FirstLive(ranks []int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range ranks {
		if r >= 0 && r < t.world && !t.dead[r] && !t.quar[r] {
			return r
		}
	}
	return -1
}

// Dead returns the dead ranks in ascending order (checkpoint capture).
func (t *Tracker) Dead() []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]int, 0, t.world-t.live)
	for r := 0; r < t.world; r++ {
		if t.dead[r] {
			out = append(out, r)
		}
	}
	return out
}

// Cause returns the recorded cause of a rank's death, nil while alive.
func (t *Tracker) Cause(rank int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if rank < 0 || rank >= t.world {
		return nil
	}
	return t.causes[rank]
}

// Restore resets the tracker to a checkpointed state: the given epoch and
// dead set. Used on resume so a restarted run agrees with the snapshot's
// view of the world. The OnDown hook fires for every restored death.
func (t *Tracker) Restore(epoch int, dead []int) error {
	for _, r := range dead {
		if r < 0 || r >= t.world {
			return fmt.Errorf("membership: restore: rank %d out of world %d", r, t.world)
		}
	}
	cause := errors.New("membership: dead at checkpoint")
	t.mu.Lock()
	hook := t.onDown
	t.dead = make([]bool, t.world)
	t.inc = make([]int, t.world)
	t.causes = make([]error, t.world)
	t.quar = make([]bool, t.world)
	t.live = t.world
	for _, r := range dead {
		if !t.dead[r] {
			t.dead[r] = true
			t.causes[r] = cause
			t.live--
		}
	}
	t.epoch = epoch
	t.mu.Unlock()
	if hook != nil {
		for _, r := range dead {
			hook(r, cause)
		}
	}
	return nil
}
