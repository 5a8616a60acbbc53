package metrics

import "sync/atomic"

// Degraded-mode observability: the engine and the WLG runtime expose the
// membership layer's state through these primitives — a live-worker gauge,
// a membership-epoch gauge, and a per-rank PeerDown event counter — and
// surface the same numbers in every IterStat so a history records exactly
// when the world shrank.

// Gauge is a settable instantaneous value, safe for concurrent use.
type Gauge struct{ v atomic.Int64 }

// Set stores the gauge's current value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Get returns the gauge's current value.
func (g *Gauge) Get() int64 { return g.v.Load() }

// Counter is a monotonically increasing event count.
type Counter struct{ v atomic.Int64 }

// Inc adds one event.
func (c *Counter) Inc() { c.v.Add(1) }

// Get returns the total.
func (c *Counter) Get() int64 { return c.v.Load() }

// Health aggregates one world's degraded-mode metrics.
type Health struct {
	// LiveWorkers is the current live rank count.
	LiveWorkers Gauge
	// Epoch is the current membership epoch (deaths observed).
	Epoch Gauge
	// ResidentBytes is the per-rank consensus-state footprint (max over
	// live ranks) — the number the block-sharded engine exists to shrink.
	ResidentBytes Gauge
	// WatchdogTrips counts divergence detections (NaN/Inf iterates,
	// residual or objective explosions). Each trip either rolled back to a
	// checkpoint (Rollbacks increments too) or aborted the run.
	WatchdogTrips Counter
	// Rollbacks counts checkpoint auto-rollbacks performed after watchdog
	// trips.
	Rollbacks Counter
	// CorruptRounds counts consensus rounds retried because a wire frame
	// failed its integrity check mid-collective.
	CorruptRounds Counter
	peerDowns     []Counter
}

// NewHealth returns a Health for ranks 0..world-1 with LiveWorkers
// initialized to the full world.
func NewHealth(world int) *Health {
	h := &Health{peerDowns: make([]Counter, world)}
	h.LiveWorkers.Set(int64(world))
	return h
}

// ObserveDown records one PeerDown event for rank — wired to
// membership.Tracker.OnDown.
func (h *Health) ObserveDown(rank int) {
	if rank >= 0 && rank < len(h.peerDowns) {
		h.peerDowns[rank].Inc()
	}
}

// TotalPeerDowns sums the per-rank counters.
func (h *Health) TotalPeerDowns() int64 {
	var n int64
	for i := range h.peerDowns {
		n += h.peerDowns[i].Get()
	}
	return n
}
