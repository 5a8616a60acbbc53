// Package collective implements the group communication algorithms the
// paper studies, written against transport.Endpoint so they run unchanged
// over the in-process and TCP fabrics:
//
//   - RingAllreduce (dense & sparse): the classic two-phase ring of
//     Gibiansky/Baidu, the model used by ADMMLib.
//   - PSRAllreduce (sparse): the paper's contribution (§4.2) — the
//     parameter-server-inspired variant in which block j is *owned* by
//     group member j; Scatter-Reduce sends every block directly to its
//     owner in one step, Allgather broadcasts each owned block back.
//   - ShardAllreduce (sparse): PSR over block-sharded state — a member
//     exchanges only the blocks it subscribes to.
//   - Reduce / Broadcast (sparse): the intra-node fan-in/fan-out the WLG
//     hierarchy uses between workers and their Leader.
//
// Each schedule is written once, as a Workspace method. The owner-keyed
// schedules (PSR, shard, Reduce's root) take the aggregator — mean,
// trimmed mean, coordinate median — as their owner-side combine step.
//
// Every operation returns a Trace of the messages this rank *sent*
// (payload bytes and logical step), which the simnet cost model folds into
// cluster time. Payload bytes follow the paper's accounting: 12 bytes per
// sparse element (index+value), 8 per dense element.
package collective

import (
	"psrahgadmm/internal/transport"
	"psrahgadmm/internal/wire"
)

// Group is an ordered set of world ranks executing a collective together.
// Position in Ranks defines the member index used by block ownership and
// ring neighbourship. All members must call the collective with an equal
// Group (same order).
type Group struct {
	Ranks []int
}

// NewGroup builds a group over the given world ranks.
func NewGroup(ranks ...int) Group {
	return Group{Ranks: ranks}
}

// WorldGroup returns the group of all ranks 0..n-1.
func WorldGroup(n int) Group {
	ranks := make([]int, n)
	for i := range ranks {
		ranks[i] = i
	}
	return Group{Ranks: ranks}
}

// Size returns the number of members.
func (g Group) Size() int { return len(g.Ranks) }

// IndexOf returns the member index of world rank r, or -1.
func (g Group) IndexOf(r int) int {
	for i, gr := range g.Ranks {
		if gr == r {
			return i
		}
	}
	return -1
}

// Event records one message sent by the local rank during a collective.
// Events with equal Step are logically concurrent across the cluster;
// the cost model serializes same-source sends within a step through the
// sender's NIC.
type Event struct {
	Step     int
	From, To int
	Bytes    int
}

// Trace is the local rank's send log for one collective invocation.
type Trace struct {
	// Steps is the number of logical steps the collective occupies,
	// identical on every member regardless of how many events the local
	// rank contributed.
	Steps  int
	Events []Event
}

func (t *Trace) add(step, from, to, bytes int) {
	t.Events = append(t.Events, Event{Step: step, From: from, To: to, Bytes: bytes})
}

// TotalBytes sums the payload bytes of all local events.
func (t *Trace) TotalBytes() int {
	n := 0
	for _, e := range t.Events {
		n += e.Bytes
	}
	return n
}

// sendAsync performs the send on a separate goroutine so a rank can post
// its send and immediately turn around to receive, avoiding distributed
// deadlock on fabrics with bounded buffering (TCP).
func sendAsync(ep transport.Endpoint, to int, m wire.Message) chan error {
	ch := make(chan error, 1)
	go func() { ch <- ep.Send(to, m) }()
	return ch
}
