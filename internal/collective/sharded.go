package collective

import (
	"fmt"

	"psrahgadmm/internal/shard"
	"psrahgadmm/internal/sparse"
	"psrahgadmm/internal/transport"
	"psrahgadmm/internal/wire"
)

// ShardAllreduceSparse is the shard-aware form of PSRAllreduceSparse: the
// model is split into plan.Part.Blocks contiguous blocks, block b is owned
// by the member at group position b % p, and member i holds (and cares
// about) only the blocks in plan.Subs[i]. Each member sends every owner
// exactly one global-coordinate message carrying its contribution to the
// blocks they share, owners reduce per block in member order, and each
// member receives back only its subscribed blocks' totals:
//
//	Scatter:  i → j   carries v restricted to Subs[i] ∩ Owned[j]
//	Gather:   j → i   carries the reduced  Subs[i] ∩ Owned[j]
//
// A pair exchanges messages iff Subs[i] ∩ Owned[j] is statically non-empty
// — decided by the plan alone, never by values, so message counts are
// deterministic and a rank that happens to contribute zeros still
// participates. out receives the reduced vector restricted to Subs[me]
// (dimension plan.Part.Dim, coordinates global); entries of v outside
// Subs[me] are ignored. out must not alias v.
//
// Under full subscription with Blocks == p the schedule, payloads, traces,
// and float association reduce exactly to PSRAllreduceSparse — the sharded
// engine's bit-identity escape hatch. With Blocks > p each owner holds
// several blocks but still reduces each one independently in member order.
func (ws *Workspace) ShardAllreduceSparse(ep transport.Endpoint, g Group, tagBase int32, plan *shard.Plan, v, out *sparse.Vector) (Trace, error) {
	return ws.ShardAllreduceSparseAgg(ep, g, tagBase, plan, v, out, AggSpec{})
}

// ShardAllreduceSparseAgg is the shard schedule with the aggregator as
// each owned block's combine step, taken over the block's subscribers: the
// member-order sum for the mean, center × m_b for the robust kinds, where
// m_b is block b's subscriber count under the plan — a static property
// (b ∈ Subs[i]), never a function of who happened to send nonzeros — so
// the sharded z-update's divide-by-subscribers recovers the statistic
// exactly as the replicated path's divide-by-p does. Messages, tags and
// trace shape do not depend on spec.
func (ws *Workspace) ShardAllreduceSparseAgg(ep transport.Endpoint, g Group, tagBase int32, plan *shard.Plan, v, out *sparse.Vector, spec AggSpec) (Trace, error) {
	me, err := ws.validateGroup(ep, g)
	if err != nil {
		return Trace{}, err
	}
	p := g.Size()
	if plan.Members() != p {
		return Trace{}, fmt.Errorf("collective: shard plan has %d members, group %d", plan.Members(), p)
	}
	part := plan.Part
	if v.Dim != part.Dim {
		return Trace{}, fmt.Errorf("collective: shard input dim %d, want %d", v.Dim, part.Dim)
	}
	tr := Trace{Steps: 2, Events: ws.events[:0]}
	if p == 1 {
		out.ReuseFrom(v)
		return tr, nil
	}
	sync := transport.SendsNonBlocking(ep)
	ws.ensureSparse(p)
	owned := (part.Blocks + p - 1 - me) / p // |{b : b % p == me}|
	ws.ensureShard(p, owned)
	subsMe := plan.Subs[me]

	// Scatter-Reduce: one message per owner I share blocks with, carrying my
	// contribution to those blocks in global coordinates. ws.own[j] is the
	// outgoing buffer to owner j — once sent it is not rewritten until the
	// next call, by which point owner j has folded it (it cannot have sent
	// my gather reply, which this member consumed, before doing so).
	for j := 0; j < p; j++ {
		if j == me {
			continue
		}
		msg := ws.own[j]
		msg.Reset(part.Dim)
		send := false
		for _, b32 := range subsMe {
			b := int(b32)
			if plan.OwnerPos(b) != j {
				continue
			}
			send = true
			c := part.Chunk(b)
			from, to := v.Range(c.Lo, c.Hi)
			msg.Index = append(msg.Index, v.Index[from:to]...)
			msg.Value = append(msg.Value, v.Value[from:to]...)
		}
		if !send {
			continue
		}
		m := wire.SparseMsg(tagBase, msg)
		tr.add(0, ep.Rank(), g.Ranks[j], wire.PayloadBytes(m))
		if err := ws.send(ep, sync, g.Ranks[j], m); err != nil {
			return tr, err
		}
	}

	// Expected scatter arrivals: members whose subscription reaches a block
	// I own — a static property of the plan.
	arrivals := ws.arrS
	expect := 0
	for i := range ws.allow {
		ws.allow[i] = i != me && planPairs(plan, i, me)
		if ws.allow[i] {
			expect++
		}
	}
	if err := ws.recvPhase(ep, "shard scatter", tagBase, expect, me, part.Dim, ws.allow, arrivals); err != nil {
		return tr, err
	}
	if err := ws.drainSends(); err != nil {
		return tr, err
	}

	// Combine each owned block independently over its subscribers, in
	// member order (me contributes from v at position me), so the mean's
	// float association matches PSRAllreduceSparse's per-chunk reduction bit
	// for bit. A member's entries outside its subscription are ignored, mine
	// included. The cursors advance monotonically with b (owned blocks
	// ascend), giving each member's "subscribed to b?" test amortized O(1).
	// ws.offsets and ws.cur are the PSR/ring assembly scratch, p-wide and
	// idle in this schedule.
	cursors := ws.offsets
	for i := range cursors {
		cursors[i] = 0
	}
	contrib := ws.cur
	for bi := 0; bi < owned; bi++ {
		b := me + bi*p
		c := part.Chunk(b)
		for i := 0; i < p; i++ {
			subs := plan.Subs[i]
			for cursors[i] < len(subs) && int(subs[cursors[i]]) < b {
				cursors[i]++
			}
			contrib[i] = nil
			if cursors[i] < len(subs) && int(subs[cursors[i]]) == b {
				contrib[i] = arrivals[i]
				if i == me {
					contrib[i] = v
				}
			}
		}
		ws.shRed[bi] = ws.combine(spec, c.Lo, c.Len(), contrib, ws.shRed[bi])
	}

	// Allgather: send each subscriber of my blocks its reduced slices, again
	// one global-coordinate message per pair. ws.shOut[i] is the outgoing
	// buffer to member i, distinct from the scatter buffers so neither phase
	// rewrites a payload the other may still alias on zero-copy fabrics.
	for i := 0; i < p; i++ {
		if i == me || !planPairs(plan, i, me) {
			continue
		}
		msg := ws.shOut[i]
		msg.Reset(part.Dim)
		for _, b32 := range plan.Subs[i] {
			b := int(b32)
			if plan.OwnerPos(b) != me {
				continue
			}
			c := part.Chunk(b)
			red := ws.shRed[(b-me)/p]
			for k, idx := range red.Index {
				msg.Index = append(msg.Index, idx+int32(c.Lo))
				msg.Value = append(msg.Value, red.Value[k])
			}
		}
		m := wire.SparseMsg(tagBase+1, msg)
		tr.add(1, ep.Rank(), g.Ranks[i], wire.PayloadBytes(m))
		if err := ws.send(ep, sync, g.Ranks[i], m); err != nil {
			return tr, err
		}
	}
	gathered := ws.shArr
	expect = 0
	for j := range ws.allow {
		ws.allow[j] = j != me && planPairs(plan, me, j)
		if ws.allow[j] {
			expect++
		}
	}
	if err := ws.recvPhase(ep, "shard gather", tagBase+1, expect, me, part.Dim, ws.allow, gathered); err != nil {
		return tr, err
	}
	if err := ws.drainSends(); err != nil {
		return tr, err
	}

	// Assemble my subscribed blocks in ascending block order: owned blocks
	// from my own reductions, the rest sliced out of the owners' replies.
	out.Reset(part.Dim)
	for _, b32 := range subsMe {
		b := int(b32)
		c := part.Chunk(b)
		if j := plan.OwnerPos(b); j == me {
			red := ws.shRed[(b-me)/p]
			for k, idx := range red.Index {
				out.Index = append(out.Index, idx+int32(c.Lo))
				out.Value = append(out.Value, red.Value[k])
			}
		} else {
			src := gathered[j]
			from, to := src.Range(c.Lo, c.Hi)
			out.Index = append(out.Index, src.Index[from:to]...)
			out.Value = append(out.Value, src.Value[from:to]...)
		}
	}
	ws.events = tr.Events
	return tr, nil
}

// planPairs reports whether member i's subscription reaches any block
// owned by member j — the static condition under which the pair exchanges
// a scatter (i→j) and a gather (j→i) message.
func planPairs(plan *shard.Plan, i, j int) bool {
	for _, b := range plan.Subs[i] {
		if plan.OwnerPos(int(b)) == j {
			return true
		}
	}
	return false
}

// ensureShard sizes the sharded-collective scratch: gather arrivals,
// per-destination outgoing buffers and the receive phases' allowed
// senders (p-wide) plus one reduced-block slot per owned block.
func (ws *Workspace) ensureShard(p, owned int) {
	if cap(ws.shOut) < p {
		out := make([]*sparse.Vector, p)
		copy(out, ws.shOut)
		ws.shOut = out
		ws.shArr = make([]*sparse.Vector, p)
		ws.allow = make([]bool, p)
	}
	ws.shOut = ws.shOut[:p]
	ws.shArr = ws.shArr[:p]
	ws.allow = ws.allow[:p]
	for i := range ws.shOut {
		if ws.shOut[i] == nil {
			ws.shOut[i] = new(sparse.Vector)
		}
		ws.shArr[i] = nil
	}
	if cap(ws.shRed) < owned {
		red := make([]*sparse.Vector, owned)
		copy(red, ws.shRed)
		ws.shRed = red
	}
	ws.shRed = ws.shRed[:owned]
}
