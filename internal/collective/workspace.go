package collective

import (
	"fmt"

	"psrahgadmm/internal/sparse"
	"psrahgadmm/internal/transport"
	"psrahgadmm/internal/vec"
	"psrahgadmm/internal/wire"
)

// Workspace holds every piece of per-call scratch a collective needs —
// chunk tables, block buffers, arrival slots, the reduce accumulator, and
// the trace event log — so a long-lived caller (one engine member, one
// WLG worker) re-runs collectives with zero steady-state heap allocation.
// Buffers are sized on first use and grown on demand, so a workspace
// needs no explicit invalidation when the group or dimension changes
// (elastic regroup simply re-sizes on the next call).
//
// A Workspace serves ONE goroutine: concurrent collectives need one
// workspace per member. The returned Trace's Events alias ws storage and
// are valid until the workspace's next call; callers that keep a trace
// must copy it.
//
// A member that reads no allreduce result passes out == nil to the ring or
// PSR schedule: it still sends, receives and checks every message and logs
// the same trace, and skips only the final concatenation. PSR's root goes
// further: a member other than root receives no allgather at all.
//
// When the endpoint advertises transport.NonBlockingSender, sends happen
// inline instead of via the usual goroutine-per-send (the async form
// exists only to avoid distributed deadlock on fabrics with bounded
// buffering, such as TCP). On zero-copy fabrics delivered payloads alias
// sender workspaces; that is safe here because every schedule below has
// the property that a buffer, once sent, is not rewritten until the whole
// collective completes on all members — see DESIGN.md "Memory model &
// buffer ownership" for the per-schedule argument. When the endpoint is a
// transport.Releaser (TCP), the reduce, broadcast, ring and PSR calls hand
// each received block back to its decode pool once they have copied out of
// it.
type Workspace struct {
	// pos is the world-sized member table of the group the current call
	// validated: pos[r] names rank r's member index when its gen is this
	// call's (see memberIndex). Generation-stamped, so nothing is cleared.
	pos     []memberPos
	gen     uint64
	chunks  []vec.Chunk
	offsets []int
	events  []Event
	errcs   []chan error // async-send fallback

	// Sparse block state. own[j] are buffers this workspace owns and
	// rewrites each call; cur[j] are the working pointers, which may come
	// to alias received payloads on zero-copy fabrics. spare double-buffers
	// ring merges; myBlock holds the accumulator extraction.
	own     []*sparse.Vector
	cur     []*sparse.Vector
	arrS    []*sparse.Vector
	acc     sparse.Accumulator
	myBlock *sparse.Vector
	spare   *sparse.Vector

	// Sharded-collective scratch (ShardAllreduceSparse): reduced owned
	// blocks, gather-phase per-destination outgoing buffers, and gather
	// arrival slots. Kept apart from own/cur/arrS so neither phase rewrites
	// a payload the other may still alias on zero-copy fabrics. allow[i]
	// marks the members a shard receive phase expects a frame from.
	shRed []*sparse.Vector
	shOut []*sparse.Vector
	shArr []*sparse.Vector
	allow []bool

	// Robust-combine scratch (robust.go): the coordinate × contributor
	// matrix behind the trimmed-mean/median form of the combine step.
	rb robustScratch
}

// validateGroup checks that g is a non-empty, duplicate-free set of world
// ranks containing the local one, and returns the local member index.
// Every collective enters through here, so it also discards async-send
// error channels left over from a previous call that aborted mid-protocol:
// their errors belong to the aborted round, and the buffered channels let
// orphaned send goroutines finish without a receiver.
func (ws *Workspace) validateGroup(ep transport.Endpoint, g Group) (int, error) {
	for i := range ws.errcs {
		ws.errcs[i] = nil
	}
	ws.errcs = ws.errcs[:0]
	if g.Size() == 0 {
		return 0, fmt.Errorf("collective: empty group")
	}
	me := g.IndexOf(ep.Rank())
	if me < 0 {
		return 0, fmt.Errorf("collective: rank %d not in group %v", ep.Rank(), g.Ranks)
	}
	n := ep.Size()
	if len(ws.pos) < n {
		ws.pos = make([]memberPos, n)
	}
	ws.gen++
	for i, r := range g.Ranks {
		if r < 0 || r >= n {
			return 0, fmt.Errorf("collective: group rank %d out of world [0,%d)", r, n)
		}
		if ws.pos[r].gen == ws.gen {
			return 0, fmt.Errorf("collective: duplicate rank %d in group", r)
		}
		ws.pos[r] = memberPos{gen: ws.gen, idx: i}
	}
	return me, nil
}

// memberPos is one entry of Workspace.pos.
type memberPos struct {
	gen uint64
	idx int
}

// memberIndex is Group.IndexOf for the group the current call validated,
// in O(1): the member index of the world rank a message claims to come
// from, or -1 for a non-member or an out-of-world rank.
func (ws *Workspace) memberIndex(from int32) int {
	if from < 0 || int(from) >= len(ws.pos) || ws.pos[from].gen != ws.gen {
		return -1
	}
	return ws.pos[from].idx
}

// recvPhase receives the n any-source frames of one phase on tag into
// slots, indexed by member: the one place a collective admits a received
// frame. It refuses a frame from a non-member, from me, or from a member
// allow marks false (nil allows every other member); a second frame from
// one member; and a frame whose payload SparsePayload refuses. Every frame
// must carry dimension dim, or the sending member's chunk of ws.chunks
// when dim < 0. phase names the phase in the errors. Slots of the members
// the phase expects must be nil on entry.
//
// On a transport.Expecter each Recv is told the n−k frames still needed,
// so a parked member wakes once per phase rather than per arrival; the
// count is cleared on every return.
func (ws *Workspace) recvPhase(ep transport.Endpoint, phase string, tag int32, n, me, dim int, allow []bool, slots []*sparse.Vector) error {
	x, _ := ep.(transport.Expecter)
	if x != nil {
		defer x.Expect(0)
	}
	for k := 0; k < n; k++ {
		if x != nil {
			x.Expect(n - k)
		}
		in, err := ep.Recv(transport.AnySource, tag)
		if err != nil {
			return err
		}
		src := ws.memberIndex(in.From)
		if src < 0 || src == me || allow != nil && !allow[src] {
			return fmt.Errorf("collective: %s unexpected sender %d", phase, in.From)
		}
		if slots[src] != nil {
			return fmt.Errorf("collective: %s duplicate sender %d", phase, in.From)
		}
		want := dim
		if want < 0 {
			want = ws.chunks[src].Len()
		}
		if slots[src], err = SparsePayload(&in, want); err != nil {
			return err
		}
	}
	return nil
}

// ensureSparse sizes the sparse block/arrival state for a p-member group.
func (ws *Workspace) ensureSparse(p int) {
	if cap(ws.own) < p {
		own := make([]*sparse.Vector, p)
		copy(own, ws.own)
		ws.own = own
		ws.cur = make([]*sparse.Vector, p)
		ws.arrS = make([]*sparse.Vector, p)
		ws.offsets = make([]int, p)
	}
	ws.own = ws.own[:p]
	ws.cur = ws.cur[:p]
	ws.arrS = ws.arrS[:p]
	ws.offsets = ws.offsets[:p]
	for j := range ws.own {
		if ws.own[j] == nil {
			ws.own[j] = new(sparse.Vector)
		}
		ws.cur[j] = nil
		ws.arrS[j] = nil
	}
	if ws.spare == nil {
		ws.spare = new(sparse.Vector)
	}
	if ws.myBlock == nil {
		ws.myBlock = new(sparse.Vector)
	}
}

// send delivers msg inline when the endpoint's sends cannot deadlock,
// otherwise through the usual async goroutine (error collected later via
// ws.errcs).
func (ws *Workspace) send(ep transport.Endpoint, sync bool, to int, m wire.Message) error {
	if sync {
		return ep.Send(to, m)
	}
	ws.errcs = append(ws.errcs, sendAsync(ep, to, m))
	return nil
}

// release hands sv, which arrived over the call's endpoint from world rank
// from, back to the endpoint's decode pool once the call has copied out of
// it. The reduce root, the broadcast receiver and the ring and PSR
// schedules call it for slots that hold received blocks — never for
// ws-owned or caller storage. A call that fails first leaves what it
// received to the collector, and the shard schedule never releases: its
// result aliases what it received.
func release(rel transport.Releaser, from int, sv *sparse.Vector) {
	if rel != nil {
		rel.Release(wire.Message{Kind: wire.KindSparse, From: int32(from), Sparse: sv})
	}
}

// AbandonSends waits out async sends left behind by a collective that
// returned early on error, discarding their outcomes. A retry of the
// round reuses the workspace's buffers, and the orphaned goroutines
// still read them (the transport counts encoded bytes as it delivers) —
// so the caller must first make sure they can finish (the engine's abort
// latch refuses no send; a closed fabric fails them), then AbandonSends
// before reusing the workspace.
func (ws *Workspace) AbandonSends() {
	for i, c := range ws.errcs {
		<-c
		ws.errcs[i] = nil
	}
	ws.errcs = ws.errcs[:0]
}

// drainSends collects the async-send errors, if any.
func (ws *Workspace) drainSends() error {
	var first error
	for i, c := range ws.errcs {
		if err := <-c; err != nil && first == nil {
			first = err
		}
		ws.errcs[i] = nil
	}
	ws.errcs = ws.errcs[:0]
	return first
}

// RingAllreduceSparse sums the members' sparse vectors (all of dimension
// v.Dim) with the ring schedule, transmitting only nonzeros; the global sum
// is written into out (which must not alias v; nil skips the assembly).
// Per-step message sizes depend on where the nonzeros sit — which is
// exactly the sensitivity the paper analyzes in eqs. (11)–(13): a block
// that accumulates all the nonzeros grows linearly as it travels the ring.
func (ws *Workspace) RingAllreduceSparse(ep transport.Endpoint, g Group, tagBase int32, v, out *sparse.Vector) (Trace, error) {
	me, err := ws.validateGroup(ep, g)
	if err != nil {
		return Trace{}, err
	}
	p := g.Size()
	tr := Trace{Steps: 2 * (p - 1), Events: ws.events[:0]}
	if p == 1 {
		if out != nil {
			out.ReuseFrom(v)
		}
		return tr, nil
	}
	sync := transport.SendsNonBlocking(ep)
	rel, _ := ep.(transport.Releaser)
	ws.ensureSparse(p)
	ws.chunks = vec.SplitInto(ws.chunks, v.Dim, p)
	next := g.Ranks[(me+1)%p]
	prev := g.Ranks[(me-1+p)%p]

	ws.cut(v)
	blocks := ws.cur
	copy(blocks, ws.own)

	for s := 0; s < p-1; s++ {
		sendIdx := (me - s + p*p) % p
		recvIdx := (me - s - 1 + p*p) % p
		msg := wire.SparseMsg(tagBase, blocks[sendIdx])
		bytes := wire.PayloadBytes(msg)
		if err := ws.send(ep, sync, next, msg); err != nil {
			return tr, err
		}
		in, err := ep.Recv(prev, tagBase)
		if err != nil {
			return tr, err
		}
		if err := ws.drainSends(); err != nil {
			return tr, err
		}
		tr.add(s, ep.Rank(), next, bytes)
		sv, err := SparsePayload(&in, blocks[recvIdx].Dim)
		if err != nil {
			return tr, err
		}
		merged := sparse.MergeInto(ws.spare, blocks[recvIdx], sv)
		// The displaced buffer was never sent (a block is merged one step
		// before it is forwarded), so it can safely become the next spare.
		// Swap the ownership slot too, keeping {own[·]} ∪ {spare} a set of
		// p+1 distinct buffers across calls.
		ws.own[recvIdx], ws.spare = merged, ws.own[recvIdx]
		blocks[recvIdx] = merged
		release(rel, prev, sv)
	}

	for s := 0; s < p-1; s++ {
		sendIdx := (me + 1 - s + p*p) % p
		recvIdx := (me - s + p*p) % p
		msg := wire.SparseMsg(tagBase+1, blocks[sendIdx])
		bytes := wire.PayloadBytes(msg)
		if err := ws.send(ep, sync, next, msg); err != nil {
			return tr, err
		}
		in, err := ep.Recv(prev, tagBase+1)
		if err != nil {
			return tr, err
		}
		if err := ws.drainSends(); err != nil {
			return tr, err
		}
		tr.add(p-1+s, ep.Rank(), next, bytes)
		sv, err := SparsePayload(&in, blocks[recvIdx].Dim)
		if err != nil {
			return tr, err
		}
		blocks[recvIdx] = sv
	}

	ws.events = tr.Events
	ws.concat(out, v.Dim, blocks)
	// Every block but the one this member finished in the reduce-scatter
	// (own storage) arrived in the allgather, and the last send of any of
	// them has been drained.
	for j, b := range blocks {
		if j != (me+1)%p {
			release(rel, prev, b)
		}
	}
	return tr, nil
}

// concat stitches the chunk-ordered blocks into out, unless out is nil.
func (ws *Workspace) concat(out *sparse.Vector, dim int, blocks []*sparse.Vector) {
	if out == nil {
		return
	}
	for j, c := range ws.chunks {
		ws.offsets[j] = c.Lo
	}
	sparse.ConcatInto(out, dim, ws.offsets, blocks)
}

// PSRAllreduceSparse sums the members' sparse vectors with the paper's
// PSR-Allreduce schedule, writing the global sum into out (which must not
// alias v; nil skips the assembly): block j goes straight to owner j (one
// Scatter-Reduce step), then each owner sends its finished block to every
// other member (one Allgather step). Sparse cost is bounded by c·θ in the
// scatter step and c·θ·(N−1) in the gather step (paper eqs. 14–15),
// independent of where the nonzeros concentrate — the robustness property
// PSRA-HGADMM is built on.
func (ws *Workspace) PSRAllreduceSparse(ep transport.Endpoint, g Group, tagBase int32, v, out *sparse.Vector) (Trace, error) {
	return ws.PSRAllreduceSparseAgg(ep, g, tagBase, v, out, AggSpec{}, -1)
}

// PSRAllreduceSparseAgg is the PSR-Allreduce schedule with the aggregator
// as the owner-side combine step: every contribution to a block meets at
// its owner, which writes the member-order sum (mean) or center × p
// (robust kinds) — either way what the caller's divide-by-p turns into the
// statistic. Messages, tags and trace shape do not depend on spec.
//
// root names the one member that reads the result, or is −1 when every
// member does. With root ≥ 0 each owner sends its finished block to root
// alone, and every other member returns after its scatter-reduce and its
// one gather send, so only root's out is written. The trace is the same
// under either root: it logs the allgather to every member, the traffic
// the modelled cluster pays, including the frames the fabric did not carry.
func (ws *Workspace) PSRAllreduceSparseAgg(ep transport.Endpoint, g Group, tagBase int32, v, out *sparse.Vector, spec AggSpec, root int) (Trace, error) {
	me, err := ws.validateGroup(ep, g)
	if err != nil {
		return Trace{}, err
	}
	p := g.Size()
	if root < -1 || root >= p {
		return Trace{}, fmt.Errorf("collective: root index %d out of group", root)
	}
	tr := Trace{Steps: 2, Events: ws.events[:0]}
	if p == 1 {
		// The sum, and center × 1, of a single contribution is the
		// contribution.
		if out != nil {
			out.ReuseFrom(v)
		}
		return tr, nil
	}
	self := ep.Rank()
	sync := transport.SendsNonBlocking(ep)
	rel, _ := ep.(transport.Releaser)
	ws.ensureSparse(p)
	ws.chunks = vec.SplitInto(ws.chunks, v.Dim, p)
	mine := ws.chunks[me]

	// Scatter-Reduce: send block j to its owner, combine arrivals into my
	// own block.
	ws.cut(v)
	for j, blk := range ws.own {
		if j == me {
			continue
		}
		tr.add(0, self, g.Ranks[j], payloadBytes(blk))
		if err := ws.send(ep, sync, g.Ranks[j], wire.SparseMsg(tagBase, blk)); err != nil {
			return tr, err
		}
	}
	// Collect contributions first, then combine in member order so float
	// association is independent of arrival order (bit-reproducibility).
	arrivals := ws.arrS
	if err := ws.recvPhase(ep, "psr sparse scatter", tagBase, p-1, me, mine.Len(), nil, arrivals); err != nil {
		return tr, err
	}
	arrivals[me] = ws.own[me]
	myBlock := ws.combine(spec, 0, mine.Hi-mine.Lo, arrivals, ws.myBlock)
	ws.myBlock = myBlock
	for j, sv := range arrivals {
		if j != me {
			release(rel, g.Ranks[j], sv)
		}
	}
	if err := ws.drainSends(); err != nil {
		return tr, err
	}

	// Allgather: broadcast my finished block (to root alone under a root),
	// collect the rest.
	msg := wire.SparseMsg(tagBase+1, myBlock)
	bytes := payloadBytes(myBlock)
	for j := 0; j < p; j++ {
		if j == me {
			continue
		}
		tr.add(1, self, g.Ranks[j], bytes)
		if root >= 0 && j != root {
			continue
		}
		if err := ws.send(ep, sync, g.Ranks[j], msg); err != nil {
			return tr, err
		}
	}
	if root >= 0 && me != root {
		if err := ws.drainSends(); err != nil {
			return tr, err
		}
		ws.events = tr.Events
		return tr, nil
	}
	blocks := ws.cur
	blocks[me] = myBlock
	if err := ws.recvPhase(ep, "psr sparse gather", tagBase+1, p-1, me, -1, nil, blocks); err != nil {
		return tr, err
	}
	if err := ws.drainSends(); err != nil {
		return tr, err
	}
	ws.events = tr.Events
	ws.concat(out, v.Dim, blocks)
	for j, sv := range blocks {
		if j != me {
			release(rel, g.Ranks[j], sv)
		}
	}
	return tr, nil
}

// cut splits v into its chunk-aligned blocks ws.own[0..p−1] in one pass
// over its entries, each block's indices rebased to its chunk's start: the
// blocks v.SliceInto would cut, without two searches per block.
func (ws *Workspace) cut(v *sparse.Vector) {
	k := 0
	for j, c := range ws.chunks {
		blk := ws.own[j]
		blk.Reset(c.Hi - c.Lo)
		from, lo := k, int32(c.Lo)
		for ; k < len(v.Index) && int(v.Index[k]) < c.Hi; k++ {
			blk.Index = append(blk.Index, v.Index[k]-lo)
		}
		blk.Value = append(blk.Value, v.Value[from:k]...)
	}
}

// payloadBytes is wire.PayloadBytes of a sparse message carrying sv, read
// off the block instead of a copy of the message.
func payloadBytes(sv *sparse.Vector) int { return 8 + wire.SparseEntryBytes*sv.NNZ() }

// ReduceSparse sums every member's vector at the root member: the root's
// sum is written into out (which must not alias v); non-root members
// leave out untouched. Contributions are accumulated in member
// order regardless of arrival order, so overlapping supports sum
// bit-identically on every run — the property the WLG leader gather
// relies on when members ship partially-overlapping top-k selections.
func (ws *Workspace) ReduceSparse(ep transport.Endpoint, g Group, tagBase int32, rootIdx int, v, out *sparse.Vector) (Trace, error) {
	me, err := ws.validateGroup(ep, g)
	if err != nil {
		return Trace{}, err
	}
	if rootIdx < 0 || rootIdx >= g.Size() {
		return Trace{}, fmt.Errorf("collective: root index %d out of group", rootIdx)
	}
	tr := Trace{Steps: 1, Events: ws.events[:0]}
	if me != rootIdx {
		msg := wire.SparseMsg(tagBase, v)
		if err := ep.Send(g.Ranks[rootIdx], msg); err != nil {
			return tr, err
		}
		tr.add(0, ep.Rank(), g.Ranks[rootIdx], wire.PayloadBytes(msg))
		ws.events = tr.Events
		return tr, nil
	}
	ws.ensureSparse(g.Size())
	arrivals := ws.arrS
	if err := ws.recvPhase(ep, "sparse reduce", tagBase, g.Size()-1, me, v.Dim, nil, arrivals); err != nil {
		return tr, err
	}
	arrivals[me] = v
	ws.combine(AggSpec{}, 0, v.Dim, arrivals, out)
	rel, _ := ep.(transport.Releaser)
	for j, sv := range arrivals {
		if j != me {
			release(rel, g.Ranks[j], sv)
		}
	}
	ws.events = tr.Events
	return tr, nil
}

// BroadcastSparse sends the root's vector to every member: the root
// sends v (out and dim are ignored; out may be nil); every other member
// receives into out, decoupled from the transport buffer, and refuses a
// vector whose dimension is not dim with an error wrapping ErrPayloadKind.
func (ws *Workspace) BroadcastSparse(ep transport.Endpoint, g Group, tagBase int32, rootIdx int, v, out *sparse.Vector, dim int) (Trace, error) {
	me, err := ws.validateGroup(ep, g)
	if err != nil {
		return Trace{}, err
	}
	if rootIdx < 0 || rootIdx >= g.Size() {
		return Trace{}, fmt.Errorf("collective: root index %d out of group", rootIdx)
	}
	sync := transport.SendsNonBlocking(ep)
	tr := Trace{Steps: 1, Events: ws.events[:0]}
	if me == rootIdx {
		msg := wire.SparseMsg(tagBase, v)
		bytes := wire.PayloadBytes(msg)
		for j := 0; j < g.Size(); j++ {
			if j == rootIdx {
				continue
			}
			tr.add(0, ep.Rank(), g.Ranks[j], bytes)
			if err := ws.send(ep, sync, g.Ranks[j], msg); err != nil {
				return tr, err
			}
		}
		if err := ws.drainSends(); err != nil {
			return tr, err
		}
		ws.events = tr.Events
		return tr, nil
	}
	in, err := ep.Recv(g.Ranks[rootIdx], tagBase)
	if err != nil {
		return tr, err
	}
	sv, err := SparsePayload(&in, dim)
	if err != nil {
		return tr, err
	}
	out.ReuseFrom(sv)
	rel, _ := ep.(transport.Releaser)
	release(rel, g.Ranks[rootIdx], sv)
	ws.events = tr.Events
	return tr, nil
}
