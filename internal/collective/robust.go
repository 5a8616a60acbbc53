// Robust reduce kernels: trimmed-mean and coordinate-median alternatives to
// the sum that every consensus reduce in this repo is built on. A robust
// statistic is not associative — median(median(a,b), c) is not median(a,b,c)
// — so unlike the sum it cannot ride a pairwise schedule (ring). It CAN ride
// any schedule that funnels all contributions for a coordinate range through
// one combine point before redistribution, which is exactly what
// PSRAllreduceSparse (block owners see every contribution to their block)
// and ShardAllreduceSparse (ditto, per shard block) already do. The robust
// forms below reuse those schedules verbatim — same messages, same tags,
// same traces — and swap only the owner-side combine.
//
// Scaling contract: the combine writes center × n, where center is the
// trimmed mean or median over the n contributors and n is the contributor
// count the UNCHANGED downstream consensus update divides by (group size for
// the replicated kernels, the per-block subscriber count for the sharded
// one). Dividing center × n by n recovers the robust center, so callers of
// the mean path and callers of the robust path run identical post-reduce
// code. With Kind == AggMean the Agg entry points delegate to the original
// kernels untouched — mean results stay bit-identical to pre-robust builds,
// because (Σ/n)×n round-trips through float division and Σ does not.
package collective

import (
	"fmt"
	"slices"

	"psrahgadmm/internal/shard"
	"psrahgadmm/internal/sparse"
	"psrahgadmm/internal/transport"
	"psrahgadmm/internal/vec"
	"psrahgadmm/internal/wire"
)

// Agg selects the aggregation statistic for a consensus reduce.
type Agg uint8

const (
	// AggMean is the plain sum-then-divide mean — today's behavior,
	// bit-identical to the pre-robust kernels.
	AggMean Agg = iota
	// AggTrimmedMean drops the TrimF smallest and TrimF largest
	// contributions per coordinate and averages the rest.
	AggTrimmedMean
	// AggMedian takes the per-coordinate median.
	AggMedian
)

// Aggregator names as they appear in configs and CLI flags.
const (
	AggMeanName        = "mean"
	AggTrimmedMeanName = "trimmed-mean"
	AggMedianName      = "coordinate-median"
)

// String returns the config-facing name.
func (a Agg) String() string {
	switch a {
	case AggTrimmedMean:
		return AggTrimmedMeanName
	case AggMedian:
		return AggMedianName
	default:
		return AggMeanName
	}
}

// ParseAgg maps a config name to an Agg. The empty string is the mean (the
// default aggregator).
func ParseAgg(name string) (Agg, error) {
	switch name {
	case "", AggMeanName:
		return AggMean, nil
	case AggTrimmedMeanName:
		return AggTrimmedMean, nil
	case AggMedianName:
		return AggMedian, nil
	}
	return AggMean, fmt.Errorf("collective: unknown aggregator %q (want %s, %s, or %s)",
		name, AggMeanName, AggTrimmedMeanName, AggMedianName)
}

// AggNames lists the valid aggregator names.
func AggNames() []string {
	return []string{AggMeanName, AggTrimmedMeanName, AggMedianName}
}

// AggSpec is a fully-resolved aggregator choice. The zero value is the
// mean.
type AggSpec struct {
	Kind Agg
	// TrimF is the per-side trim count for AggTrimmedMean: the f in
	// "tolerates f Byzantine contributors". Clamped at combine time to
	// (n-1)/2 so at least one value survives the trim.
	TrimF int
}

// Robust reports whether the spec selects a non-mean statistic (and thus
// the robust combine path).
func (s AggSpec) Robust() bool { return s.Kind != AggMean }

// robustCenter computes the spec's statistic over an ascending-sorted
// contributor slice. len(sorted) must be ≥ 1.
func robustCenter(sorted []float64, spec AggSpec) float64 {
	n := len(sorted)
	switch spec.Kind {
	case AggMedian:
		if n%2 == 1 {
			return sorted[n/2]
		}
		return 0.5 * (sorted[n/2-1] + sorted[n/2])
	case AggTrimmedMean:
		f := spec.TrimF
		if 2*f >= n {
			f = (n - 1) / 2
		}
		s := 0.0
		for _, x := range sorted[f : n-f] {
			s += x
		}
		return s / float64(n-2*f)
	default:
		// Mean over the sorted slice — NOT the bit path for AggMean (the
		// Agg entry points delegate to the sum kernels before reaching
		// here); kept so robustCenter is total.
		s := 0.0
		for _, x := range sorted {
			s += x
		}
		return s / float64(n)
	}
}

// robustScratch is the owner-side combine state for the robust kernels: a
// coordinate × contributor value matrix over the touched coordinates of one
// block. Like sparse.Accumulator it is reset-clean — rows are zeroed as
// they are extracted, and reset() scrubs rows left behind by an aborted
// call — so a warmed workspace combines without allocating.
type robustScratch struct {
	vals    []float64 // row-major: vals[coord*n + slot]
	seen    []bool
	touched []int32
	sortBuf []float64
	cursors []int // sharded per-member subscription cursors
	w, n    int   // current block width and contributor-slot count
}

// reset re-targets the scratch for a block of the given width with n
// contributor slots, scrubbing any rows a previous (possibly aborted) use
// left behind.
func (rb *robustScratch) reset(width, n int) {
	for _, i := range rb.touched {
		row := rb.vals[int(i)*rb.n : int(i)*rb.n+rb.n]
		for k := range row {
			row[k] = 0
		}
		rb.seen[i] = false
	}
	rb.touched = rb.touched[:0]
	if need := width * n; cap(rb.vals) < need {
		rb.vals = make([]float64, need)
	} else {
		rb.vals = rb.vals[:need]
		// Dimension change re-maps rows onto different flat positions, so
		// the scrub above may have missed stale cells; clear the lot.
		if width != rb.w || n != rb.n {
			for k := range rb.vals {
				rb.vals[k] = 0
			}
		}
	}
	if cap(rb.seen) < width {
		rb.seen = make([]bool, width)
	}
	rb.seen = rb.seen[:width]
	if cap(rb.sortBuf) < n {
		rb.sortBuf = make([]float64, n)
	}
	rb.w, rb.n = width, n
}

// addSlot scatters v's entries at storage positions [from, to), re-based by
// -base, into contributor column slot. Coordinates a contributor does not
// store are implicit zeros — already present in the zeroed matrix — so a
// sparse contributor's missing entries still count toward the statistic.
func (rb *robustScratch) addSlot(slot int, v *sparse.Vector, from, to int, base int32) {
	n := rb.n
	for k := from; k < to; k++ {
		i := v.Index[k] - base
		if int(i) >= rb.w || i < 0 {
			panic("collective: robust addSlot index out of block range")
		}
		if !rb.seen[i] {
			rb.seen[i] = true
			rb.touched = append(rb.touched, i)
		}
		rb.vals[int(i)*n+slot] = v.Value[k]
	}
}

// finishInto extracts center × n per touched coordinate into dst (allocated
// when nil), zeroing the matrix rows behind it, and returns dst. Untouched
// coordinates are zero for every contributor, so their center is exactly 0
// and they are skipped — matching the sum kernels' no-stored-zeros output.
func (rb *robustScratch) finishInto(dst *sparse.Vector, spec AggSpec) *sparse.Vector {
	slices.Sort(rb.touched)
	if dst == nil {
		dst = sparse.NewVector(rb.w, len(rb.touched))
	} else {
		dst.Reset(rb.w)
	}
	n := rb.n
	scale := float64(n)
	sb := rb.sortBuf[:n]
	for _, i := range rb.touched {
		row := rb.vals[int(i)*n : int(i)*n+n]
		copy(sb, row)
		for k := range row {
			row[k] = 0
		}
		rb.seen[i] = false
		slices.Sort(sb)
		if v := robustCenter(sb, spec) * scale; v != 0 {
			dst.Index = append(dst.Index, i)
			dst.Value = append(dst.Value, v)
		}
	}
	rb.touched = rb.touched[:0]
	return dst
}

// ensureCursors returns the zeroed p-wide cursor slice for the sharded
// combine's monotone subscription walks.
func (rb *robustScratch) ensureCursors(p int) []int {
	if cap(rb.cursors) < p {
		rb.cursors = make([]int, p)
	}
	rb.cursors = rb.cursors[:p]
	for i := range rb.cursors {
		rb.cursors[i] = 0
	}
	return rb.cursors
}

// PSRAllreduceSparseAgg is PSRAllreduceSparse with a pluggable aggregator.
// AggMean delegates to PSRAllreduceSparse itself — same code, bit-identical
// results. The robust kinds run the identical scatter/allgather schedule
// (same messages, tags, and trace shape) and replace only the owner-side
// block combine: each owner computes center × p over the p contributions to
// its block, so the caller's divide-by-p recovers the robust center.
func (ws *Workspace) PSRAllreduceSparseAgg(ep transport.Endpoint, g Group, tagBase int32, v, out *sparse.Vector, spec AggSpec) (Trace, error) {
	if !spec.Robust() {
		return ws.PSRAllreduceSparse(ep, g, tagBase, v, out)
	}
	me, err := ws.validateGroup(ep, g)
	if err != nil {
		return Trace{}, err
	}
	p := g.Size()
	tr := Trace{Steps: 2, Events: ws.events[:0]}
	if p == 1 {
		// center × 1 of a single contribution is the contribution.
		out.ReuseFrom(v)
		return tr, nil
	}
	sync := transport.SendsNonBlocking(ep)
	ws.ensureSparse(p)
	ws.chunks = vec.SplitInto(ws.chunks, v.Dim, p)
	mine := ws.chunks[me]

	for j := 0; j < p; j++ {
		if j == me {
			continue
		}
		blk := v.SliceInto(ws.own[j], ws.chunks[j].Lo, ws.chunks[j].Hi)
		msg := wire.SparseMsg(tagBase, blk)
		tr.add(0, ep.Rank(), g.Ranks[j], wire.PayloadBytes(msg))
		if err := ws.send(ep, sync, g.Ranks[j], msg); err != nil {
			return tr, err
		}
	}
	arrivals := ws.arrS
	for j := 0; j < p-1; j++ {
		in, err := ep.Recv(transport.AnySource, tagBase)
		if err != nil {
			return tr, err
		}
		sv, err := sparsePayload(in)
		if err != nil {
			return tr, err
		}
		if sv.Dim != mine.Hi-mine.Lo {
			return tr, fmt.Errorf("collective: psr sparse scatter dim %d, want %d", sv.Dim, mine.Hi-mine.Lo)
		}
		src := g.IndexOf(int(in.From))
		if src < 0 || src == me || arrivals[src] != nil {
			return tr, fmt.Errorf("collective: psr sparse scatter unexpected sender %d", in.From)
		}
		arrivals[src] = sv
	}
	arrivals[me] = v.SliceInto(ws.own[me], mine.Lo, mine.Hi)
	// Robust combine in member-slot order (slot order is immaterial once
	// each coordinate's contributors are sorted, but determinism is free).
	ws.rb.reset(mine.Hi-mine.Lo, p)
	for s, a := range arrivals {
		if a != nil {
			ws.rb.addSlot(s, a, 0, a.NNZ(), 0)
		}
	}
	if err := ws.drainSends(); err != nil {
		return tr, err
	}
	myBlock := ws.rb.finishInto(ws.myBlock, spec)
	ws.myBlock = myBlock

	msg := wire.SparseMsg(tagBase+1, myBlock)
	bytes := wire.PayloadBytes(msg)
	for j := 0; j < p; j++ {
		if j == me {
			continue
		}
		tr.add(1, ep.Rank(), g.Ranks[j], bytes)
		if err := ws.send(ep, sync, g.Ranks[j], msg); err != nil {
			return tr, err
		}
	}
	blocks := ws.cur
	blocks[me] = myBlock
	for j := 0; j < p-1; j++ {
		in, err := ep.Recv(transport.AnySource, tagBase+1)
		if err != nil {
			return tr, err
		}
		sv, err := sparsePayload(in)
		if err != nil {
			return tr, err
		}
		src := g.IndexOf(int(in.From))
		if src < 0 || src == me {
			return tr, fmt.Errorf("collective: psr sparse gather from unexpected rank %d", in.From)
		}
		if sv.Dim != ws.chunks[src].Hi-ws.chunks[src].Lo {
			return tr, fmt.Errorf("collective: psr sparse gather dim %d, want %d", sv.Dim, ws.chunks[src].Hi-ws.chunks[src].Lo)
		}
		blocks[src] = sv
	}
	if err := ws.drainSends(); err != nil {
		return tr, err
	}
	for j, c := range ws.chunks {
		ws.offsets[j] = c.Lo
	}
	sparse.ConcatInto(out, v.Dim, ws.offsets, blocks)
	ws.events = tr.Events
	return tr, nil
}

// ShardAllreduceSparseAgg is ShardAllreduceSparse with a pluggable
// aggregator; AggMean delegates to the original. The robust kinds keep the
// pair schedule and replace each owned block's member-order sum with
// center × m_b, where m_b is block b's subscriber count under the plan — a
// static property (b ∈ Subs[i]), never a function of who happened to send
// nonzeros — so the sharded z-update's divide-by-subscribers recovers the
// robust center exactly as the replicated path's divide-by-p does.
func (ws *Workspace) ShardAllreduceSparseAgg(ep transport.Endpoint, g Group, tagBase int32, plan *shard.Plan, v, out *sparse.Vector, spec AggSpec) (Trace, error) {
	if !spec.Robust() {
		return ws.ShardAllreduceSparse(ep, g, tagBase, plan, v, out)
	}
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
	owned := (part.Blocks + p - 1 - me) / p
	ws.ensureShard(p, owned)
	subsMe := plan.Subs[me]

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

	arrivals := ws.arrS
	expect := 0
	for i := 0; i < p; i++ {
		if i != me && planPairs(plan, i, me) {
			expect++
		}
	}
	for n := 0; n < expect; n++ {
		in, err := ep.Recv(transport.AnySource, tagBase)
		if err != nil {
			return tr, err
		}
		sv, err := sparsePayload(in)
		if err != nil {
			return tr, err
		}
		if sv.Dim != part.Dim {
			return tr, fmt.Errorf("collective: shard scatter dim %d, want %d", sv.Dim, part.Dim)
		}
		src := g.IndexOf(int(in.From))
		if src < 0 || src == me || arrivals[src] != nil || !planPairs(plan, src, me) {
			return tr, fmt.Errorf("collective: shard scatter unexpected sender %d", in.From)
		}
		arrivals[src] = sv
	}
	if err := ws.drainSends(); err != nil {
		return tr, err
	}

	// Robust-combine each owned block over its subscribers. The cursors
	// advance monotonically with b (owned blocks ascend), giving each
	// member's "subscribed to b?" test amortized O(1).
	cursors := ws.rb.ensureCursors(p)
	for bi := 0; bi < owned; bi++ {
		b := me + bi*p
		c := part.Chunk(b)
		nb := 0
		for i := 0; i < p; i++ {
			subs := plan.Subs[i]
			for cursors[i] < len(subs) && int(subs[cursors[i]]) < b {
				cursors[i]++
			}
			if cursors[i] < len(subs) && int(subs[cursors[i]]) == b &&
				(i == me || arrivals[i] != nil) {
				nb++
			}
		}
		if nb == 0 {
			ws.shRed[bi] = emptyBlock(ws.shRed[bi], c.Len())
			continue
		}
		ws.rb.reset(c.Len(), nb)
		slot := 0
		for i := 0; i < p; i++ {
			subs := plan.Subs[i]
			if cursors[i] >= len(subs) || int(subs[cursors[i]]) != b {
				continue
			}
			src := v
			if i != me {
				src = arrivals[i]
				if src == nil {
					continue
				}
			}
			from, to := src.Range(c.Lo, c.Hi)
			ws.rb.addSlot(slot, src, from, to, int32(c.Lo))
			slot++
		}
		ws.shRed[bi] = ws.rb.finishInto(ws.shRed[bi], spec)
	}

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
	for j := 0; j < p; j++ {
		if j != me && planPairs(plan, me, j) {
			expect++
		}
	}
	for n := 0; n < expect; n++ {
		in, err := ep.Recv(transport.AnySource, tagBase+1)
		if err != nil {
			return tr, err
		}
		sv, err := sparsePayload(in)
		if err != nil {
			return tr, err
		}
		if sv.Dim != part.Dim {
			return tr, fmt.Errorf("collective: shard gather dim %d, want %d", sv.Dim, part.Dim)
		}
		src := g.IndexOf(int(in.From))
		if src < 0 || src == me || gathered[src] != nil || !planPairs(plan, me, src) {
			return tr, fmt.Errorf("collective: shard gather unexpected sender %d", in.From)
		}
		gathered[src] = sv
	}
	if err := ws.drainSends(); err != nil {
		return tr, err
	}

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

// emptyBlock resets (or allocates) dst as an empty block of the given
// width.
func emptyBlock(dst *sparse.Vector, width int) *sparse.Vector {
	if dst == nil {
		return sparse.NewVector(width, 0)
	}
	dst.Reset(width)
	return dst
}

// CombineSparse robust-combines full-width sparse contributions at a single
// point — the star master's and forced-single-group tree root's combine,
// where every live contribution is already local. nil entries in srcs are
// skipped; n is the count of non-nil contributors and the output is
// center × n over their union support, written into out (allocated when
// nil) and returned. Only the robust kinds route through here — the mean
// path keeps its original accumulator sum.
func (ws *Workspace) CombineSparse(spec AggSpec, dim int, srcs []*sparse.Vector, out *sparse.Vector) *sparse.Vector {
	n := 0
	for _, s := range srcs {
		if s != nil {
			n++
		}
	}
	if n == 0 {
		return emptyBlock(out, dim)
	}
	ws.rb.reset(dim, n)
	slot := 0
	for _, s := range srcs {
		if s == nil {
			continue
		}
		if s.Dim != dim {
			panic("collective: CombineSparse dimension mismatch")
		}
		ws.rb.addSlot(slot, s, 0, s.NNZ(), 0)
		slot++
	}
	return ws.rb.finishInto(out, spec)
}
