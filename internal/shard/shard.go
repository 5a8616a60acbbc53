// Package shard implements the block-partition/ownership layer that turns
// the PSR key-ownership idea (block j owned by worker j) from an allreduce
// *schedule* into sharded *state*: the model dimension is split into
// contiguous blocks with a deterministic block→owner map, and every rank
// subscribes only to the blocks its data touches. The consensus iterate is
// then general-form consensus in the style of block-wise ADMM — no rank
// materializes the full model — and replicated state is its special case,
// the map in which every rank subscribes to every block (FullMap).
//
// The layout is exactly vec.Split's (the first Dim%Blocks blocks get one
// extra coordinate), so block boundaries agree with every existing chunked
// collective, and BlockOf is vec.ChunkOf's arithmetic — O(1), no tables.
package shard

import (
	"fmt"

	"psrahgadmm/internal/vec"
)

// Partition divides a model of dimension Dim into Blocks contiguous
// blocks using vec.Split's layout.
type Partition struct {
	Dim    int
	Blocks int
}

// NewPartition returns the partition of dim into blocks, clamping blocks
// into [1, dim] so no block is empty (dim must be positive).
func NewPartition(dim, blocks int) Partition {
	if dim <= 0 {
		panic(fmt.Sprintf("shard: NewPartition dim %d must be positive", dim))
	}
	if blocks < 1 {
		blocks = 1
	}
	if blocks > dim {
		blocks = dim
	}
	return Partition{Dim: dim, Blocks: blocks}
}

// Chunk returns block b's coordinate range [Lo, Hi).
func (p Partition) Chunk(b int) vec.Chunk {
	if b < 0 || b >= p.Blocks {
		panic(fmt.Sprintf("shard: block %d out of range [0,%d)", b, p.Blocks))
	}
	base := p.Dim / p.Blocks
	rem := p.Dim % p.Blocks
	if b < rem {
		lo := b * (base + 1)
		return vec.Chunk{Lo: lo, Hi: lo + base + 1}
	}
	lo := rem*(base+1) + (b-rem)*base
	return vec.Chunk{Lo: lo, Hi: lo + base}
}

// BlockOf returns the block owning coordinate idx — the inverse of Chunk,
// via vec.ChunkOf's arithmetic.
func (p Partition) BlockOf(idx int) int {
	return vec.ChunkOf(p.Dim, p.Blocks, idx)
}

// Map is one world's sharded-state layout: the partition plus every rank's
// subscription — the sorted blocks its data's active columns fall into. The
// map is built once from the dataset shards and is immutable; liveness is
// evaluated against it per round (an elastic regroup changes WHO is alive,
// never who subscribes to what).
type Map struct {
	Part  Partition
	World int
	// Subs[r] is rank r's sorted subscribed block list.
	Subs [][]int32
	// subscribers[b] is block b's sorted subscriber rank list.
	subscribers [][]int32
}

// NewMap builds the subscription map for a world where active[r] lists
// rank r's active (touched) columns in increasing order.
func NewMap(part Partition, active [][]int32) *Map {
	m := &Map{
		Part:        part,
		World:       len(active),
		Subs:        make([][]int32, len(active)),
		subscribers: make([][]int32, part.Blocks),
	}
	for r, cols := range active {
		var subs []int32
		last := int32(-1)
		for _, c := range cols {
			b := int32(part.BlockOf(int(c)))
			if b != last {
				subs = append(subs, b)
				last = b
				m.subscribers[b] = append(m.subscribers[b], int32(r))
			}
		}
		m.Subs[r] = subs
	}
	return m
}

// Subscribers returns block b's sorted subscriber ranks (shared storage;
// callers must not mutate).
func (m *Map) Subscribers(b int) []int32 { return m.subscribers[b] }

// LiveSubscribers counts block b's subscribers that are currently alive.
func (m *Map) LiveSubscribers(b int, alive func(rank int) bool) int {
	n := 0
	for _, r := range m.subscribers[b] {
		if alive(int(r)) {
			n++
		}
	}
	return n
}

// LiveCounts fills counts[b] with every block's live subscriber count —
// the per-block contributor scaling of the sharded z-update (general-form
// consensus: each block's average runs over the ranks whose objective
// actually couples to it). counts is grown when too small and returned.
func (m *Map) LiveCounts(counts []int, alive func(rank int) bool) []int {
	if cap(counts) < m.Part.Blocks {
		counts = make([]int, m.Part.Blocks)
	}
	counts = counts[:m.Part.Blocks]
	for b := range counts {
		counts[b] = m.LiveSubscribers(b, alive)
	}
	return counts
}

// FullSubscription reports whether every rank subscribes to every block —
// the regime in which the sharded engine is bit-identical to the
// replicated one.
func (m *Map) FullSubscription() bool {
	for _, subs := range m.Subs {
		if len(subs) != m.Part.Blocks {
			return false
		}
	}
	return true
}

// Plan projects the map onto one live collective group: Subs[i] is the
// subscription of the rank at group position i, and block b's owner is the
// member at position b % len(Subs) — the PSR key-ownership rule applied to
// blocks instead of chunks, deterministic under elastic regroup because it
// keys off group position, not world rank.
type Plan struct {
	Part Partition
	Subs [][]int32
}

// Plan builds the collective plan for the given live world ranks in group
// order. The returned plan aliases the map's subscription storage.
func (m *Map) Plan(ranks []int) *Plan {
	pl := &Plan{Part: m.Part, Subs: make([][]int32, len(ranks))}
	for i, r := range ranks {
		pl.Subs[i] = m.Subs[r]
	}
	return pl
}

// FullMap is the map in which every one of world ranks subscribes to every
// block BY CONSTRUCTION, whatever its data touches — global consensus as the
// full-subscription case of general-form consensus. With a one-block
// partition it is the replicated placement: every rank holds all of z and
// every per-block live count is the live count.
func FullMap(part Partition, world int) *Map {
	all := make([]int32, part.Blocks)
	for b := range all {
		all[b] = int32(b)
	}
	everyone := make([]int32, world)
	for r := range everyone {
		everyone[r] = int32(r)
	}
	m := &Map{
		Part:        part,
		World:       world,
		Subs:        make([][]int32, world),
		subscribers: make([][]int32, part.Blocks),
	}
	for r := range m.Subs {
		m.Subs[r] = all
	}
	for b := range m.subscribers {
		m.subscribers[b] = everyone
	}
	return m
}

// FullPlan is the full map's plan over all p members — how a conventional
// full-width allreduce rides the shard-aware schedule. No runtime path
// builds one; it is the reference the collective tests hold
// ShardAllreduceSparse against PSRAllreduceSparse with.
func FullPlan(part Partition, p int) *Plan {
	ranks := make([]int, p)
	for i := range ranks {
		ranks[i] = i
	}
	return FullMap(part, p).Plan(ranks)
}

// OwnerPos returns the group position owning block b.
func (pl *Plan) OwnerPos(b int) int { return b % len(pl.Subs) }

// Members returns the group size.
func (pl *Plan) Members() int { return len(pl.Subs) }
