package shard

import (
	"slices"
	"testing"

	"psrahgadmm/internal/vec"
)

// TestPartitionMatchesVecSplit pins the partition to vec.Split's layout
// exactly: block boundaries and the Chunk/BlockOf inverse pair must agree
// with the chunk tables every existing collective uses.
func TestPartitionMatchesVecSplit(t *testing.T) {
	for _, tc := range []struct{ dim, blocks int }{
		{1, 1}, {7, 3}, {10, 10}, {13, 4}, {100, 7}, {64, 64}, {65, 64}, {1000, 33},
	} {
		p := NewPartition(tc.dim, tc.blocks)
		chunks := vec.Split(tc.dim, p.Blocks)
		for b, c := range chunks {
			if got := p.Chunk(b); got != c {
				t.Fatalf("dim=%d blocks=%d: Chunk(%d)=%v, vec.Split gives %v", tc.dim, tc.blocks, b, got, c)
			}
			for idx := c.Lo; idx < c.Hi; idx++ {
				if got := p.BlockOf(idx); got != b {
					t.Fatalf("dim=%d blocks=%d: BlockOf(%d)=%d, want %d", tc.dim, tc.blocks, idx, got, b)
				}
			}
		}
	}
}

func TestNewPartitionClamps(t *testing.T) {
	if p := NewPartition(5, 0); p.Blocks != 1 {
		t.Fatalf("blocks=0 should clamp to 1, got %d", p.Blocks)
	}
	if p := NewPartition(5, 9); p.Blocks != 5 {
		t.Fatalf("blocks>dim should clamp to dim, got %d", p.Blocks)
	}
}

func TestMapSubscriptions(t *testing.T) {
	// dim 12, 4 blocks of 3: block b covers [3b, 3b+3).
	part := NewPartition(12, 4)
	active := [][]int32{
		{0, 1, 5},     // rank 0 touches blocks 0, 1
		{3, 4, 9, 11}, // rank 1 touches blocks 1, 3
		{0, 6, 7, 8},  // rank 2 touches blocks 0, 2
	}
	m := NewMap(part, active)
	wantSubs := [][]int32{{0, 1}, {1, 3}, {0, 2}}
	for r, want := range wantSubs {
		got := m.Subs[r]
		if len(got) != len(want) {
			t.Fatalf("rank %d subs %v, want %v", r, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("rank %d subs %v, want %v", r, got, want)
			}
		}
	}
	if got := m.Subscribers(1); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("block 1 subscribers %v, want [0 1]", got)
	}
	if m.FullSubscription() {
		t.Fatal("partial map reported full subscription")
	}

	alive := func(r int) bool { return r != 0 }
	counts := m.LiveCounts(nil, alive)
	want := []int{1, 1, 1, 1} // block 0: rank 2; block 1: rank 1; block 2: rank 2; block 3: rank 1
	for b := range want {
		if counts[b] != want[b] {
			t.Fatalf("live counts %v, want %v", counts, want)
		}
	}
}

func TestFullPlanAndOwnership(t *testing.T) {
	part := NewPartition(100, 8)
	pl := FullPlan(part, 3)
	if pl.Members() != 3 {
		t.Fatalf("members %d, want 3", pl.Members())
	}
	for b := 0; b < part.Blocks; b++ {
		if got, want := pl.OwnerPos(b), b%3; got != want {
			t.Fatalf("OwnerPos(%d)=%d, want %d", b, got, want)
		}
	}
	for i, subs := range pl.Subs {
		if len(subs) != part.Blocks {
			t.Fatalf("full plan member %d subscribes to %d blocks, want %d", i, len(subs), part.Blocks)
		}
	}
}

// TestFullMapSubscribesEveryone pins the replicated placement's map: every
// rank subscribes to every block by construction — FullMap is handed no
// active columns at all — every block's live count is the live count, and
// its plan over the whole world is FullPlan.
func TestFullMapSubscribesEveryone(t *testing.T) {
	for _, tc := range []struct{ dim, blocks, world int }{{9, 1, 1}, {100, 1, 6}, {100, 8, 3}, {7, 7, 5}} {
		part := NewPartition(tc.dim, tc.blocks)
		m := FullMap(part, tc.world)
		if m.World != tc.world || len(m.Subs) != tc.world || !m.FullSubscription() {
			t.Fatalf("%+v: world %d, %d subscription lists, full=%v", tc, m.World, len(m.Subs), m.FullSubscription())
		}
		for b := 0; b < part.Blocks; b++ {
			subs := m.Subscribers(b)
			if len(subs) != tc.world {
				t.Fatalf("%+v: block %d has %d subscribers, want %d", tc, b, len(subs), tc.world)
			}
			for r, got := range subs {
				if int(got) != r || int(m.Subs[r][b]) != b {
					t.Fatalf("%+v: block %d subscribers %v, rank %d subs %v", tc, b, subs, r, m.Subs[r])
				}
			}
		}
		alive := func(r int) bool { return r%2 == 0 }
		live := (tc.world + 1) / 2
		for b, n := range m.LiveCounts(nil, alive) {
			if n != live {
				t.Fatalf("%+v: block %d live count %d, want the live count %d", tc, b, n, live)
			}
		}
		world := make([]int, tc.world)
		for i := range world {
			world[i] = i
		}
		got, want := m.Plan(world), FullPlan(part, tc.world)
		if got.Part != want.Part || got.Members() != want.Members() {
			t.Fatalf("%+v: plan %+v, FullPlan %+v", tc, got, want)
		}
		for i := range want.Subs {
			if !slices.Equal(got.Subs[i], want.Subs[i]) {
				t.Fatalf("%+v: member %d subscribes to %v, FullPlan says %v", tc, i, got.Subs[i], want.Subs[i])
			}
		}
	}
}
