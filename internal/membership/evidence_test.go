package membership

import (
	"errors"
	"testing"
)

func TestQuarantineLogEntryRoundTrip(t *testing.T) {
	e := QuarantineLogEntry(4, 17, 2)
	rank, iter, inc, quar := ParseLogEntry(e[0], e[1], e[2])
	if !quar || rank != 4 || iter != 17 || inc != 2 {
		t.Fatalf("ParseLogEntry(%v) = (%d,%d,%d,%v)", e, rank, iter, inc, quar)
	}
	// Rank 0 must still be distinguishable from a rejoin triple — that is
	// what the +1 in the sentinel buys.
	e0 := QuarantineLogEntry(0, 1, 1)
	if e0[0] >= 0 {
		t.Fatalf("rank-0 quarantine entry %v is not negative", e0)
	}
	// A plain rejoin triple passes through unclassified.
	rank, iter, inc, quar = ParseLogEntry(3, 8, 1)
	if quar || rank != 3 || iter != 8 || inc != 1 {
		t.Fatalf("rejoin triple misclassified: (%d,%d,%d,%v)", rank, iter, inc, quar)
	}
}

func TestTrackerQuarantine(t *testing.T) {
	tr := NewTracker(4)
	epoch := tr.Epoch()

	if !tr.Quarantine(2) {
		t.Fatal("first Quarantine returned false")
	}
	if tr.Quarantine(2) {
		t.Fatal("second Quarantine not idempotent")
	}
	if tr.Epoch() != epoch+1 {
		t.Fatalf("epoch = %d, want exactly one bump to %d", tr.Epoch(), epoch+1)
	}
	if !tr.Quarantined(2) || tr.QuarantinedCount() != 1 {
		t.Fatal("quarantine state not recorded")
	}
	if tr.Alive(2) {
		t.Fatal("quarantined rank still Alive")
	}
	if tr.LiveCount() != 3 {
		t.Fatalf("LiveCount = %d, want 3", tr.LiveCount())
	}
	if got := tr.Live([]int{0, 1, 2, 3}); len(got) != 3 {
		t.Fatalf("Live kept the quarantined rank: %v", got)
	}
	// Quarantine is not death: no incarnation change, not in Dead().
	if tr.Incarnation(2) != 0 {
		t.Fatalf("quarantine bumped incarnation to %d", tr.Incarnation(2))
	}
	for _, d := range tr.Dead() {
		if d == 2 {
			t.Fatal("quarantined rank listed as dead")
		}
	}

	// Unquarantine restores the same incarnation to the live set.
	epoch = tr.Epoch()
	if !tr.Unquarantine(2) {
		t.Fatal("Unquarantine returned false")
	}
	if tr.Unquarantine(2) {
		t.Fatal("second Unquarantine not idempotent")
	}
	if !tr.Alive(2) || tr.Quarantined(2) || tr.QuarantinedCount() != 0 {
		t.Fatal("Unquarantine did not restore the rank")
	}
	if tr.Incarnation(2) != 0 {
		t.Fatal("Unquarantine minted a new incarnation")
	}
	if tr.Epoch() != epoch+1 {
		t.Fatalf("Unquarantine epoch = %d, want %d", tr.Epoch(), epoch+1)
	}
}

func TestTrackerQuarantineDeadRank(t *testing.T) {
	tr := NewTracker(3)
	tr.MarkDown(1, errors.New("gone"))
	if tr.Quarantine(1) {
		t.Fatal("a dead rank must not be quarantinable")
	}
	if tr.Quarantined(1) {
		t.Fatal("dead rank reported quarantined")
	}
}

func TestTrackerRejoinClearsQuarantine(t *testing.T) {
	// A new incarnation starts with a clean slate: evidence indicts a life,
	// not a rank.
	tr := NewTracker(3)
	tr.Quarantine(1)
	if !tr.MarkUpAt(1, tr.Incarnation(1)+1) {
		t.Fatal("MarkUpAt rejected the fresh incarnation")
	}
	if tr.Quarantined(1) || !tr.Alive(1) {
		t.Fatal("fresh incarnation still carries the old quarantine")
	}
}

func TestTrackerQuarantineOutOfRange(t *testing.T) {
	tr := NewTracker(2)
	if tr.Quarantine(-1) || tr.Quarantine(5) {
		t.Fatal("out-of-range rank quarantined")
	}
	if tr.Unquarantine(-1) || tr.Unquarantine(5) {
		t.Fatal("out-of-range rank unquarantined")
	}
	if tr.Quarantined(-1) || tr.Quarantined(5) {
		t.Fatal("out-of-range rank reported quarantined")
	}
}
