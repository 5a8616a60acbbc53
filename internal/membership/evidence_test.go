package membership

import (
	"errors"
	"math"
	"testing"
)

func TestQuarantineEvidenceRoundTrip(t *testing.T) {
	for _, e := range []QuarantineEvidence{
		{},
		{Rank: 3, Incarnation: 2, Iter: 17, Score: 123.5},
		{Rank: 0, Incarnation: 0, Iter: 0, Score: -4.25},
		{Rank: 1<<31 - 1, Incarnation: 1<<31 - 1, Iter: 1<<31 - 1, Score: 1e308},
	} {
		buf := e.AppendBinary(nil)
		got, err := DecodeQuarantineEvidence(buf)
		if err != nil {
			t.Fatalf("decode(%+v): %v", e, err)
		}
		if got != e {
			t.Fatalf("round-trip mismatch: encoded %+v decoded %+v", e, got)
		}
	}
}

func TestQuarantineEvidenceAppendChains(t *testing.T) {
	// AppendBinary appends: a log of frames concatenates and each
	// 25-byte window decodes independently.
	a := QuarantineEvidence{Rank: 1, Iter: 5, Score: 2}
	b := QuarantineEvidence{Rank: 2, Incarnation: 1, Iter: 9, Score: 3}
	buf := b.AppendBinary(a.AppendBinary(nil))
	if len(buf) != 2*evidenceBytes {
		t.Fatalf("chained frames = %d bytes, want %d", len(buf), 2*evidenceBytes)
	}
	gotA, errA := DecodeQuarantineEvidence(buf[:evidenceBytes])
	gotB, errB := DecodeQuarantineEvidence(buf[evidenceBytes:])
	if errA != nil || errB != nil || gotA != a || gotB != b {
		t.Fatalf("chained decode: %+v (%v), %+v (%v)", gotA, errA, gotB, errB)
	}
}

func TestQuarantineEvidenceRejectsCorruption(t *testing.T) {
	good := QuarantineEvidence{Rank: 2, Incarnation: 1, Iter: 8, Score: 7}.AppendBinary(nil)
	mutate := func(fn func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		fn(b)
		return b
	}
	cases := map[string][]byte{
		"truncated":     good[:len(good)-1],
		"extended":      append(append([]byte(nil), good...), 0),
		"empty":         {},
		"bad-magic":     mutate(func(b []byte) { b[0] = 'X' }),
		"bad-version":   mutate(func(b []byte) { b[4] = 99 }),
		"negative-rank": mutate(func(b []byte) { b[8] = 0x80 }),
		"negative-inc":  mutate(func(b []byte) { b[12] = 0x80 }),
		"negative-iter": mutate(func(b []byte) { b[16] = 0x80 }),
		"nan-score": QuarantineEvidence{
			Rank: 2, Iter: 8, Score: math.NaN(),
		}.AppendBinary(nil),
		"inf-score": QuarantineEvidence{
			Rank: 2, Iter: 8, Score: math.Inf(1),
		}.AppendBinary(nil),
	}
	for name, data := range cases {
		if _, err := DecodeQuarantineEvidence(data); !errors.Is(err, ErrEvidenceCorrupt) {
			t.Fatalf("%s: err = %v, want ErrEvidenceCorrupt", name, err)
		}
	}
}

// FuzzQuarantineEvidence drives the decoder with arbitrary bytes: it must
// never panic, and whatever it accepts must re-encode to the identical
// frame (decode∘encode is the identity on the accepted set — evidence
// changes membership, so a frame that survives validation must be
// unambiguous).
func FuzzQuarantineEvidence(f *testing.F) {
	f.Add([]byte(nil))
	f.Add(QuarantineEvidence{Rank: 1, Incarnation: 2, Iter: 3, Score: 4}.AppendBinary(nil))
	f.Add([]byte("PSQE\x01aaaaaaaaaaaaaaaaaaaa"))
	f.Add([]byte("PSQEPSQEPSQEPSQEPSQEPSQEP"))
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := DecodeQuarantineEvidence(data)
		if err != nil {
			if !errors.Is(err, ErrEvidenceCorrupt) {
				t.Fatalf("rejection must wrap ErrEvidenceCorrupt, got %v", err)
			}
			return
		}
		if e.Rank < 0 || e.Incarnation < 0 || e.Iter < 0 {
			t.Fatalf("accepted negative field: %+v", e)
		}
		if math.IsNaN(e.Score) || math.IsInf(e.Score, 0) {
			t.Fatalf("accepted non-finite score: %+v", e)
		}
		re := e.AppendBinary(nil)
		if string(re) != string(data) {
			t.Fatalf("accepted frame is not canonical: % x re-encodes to % x", data, re)
		}
	})
}

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
