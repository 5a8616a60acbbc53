// Quarantine evidence: the monotone, epoch-stamped record one observer
// publishes when it excludes a rank for a semantic fault. Like a death
// record, the evidence only ever accumulates — a quarantine against
// incarnation k is permanent for that incarnation, and re-admission is a
// separate, later fact (a clean-probe Unquarantine or a fresh
// incarnation) — so replaying, duplicating, or reordering evidence is
// idempotent by construction.
//
// The evidence is an int64 triple (QuarantineLogEntry / ParseLogEntry)
// that rides the WLG runtime's append-only rejoin log: the rank field is
// encoded as -(rank+1), so a negative first element marks a quarantine
// entry and every pre-existing log consumer (which reads non-negative
// rejoin triples) skips it untouched.
package membership

// QuarantineLogEntry encodes the evidence as an int64 triple for the WLG
// rejoin log: (-(rank+1), iter, incarnation). The negated rank keeps the
// entry distinguishable from rejoin triples, whose rank is non-negative.
func QuarantineLogEntry(rank, iter, inc int) [3]int64 {
	return [3]int64{-(int64(rank) + 1), int64(iter), int64(inc)}
}

// ParseLogEntry classifies one log triple. quarantine is true for a
// quarantine entry (rank decoded from the sentinel); false means a plain
// rejoin triple, returned as-is.
func ParseLogEntry(a, b, c int64) (rank, iter, inc int, quarantine bool) {
	if a < 0 {
		return int(-a - 1), int(b), int(c), true
	}
	return int(a), int(b), int(c), false
}
