// Quarantine protocol of the elastic WLG runtime — the semantic-fault
// rung above crash tolerance. The elastic machinery absorbs ranks that
// STOP talking; this file handles ranks that keep talking WRONG.
//
// The Leader is the observer: it screens every gathered member
// contribution against that member's own baseline (watchdog.Screen),
// excludes flagged vectors from the node sum, and after the strike limit
// quarantines the member in its local tracker. Quarantine is a membership
// fact, so it propagates the way every membership fact here does: the
// Leader publishes evidence to the Group Generator (elKindQuarantine,
// re-sent each round until confirmed), the GG folds it into the
// append-only rejoin log as a membership.QuarantineLogEntry triple, and
// the log piggybacks on every control reply until every live rank — and
// the victim itself — has applied it. Application is incarnation-guarded
// and idempotent, so duplicated, reordered, or replayed evidence (a
// FaultFabric specialty) converges to the same view.
//
// The victim's side is probation: a rank that finds itself indicted stops
// contributing, locally rebuilds its would-be contribution each virtual
// iteration, and screens it against the baseline its clean history built
// (flagged observations never updated it, so the baseline still describes
// the healthy regime). Once watchdog.Screen.Probe readmits it, the rank
// makes a rejoin announcement — the SAME handshake a crashed rank uses —
// and the GG mints a fresh incarnation whose join record supersedes the
// quarantine entry for every observer. A rank that never comes clean
// simply runs out the clock and exits with its farewell, keeping the GG's
// done-or-dead accounting sound.
package wlg

import (
	"errors"

	"psrahgadmm/internal/membership"
	"psrahgadmm/internal/sparse"
	"psrahgadmm/internal/wire"
)

// errSelfQuarantined is the internal signal that the rejoin log indicts
// this rank's current incarnation; the worker loop turns it into
// probation, never into a run failure.
var errSelfQuarantined = errors.New("wlg: this rank is quarantined")

// reportQuarantines publishes evidence for every node member this rank
// has quarantined but the rejoin log does not confirm yet. At-least-once:
// called every led round, it keeps re-sending until the GG's log carries
// the entry; the GG applies duplicates idempotently. A send failure is
// ordinary death evidence.
func (w *worker) reportQuarantines(iter int) {
	for _, m := range w.members {
		if m == w.rank || !w.tr.Quarantined(m) {
			continue
		}
		inc := w.tr.Incarnation(m)
		if w.logHasQuarantine(m, inc) {
			continue
		}
		if err := w.ep.Send(w.gg, wire.Control(tagElControl, elKindQuarantine, int64(m), int64(iter), int64(inc))); err != nil {
			w.tr.Observe(err)
			return
		}
	}
}

// logHasQuarantine reports whether the rejoin log already records a
// quarantine of rank at (or past) the given incarnation.
func (w *worker) logHasQuarantine(rank, inc int) bool {
	for i := 0; i+2 < len(w.joinLog); i += 3 {
		r, _, in, quar := membership.ParseLogEntry(w.joinLog[i], w.joinLog[i+1], w.joinLog[i+2])
		if quar && r == rank && in >= inc {
			return true
		}
	}
	return false
}

// probation is the quarantined rank's path back: rebuild the would-be
// contribution for each remaining virtual iteration and probe it locally
// (nothing ships) until the screen readmits it, then re-enter through the
// rejoin handshake. Returns the first iteration the caller's loop should
// execute — the granted join iteration, or MaxIter when re-admission was
// never earned (the loop then falls through to the farewell).
func (w *worker) probation(fromIter int, f WorkerFuncs) (int, error) {
	var sv *sparse.Vector
	for probe := fromIter + 1; probe < w.cfg.MaxIter; probe++ {
		sv = sparse.FromDenseInto(sv, f.ComputeW(probe))
		w.codec.EncodeSparse(sv)
		if !w.screen.Probe(w.rank, sv) {
			continue
		}
		joinIter, err := w.rejoinStart(f)
		if err != nil {
			return 0, err
		}
		// The grant's log entry (already folded in by announceRejoin)
		// carries the new incarnation; the old indictment no longer
		// matches it.
		w.selfQuar = false
		return joinIter, nil
	}
	return w.cfg.MaxIter, nil
}
