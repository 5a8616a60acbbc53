// Fail-recover (rejoin) extension of the elastic WLG runtime: a worker
// that died can come back as a NEW INCARNATION of its rank and be folded
// into the running world, restoring full-data convergence.
//
// The handshake is GG-centric, like everything else in elastic mode:
//
//  1. The returning rank announces itself (elKindRejoin) on the fixed
//     control tag. Announcements are idempotent: loss-driven re-announces
//     and fabric-duplicated frames re-serve the SAME grant and never mint
//     a second incarnation.
//  2. The GG mints the grant: a join iteration, a fresh incarnation
//     number, the current dead set (to seed the rejoiner's membership
//     view), and — when any group has flushed — the latest aggregate for
//     a warm start. It revives the rank in its own tracker via MarkUpAt
//     and appends (rank, joinIter, incarnation) to an append-only rejoin
//     log.
//  3. The log piggybacks on every subsequent GG control reply, and
//     Leaders forward it in their broadcast controls, so it reaches every
//     live rank without extra messages. Each rank applies an entry at the
//     first iteration boundary >= joinIter (MarkUpAt is idempotent and
//     incarnation-guarded, so replay is free and a stale entry cannot
//     resurrect a newer death). All ranks therefore re-admit the rejoiner
//     at the SAME boundary — no split-brain window where one Leader
//     gathers from it and another does not.
//
// The join iteration is maxIterSeen+2, where maxIterSeen is the highest
// iteration any contribution or recovery request has named. Safety: at
// grant time no contribution for maxIterSeen+1 has been received, so
// every GG reply for iteration maxIterSeen+1 — and hence every Leader
// broadcast for it — is sent after the grant and carries the log. Every
// rank that completes iteration joinIter-1 therefore holds the log before
// it starts joinIter, and the rejoiner's first round finds a world that
// expects it. The GG's flush accounting gates the revived rank on
// joinIter (activeFrom), so pending remainder groups for earlier
// iterations never wait on a rank that will not contribute to them.
package wlg

import (
	"errors"
	"fmt"

	"psrahgadmm/internal/collective"
	"psrahgadmm/internal/membership"
	"psrahgadmm/internal/sparse"
	"psrahgadmm/internal/wire"
)

const (
	// Fixed rejoin tags, beside tagElControl and below tagIterBase: the
	// grant control and its optional warm-start aggregate. The rejoiner
	// owns a fresh endpoint (a reopened channel slot or a new TCP
	// process), so no stale frame from its previous life can sit under
	// these tags.
	tagElRejoinReply int32 = 521
	tagElRejoinW     int32 = 522

	// elKindRejoin announces a returning incarnation to the GG:
	// Ints = [elKindRejoin, node, 0, 0].
	elKindRejoin = 4
)

// errDeadAtRejoin is the cause recorded for ranks the GG's grant reported
// dead: the rejoiner never exchanged a message with them, so this is
// adopted evidence, not transport evidence.
var errDeadAtRejoin = errors.New("wlg: reported dead in rejoin grant")

// rejoinGrant is what the GG minted for one returning incarnation. It is
// retained so duplicate announcements are answered identically.
type rejoinGrant struct {
	joinIter int
	inc      int
	warm     *sparse.Vector // latest flushed aggregate at grant time; nil = cold start
	warmCnt  int64
}

// ggRejoin is the Group Generator's fail-recover bookkeeping, threaded
// through runGGElastic.
type ggRejoin struct {
	tr *membership.Tracker
	// activeFrom[r] is the first iteration rank r may contribute to.
	// Zero for original incarnations; a rejoiner's grant boundary after
	// it returns. Flush accounting consults it per iteration so pending
	// remainders from before the join are not blocked by the revival.
	activeFrom []int
	// maxSeen is the highest iteration any contribution or recovery
	// request has named — the grant boundary's anchor.
	maxSeen int
	grants  map[int]*rejoinGrant
	// log is the append-only rejoin history, flattened (rank, joinIter,
	// incarnation) triples, piggybacked on every control reply.
	log []int64
	// Latest flushed aggregate, served as the rejoiner's warm start.
	lastAgg  *sparse.Vector
	lastCnt  int64
	lastIter int
}

func newGGRejoin(tr *membership.Tracker, world, startIter int) *ggRejoin {
	return &ggRejoin{
		tr:         tr,
		activeFrom: make([]int, world),
		maxSeen:    startIter - 1,
		grants:     make(map[int]*rejoinGrant),
		lastIter:   startIter - 1,
	}
}

// observe records that some rank is working on iter.
func (g *ggRejoin) observe(iter int) {
	if iter > g.maxSeen {
		g.maxSeen = iter
	}
}

// noteFlush retains the newest flushed aggregate for warm starts. The
// vector is the cache's, never mutated after flush, so aliasing is safe.
func (g *ggRejoin) noteFlush(iter int, w *sparse.Vector, cnt int64) {
	if iter >= g.lastIter {
		g.lastIter, g.lastAgg, g.lastCnt = iter, w, cnt
	}
}

// activeAt reports whether rank may still contribute to iteration iter
// (membership and done-ness are the caller's dimensions).
func (g *ggRejoin) activeAt(rank, iter int) bool { return g.activeFrom[rank] <= iter }

// admit serves a rejoin announcement. A duplicate — the rank is alive in
// the GG's view and holds a grant — returns the existing grant unchanged,
// so re-announces and fabric-duplicated frames are idempotent. Otherwise
// (first announcement, or the rank died again since its last grant) a new
// incarnation is minted, revived in the tracker, gated on its join
// iteration, and appended to the log. fresh reports which case ran.
func (g *ggRejoin) admit(from int) (grant *rejoinGrant, fresh bool) {
	if grant, ok := g.grants[from]; ok && g.tr.Alive(from) {
		return grant, false
	}
	grant = &rejoinGrant{
		joinIter: g.maxSeen + 2,
		inc:      g.tr.Incarnation(from) + 1,
		warm:     g.lastAgg,
		warmCnt:  g.lastCnt,
	}
	g.grants[from] = grant
	g.tr.MarkUpAt(from, grant.inc)
	g.activeFrom[from] = grant.joinIter
	g.log = append(g.log, int64(from), int64(grant.joinIter), int64(grant.inc))
	return grant, true
}

// noteQuarantine folds one piece of quarantine evidence into the GG's
// state: the victim is quarantined in the tracker and the evidence is
// appended to the log (where it piggybacks on every control reply).
// Idempotent under duplication and reordering: evidence for a rank that is
// already quarantined, dead, or reincarnated past the indicted incarnation
// is ignored, so the log gains at most one entry per (rank, incarnation).
// Returns whether the evidence was fresh.
func (g *ggRejoin) noteQuarantine(rank, iter, inc int) bool {
	if inc != g.tr.Incarnation(rank) || !g.tr.Alive(rank) {
		return false
	}
	e := membership.QuarantineLogEntry(rank, iter, inc)
	g.log = append(g.log, e[0], e[1], e[2])
	g.tr.Quarantine(rank)
	return true
}

// grantInts builds the grant control payload:
//
//	[joinIter, incarnation, haveW, warmCount, nDead, dead..., log...]
//
// The dead set is read at reply time (fresher is better for seeding the
// rejoiner's view); the idempotent part of the grant never changes.
func (g *ggRejoin) grantInts(grant *rejoinGrant) []int64 {
	dead := g.tr.Dead()
	ints := make([]int64, 0, 5+len(dead)+len(g.log))
	have := int64(0)
	if grant.warm != nil {
		have = 1
	}
	ints = append(ints, int64(grant.joinIter), int64(grant.inc), have, grant.warmCnt, int64(len(dead)))
	for _, r := range dead {
		ints = append(ints, int64(r))
	}
	return append(ints, g.log...)
}

// rejoinStart runs the announce handshake for a returning incarnation and
// surfaces the warm start, densified, through f.Rejoined. It returns the
// granted join iteration — the first one this rank executes (possibly >=
// MaxIter, in which case the caller's loop body never runs and the rank
// goes straight to its done farewell).
func (w *worker) rejoinStart(f WorkerFuncs) (int, error) {
	joinIter, warm, warmCnt, err := w.announceRejoin()
	if err != nil {
		return 0, err
	}
	if f.Rejoined != nil {
		var dense []float64 // stays nil on a cold start
		if warm != nil {
			dense = warm.ToDense()
		}
		f.Rejoined(joinIter, dense, warmCnt)
	}
	return joinIter, nil
}

// announceRejoin sends the announcement and awaits the grant,
// re-announcing on loss (the GG answers duplicates with the same grant).
func (w *worker) announceRejoin() (joinIter int, warm *sparse.Vector, warmCnt int, err error) {
	for cycle := 0; cycle < elasticCycles; cycle++ {
		if err := w.ep.Send(w.gg, wire.Control(tagElControl, elKindRejoin, int64(w.node), 0, 0)); err != nil {
			return 0, nil, 0, fmt.Errorf("wlg: rank %d rejoin announce: %w", w.rank, err)
		}
		ctl, err := collective.RecvRetry(w.ep, w.gg, tagElRejoinReply, w.pol)
		if err != nil {
			if errors.Is(err, collective.ErrUnavailable) {
				continue // announce or grant lost: re-announce
			}
			return 0, nil, 0, fmt.Errorf("wlg: rank %d rejoin grant: %w", w.rank, err)
		}
		if err := controlInts(&ctl, 5); err != nil {
			return 0, nil, 0, fmt.Errorf("wlg: rank %d rejoin grant: %w", w.rank, err)
		}
		joinIter = int(ctl.Ints[0])
		haveW, cnt := ctl.Ints[2], ctl.Ints[3]
		switch {
		case joinIter < w.cfg.StartIter:
			return 0, nil, 0, fmt.Errorf("wlg: rank %d rejoin grant joins at iteration %d, before the run's start %d: %w",
				w.rank, joinIter, w.cfg.StartIter, collective.ErrPayloadKind)
		case haveW != 0 && haveW != 1:
			return 0, nil, 0, fmt.Errorf("wlg: rank %d rejoin grant warm-start word %d, want 0 or 1: %w",
				w.rank, haveW, collective.ErrPayloadKind)
		case haveW == 1 && (cnt < 1 || cnt > int64(w.cfg.Topo.Size())):
			return 0, nil, 0, fmt.Errorf("wlg: rank %d rejoin grant warm start over %d contributors, outside [1, %d]: %w",
				w.rank, cnt, w.cfg.Topo.Size(), collective.ErrPayloadKind)
		}
		// The count is bounded before 5+nDead is formed, which could overflow.
		workers := int64(w.cfg.Topo.Size())
		if n := ctl.Ints[4]; n < 0 || n > workers || n > int64(len(ctl.Ints)-5) {
			return 0, nil, 0, fmt.Errorf("wlg: rank %d rejoin grant names %d dead ranks in %d ints, outside [0, %d]: %w",
				w.rank, n, len(ctl.Ints)-5, workers, collective.ErrPayloadKind)
		}
		nDead := int(ctl.Ints[4])
		// Seed the fresh incarnation's view: the world's deaths, and the
		// rejoin log (which includes this rank's own grant — applying it
		// records the incarnation so a stale log entry can never
		// resurrect us for our peers after a later death). A refused grant
		// fails the handshake, so a view half seeded is never used.
		for _, r := range ctl.Ints[5 : 5+nDead] {
			if r < 0 || r >= workers {
				return 0, nil, 0, fmt.Errorf("wlg: rank %d rejoin grant names dead rank %d outside [0, %d): %w",
					w.rank, r, workers, collective.ErrPayloadKind)
			}
			if int(r) != w.rank {
				w.tr.MarkDown(int(r), errDeadAtRejoin)
			}
		}
		w.noteJoins(ctl.Ints[5+nDead:])
		if haveW == 0 {
			return joinIter, nil, 0, nil
		}
		wm, err := collective.RecvRetry(w.ep, w.gg, tagElRejoinW, w.pol)
		if err != nil {
			if errors.Is(err, collective.ErrUnavailable) {
				continue // grant arrived but the warm start was lost: redo both
			}
			return 0, nil, 0, fmt.Errorf("wlg: rank %d rejoin warm start: %w", w.rank, err)
		}
		warm, err = collective.SparsePayload(&wm, -1)
		return joinIter, warm, int(cnt), err
	}
	return 0, nil, 0, fmt.Errorf("wlg: rank %d: no rejoin grant after %d announcements: %w",
		w.rank, elasticCycles, collective.ErrUnavailable)
}

// noteJoins retains the GG's rejoin log. Every control reply carries the
// full log (it is append-only at the GG), so the longest copy seen is the
// most complete; shorter, older copies are ignored.
func (w *worker) noteJoins(ints []int64) {
	if len(ints) > len(w.joinLog) {
		w.joinLog = append(w.joinLog[:0], ints...)
	}
}

// applyJoins folds the rejoin log into this rank's membership view for
// iteration iter. An entry (rank, joinIter, inc) cuts both ways:
//
//   - joinIter <= iter: the new incarnation serves this iteration —
//     revive it. MarkUpAt is idempotent and incarnation-guarded, so
//     replaying the log every iteration is free and an entry for an
//     incarnation that has since died again is a no-op.
//   - joinIter > iter: the grant PROVES incarnation inc-1 is dead and its
//     successor serves nothing before joinIter, so for this iteration the
//     rank is down. This matters because transport evidence of the old
//     incarnation's death can be unobservable once the new one owns the
//     endpoint (sends to it succeed, receives merely time out): without
//     the log a survivor would keep electing the dead Leader and wedge
//     the round. The incarnation guard keeps this monotone — once this
//     view has adopted inc (or newer), the entry never kills again.
//
// All ranks holding the log therefore exclude and re-admit a rejoiner at
// the same boundaries, keeping elections and gather sets convergent.
//
// Quarantine evidence rides the same log as membership.QuarantineLogEntry
// triples (negative first element). It is applied in a SECOND pass, after
// every rejoin triple, so the incarnation guard always judges evidence
// against the final incarnation for this boundary: a quarantine of
// incarnation k followed by a rejoin minting k+1 nets out to "alive",
// whatever order the passes would otherwise visit them in. An entry that
// indicts THIS rank's current incarnation raises selfQuar instead of
// touching the tracker — being quarantined is something a rank does to
// its behavior (probation), not to its own membership view.
func (w *worker) applyJoins(iter int) {
	for i := 0; i+2 < len(w.joinLog); i += 3 {
		rank, joinIter, inc, quar := membership.ParseLogEntry(w.joinLog[i], w.joinLog[i+1], w.joinLog[i+2])
		if quar {
			continue
		}
		if joinIter <= iter {
			// A new incarnation starts with a clean screen too, as the
			// engine's readmission does: the old life's strikes would
			// indict it at its first flag.
			if w.tr.MarkUpAt(rank, inc) {
				w.screen.Reset(rank)
			}
		} else if rank != w.rank && w.tr.Incarnation(rank) < inc && w.tr.Alive(rank) {
			w.tr.MarkDown(rank, errDeadAtRejoin)
		}
	}
	w.selfQuar = false
	for i := 0; i+2 < len(w.joinLog); i += 3 {
		rank, _, inc, quar := membership.ParseLogEntry(w.joinLog[i], w.joinLog[i+1], w.joinLog[i+2])
		if !quar || inc != w.tr.Incarnation(rank) {
			continue // superseded by a later incarnation (or not evidence)
		}
		if rank == w.rank {
			w.selfQuar = true
			continue
		}
		w.tr.Quarantine(rank)
	}
}
