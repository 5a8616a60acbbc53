package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"psrahgadmm/internal/collective"
	"psrahgadmm/internal/shard"
	"psrahgadmm/internal/sparse"
	"psrahgadmm/internal/transport"
	"psrahgadmm/internal/vec"
	"psrahgadmm/internal/wire"
)

// commKind selects which allreduce schedule a leader group runs.
type commKind int

const (
	commPSRSparse commKind = iota
	commRingSparse
)

// errRoundCorrupt marks a round failure caused by a wire frame failing its
// integrity check mid-collective. Unlike errPeersLost it is retryable in
// BOTH failure modes: the fabric is healthy, the checksum-failed frame was
// dropped before anyone read it, and a fresh attempt under a new tag
// window simply re-ships the round. The engine bounds the retries so a
// persistently poisoned link still fails fast with a typed cause.
var errRoundCorrupt = errors.New("core: corrupt frame detected mid-round")

// crewJob is one member's share of a collective round: it reads in and
// writes the aggregate into out, or assembles none when out is nil. member
// is its index in the group, the slot its trace lands in.
type crewJob struct {
	kind    commKind
	member  int
	g       collective.Group
	tagBase int32
	in      *sparse.Vector
	out     *sparse.Vector
	// plan, when non-nil, turns commPSRSparse into the shard-aware schedule
	// (PSR key ownership applied to the plan's blocks).
	plan *shard.Plan
	// spec is the PSR and shard kinds' owner-side combine step; the ring is
	// pairwise and ignores it (robust × ring is rejected by
	// checkComposition).
	spec collective.AggSpec
}

// crew is the run-persistent collective executor: one goroutine per world
// rank, fed one crewJob per collective round through its own channel. The
// per-round form this replaces — spawn a goroutine per member, allocate
// results, traces, endpoint wrappers, and a whole collective.Workspace per
// call — put every round's collective on the heap; the crew keeps all of
// it warm. Per-rank Workspaces grow to the round's (group size, dim) shape
// once and are reused for the rest of the run; elastic regroups simply
// present a smaller group and the workspaces adapt in place.
//
// Rounds are dispatched strictly sequentially from the single strategy
// goroutine, so per-rank result slots need no locks: wg.Wait() is the
// barrier that orders every slot write before the dispatcher reads it.
type crew struct {
	env    *strategyEnv
	jobs   []chan crewJob
	wg     sync.WaitGroup
	wss    []collective.Workspace
	outs   []*sparse.Vector   // per-member restricted results of the shard schedule (see groupAllreduce)
	traces []collective.Trace // by member index: the round's send logs, where the collectives wrote them
	errs   []error
	eps    []transport.Endpoint // pre-boxed
	// stop is the round abort latch, reset per round. The first member to
	// fail sets it and wakes every endpoint, whose receivers then stop with
	// errRoundAborted (roundAborted is their standing reason). The fabric
	// survives the attempt — an elastic regroup or a corrupt-frame retry
	// re-runs the round over it — and stragglers of the aborted attempt,
	// which are still delivered, sit under a tag window no retry draws.
	stop atomic.Bool
}

func newCrew(env *strategyEnv) *crew {
	n := len(env.ws)
	c := &crew{
		env:    env,
		jobs:   make([]chan crewJob, n),
		wss:    make([]collective.Workspace, n),
		outs:   make([]*sparse.Vector, n),
		traces: make([]collective.Trace, n),
		errs:   make([]error, n),
		eps:    make([]transport.Endpoint, n),
	}
	for r := 0; r < n; r++ {
		ep := env.fab.Endpoint(r).(transport.Wakeable)
		ep.StopWhen(c.roundAborted)
		c.eps[r] = ep
		c.outs[r] = new(sparse.Vector)
		c.jobs[r] = make(chan crewJob)
		go c.serve(r)
	}
	return c
}

// roundAborted is every crew endpoint's reason to stop waiting.
func (c *crew) roundAborted(int, int32) error {
	if c.stop.Load() {
		return errRoundAborted
	}
	return nil
}

func (c *crew) serve(r int) {
	for job := range c.jobs[r] {
		var err error
		var tr collective.Trace
		switch job.kind {
		case commPSRSparse:
			if job.plan != nil {
				tr, err = c.wss[r].ShardAllreduceSparseAgg(c.eps[r], job.g, job.tagBase, job.plan, job.in, job.out, job.spec)
			} else {
				// Member 0 is the one groupAllreduce hands out to.
				tr, err = c.wss[r].PSRAllreduceSparseAgg(c.eps[r], job.g, job.tagBase, job.in, job.out, job.spec, 0)
			}
		case commRingSparse:
			tr, err = c.wss[r].RingAllreduceSparse(c.eps[r], job.g, job.tagBase, job.in, job.out)
		default:
			err = fmt.Errorf("core: unknown comm kind %d", job.kind)
		}
		c.traces[job.member], c.errs[r] = tr, err
		if err != nil {
			// Unblock the rest of the group: set the latch, then wake.
			if !c.stop.Swap(true) {
				for _, ep := range c.eps {
					ep.(transport.Wakeable).Wake()
				}
			}
			// The failed attempt may have abandoned async sends that still
			// read this workspace's buffers; nothing refuses them, so they
			// finish promptly, and a retry must not reuse the buffers
			// until they do. wg.Done() below orders the wait before the
			// dispatcher can launch the next round.
			c.wss[r].AbandonSends()
		}
		c.wg.Done()
	}
}

// close stops the crew goroutines; no round may be in flight.
func (c *crew) close() {
	for _, ch := range c.jobs {
		close(ch)
	}
}

// collect classifies the round's member errors. Non-elastic, it picks the
// most informative one: a typed PeerDownError beats a generic failure,
// which beats the errRoundAborted noise the latch itself produced on the
// other members (and a killed member's own ErrClosed); a round whose only
// real failure is a
// checksum-dropped frame is wrapped in errRoundCorrupt for the engine to
// retry. Elastic, it translates errors into membership facts — a
// PeerDownError marks its peer dead, a member's own ErrClosed marks that
// member dead (its endpoint was killed under it; the fabric is never
// closed mid-run) — and wraps retryable peer loss in errPeersLost so the
// engine re-runs the round over the survivors; corruption with no deaths
// is again errRoundCorrupt (peer loss wins when both appear — membership
// already changed, and the regroup retry re-ships everything anyway). Any
// other error is non-retryable and returned as-is.
func (c *crew) collect(what string, ranks []int) error {
	if !c.env.elastic {
		var fallback, corrupt error
		for _, r := range ranks {
			err := c.errs[r]
			if err == nil || errors.Is(err, errRoundAborted) {
				continue
			}
			var pd *transport.PeerDownError
			if errors.As(err, &pd) {
				return fmt.Errorf("core: %s rank %d: %w", what, r, err)
			}
			if errors.Is(err, wire.ErrFrameCorrupt) {
				if corrupt == nil {
					corrupt = fmt.Errorf("core: %s rank %d: %v: %w", what, r, err, errRoundCorrupt)
				}
				continue
			}
			if fallback == nil || errors.Is(fallback, transport.ErrClosed) && !errors.Is(err, transport.ErrClosed) {
				fallback = fmt.Errorf("core: %s rank %d: %w", what, r, err)
			}
		}
		if fallback != nil {
			return fallback
		}
		return corrupt
	}
	var cause, corrupt error
	lost := false
	for _, r := range ranks {
		err := c.errs[r]
		if err == nil || errors.Is(err, errRoundAborted) {
			continue
		}
		var pd *transport.PeerDownError
		switch {
		case errors.As(err, &pd):
			c.env.members.MarkDown(pd.Peer, pd)
			lost = true
		case errors.Is(err, wire.ErrFrameCorrupt):
			if corrupt == nil {
				corrupt = fmt.Errorf("core: %s rank %d: %v: %w", what, r, err, errRoundCorrupt)
			}
			continue
		case errors.Is(err, transport.ErrClosed):
			c.env.members.MarkDown(r, err)
			lost = true
		default:
			return fmt.Errorf("core: %s rank %d: %w", what, r, err)
		}
		if cause == nil {
			cause = err
		}
	}
	if lost {
		return fmt.Errorf("core: %s: %v: %w", what, cause, errPeersLost)
	}
	return corrupt
}

// groupAllreduce runs the *actual* collective implementation among the
// given world ranks over the engine's scratch fabric — the crew's
// persistent member goroutines — and returns the members' traces, in member
// order. The engine's virtual clock is driven by real message sizes, not an
// analytic formula; this is what keeps the Figure 6/7 communication times
// honest about sparsity. Each invocation draws a fresh tag window, so a
// retried attempt can never match an aborted attempt's stale messages. The
// returned traces are a view of crew scratch, each aliasing its member's
// workspace (consume them before the next collective).
//
// With a nil plan only member 0 assembles the full aggregate, into the
// caller-owned out, which later rounds never touch, so strategies may
// retain it; the others run the same schedule with a nil out, and under
// PSR they receive no allgather (root 0) while the trace still charges it.
// With a plan
// (commPSRSparse only) the shard-aware schedule runs: each member ships
// only the blocks it subscribes to or owns and receives its RESTRICTED
// result — its own subscription, not the full W — in c.outs[r], valid
// until the next collective; no rank holds the full reduction and out is
// untouched.
func groupAllreduce(env *strategyEnv, ranks []int, kind commKind, plan *shard.Plan, inputs []*sparse.Vector, out *sparse.Vector) ([]collective.Trace, error) {
	if len(ranks) != len(inputs) {
		panic("core: groupAllreduce ranks/inputs mismatch")
	}
	c := env.crew
	tagBase := env.nextTagBase()
	g := collective.Group{Ranks: ranks}
	c.stop.Store(false)
	c.wg.Add(len(ranks))
	for i, r := range ranks {
		dst := out
		if plan != nil {
			dst = c.outs[r]
		} else if i > 0 {
			dst = nil
		}
		c.jobs[r] <- crewJob{kind: kind, member: i, g: g, tagBase: tagBase, in: inputs[i], out: dst, plan: plan, spec: env.agg}
	}
	c.wg.Wait()
	if err := c.collect("group allreduce", ranks); err != nil {
		return nil, err
	}
	return c.traces[:len(ranks)], nil
}

// zFromW applies the L1 z-update (eq. 10, N·ρ scaling) directly on a
// sparse W summing n contributors, into dst: only entries with |W_j| > λ
// survive, which is why the downstream distribution ships z rather than W —
// same math, a fraction of the bytes.
func zFromW(dst, w *sparse.Vector, lambda, rho float64, n int) *sparse.Vector {
	return zFromWBlocks(dst, w, lambda, rho, []int{0, w.Dim}, []int{n})
}

// zFromWBlocks is zFromW with per-block contributor counts, and core's one
// z-update body: block b covers [offs[b], offs[b+1]) and entry j averages
// over counts[b], the live subscribers whose objective actually couples to
// block b (block-wise general-form consensus). dst is emptied first, its
// backing arrays reused. The scalar expression is solver.ZUpdateL1Blocks';
// a block with no live subscriber keeps z = 0 whatever W holds there.
func zFromWBlocks(dst, w *sparse.Vector, lambda, rho float64, offs, counts []int) *sparse.Vector {
	dst.Reset(w.Dim)
	// Indices arrive sorted: advance a block cursor, not a per-entry BlockOf.
	// inv = 0 marks a block with no live subscriber: 1/(ρ·n) is never 0.
	b, hi := -1, 0
	var inv float64
	for k, idx := range w.Index {
		for int(idx) >= hi {
			b++
			hi = offs[b+1]
			inv = 0
			if n := counts[b]; n > 0 {
				inv = 1 / (rho * float64(n))
			}
		}
		if inv == 0 {
			continue
		}
		if v := vec.SoftThreshold(w.Value[k], lambda) * inv; v != 0 {
			dst.Index = append(dst.Index, idx)
			dst.Value = append(dst.Value, v)
		}
	}
	return dst
}
