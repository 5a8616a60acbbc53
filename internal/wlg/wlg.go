// Package wlg implements the paper's Worker-Leader-Group generator
// framework (§4.3, Algorithms 1–3) as a real message-passing runtime over
// transport.Endpoint:
//
//   - Workers on one physical node form an intra-node communication domain
//     and elect a Leader (the node's first rank, mirroring how MPI
//     communicators elect rank 0).
//   - Each iteration, workers reduce their contribution w_i to the Leader
//     (BSP, blocking — the fast memory bus), the Leader reports to the
//     Group Generator, the GG batches Leaders into inter-node groups of a
//     configurable threshold in arrival order (FIFO queue GQ), and each
//     group runs PSR-Allreduce among its Leaders before the Leaders
//     broadcast the aggregate back to their workers.
//
// Every data frame on every hop is a sparse vector (wire.SparseMsg): a
// worker sparsifies its ComputeW output once, the codec encodes that
// vector (value rounding, or top-k selection with error feedback), the
// collectives and the GG sum sparse vectors, and each rank densifies once,
// right before ApplyW. Which Leaders form a group depends on arrival; the
// ORDER inside a group does not — the GG sorts every group by node id, so
// PSR chunk ownership, summation order, and therefore every aggregate bit
// and every byte count are a function of group composition alone.
//
// The runtime is algorithm-agnostic: the ADMM math is supplied through
// callbacks, so the same machinery serves PSRA-HGADMM and its flat
// PSRA-ADMM special case (threshold = all nodes). It runs identically over
// the in-process channel fabric and the TCP fabric.
package wlg

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"psrahgadmm/internal/collective"
	"psrahgadmm/internal/exchange"
	"psrahgadmm/internal/simnet"
	"psrahgadmm/internal/sparse"
	"psrahgadmm/internal/transport"
	"psrahgadmm/internal/watchdog"
	"psrahgadmm/internal/wire"
)

// GGRank returns the world rank reserved for the Group Generator: one past
// the last worker. A WLG world therefore has topo.Size()+1 endpoints.
func GGRank(topo simnet.Topology) int { return topo.Size() }

// WorldSize returns the endpoint count a WLG run needs (workers + GG).
func WorldSize(topo simnet.Topology) int { return topo.Size() + 1 }

// LeaderOf returns the rank acting as Leader for node n (its first worker).
func LeaderOf(topo simnet.Topology, n int) int { return n * topo.WorkersPerNode }

// IsLeader reports whether rank r is its node's Leader.
func IsLeader(topo simnet.Topology, r int) bool {
	return r == LeaderOf(topo, topo.NodeOf(r))
}

// Tag layout: each iteration gets a disjoint tag window so messages from
// consecutive iterations cannot be confused even when groups run ahead.
const (
	tagsPerIter = 8
	tagIterBase = 1 << 10
	offIntraRed = 0
	offGGReply  = 2
	offInterAR  = 3 // PSR-Allreduce uses two tags: offInterAR, offInterAR+1
	offIntraBc  = 5
	offIntraBc2 = 6

	// tagGGRequest is the single fixed tag Leaders use to report to the
	// GG; the iteration travels in the payload so the GG can match
	// requests from interleaved iterations with one Recv.
	tagGGRequest int32 = 512
)

func iterTag(iter, off int) int32 {
	return int32(tagIterBase + iter*tagsPerIter + off)
}

// controlInts checks that a peer's frame m holds at least n control ints
// before any is read. Over TCP the frame comes from another process, so a
// shorter one is a protocol confusion to report as an error wrapping
// collective.ErrPayloadKind, never an index panic.
func controlInts(m *wire.Message, n int) error {
	if len(m.Ints) < n {
		return fmt.Errorf("wlg: tag %d from %d carries kind %v with %d ints, want a control of at least %d: %w",
			m.Tag, m.From, m.Kind, len(m.Ints), n, collective.ErrPayloadKind)
	}
	return nil
}

// Config parameterizes a WLG run.
type Config struct {
	Topo simnet.Topology
	// MaxIter is the number of outer ADMM iterations.
	MaxIter int
	// GroupThreshold is the GQ batching threshold in Leaders. Values < 1
	// or > Nodes are clamped to Nodes (one global group = exact
	// consensus, the "ungrouped" baseline of Figure 7).
	GroupThreshold int
	// Codec selects the exchange representation from the same codec axis
	// the engine's registry binds (exchange.Kinds()). Every codec encodes
	// the worker's sparsified contribution before it enters the intra-node
	// reduce, so the runtime aggregates exactly what a real lossy wire
	// would deliver: the rounding kinds (dense-f32, the q8/q16 quantizers)
	// round values, and the top-k kinds select coordinates through a
	// per-rank error-feedback exchange.State. Empty means the exact
	// exchange.
	Codec exchange.Kind
	// CodecBudgetBytes targets the top-k codecs' adaptive selection: each
	// rank steers its k so its own contribution's wire bytes approach this
	// figure. 0 keeps the default fixed k. Ignored by non-topk codecs.
	CodecBudgetBytes int64
	// Elastic selects fail-survive semantics: worker deaths shrink the
	// world instead of aborting the run. Each rank keeps a membership view
	// fed by transport evidence, nodes re-elect their Leader as the first
	// live rank, and inter-node aggregation routes through the Group
	// Generator (which caches per-iteration results so orphaned workers
	// can recover them) instead of the leader-to-leader PSR-Allreduce —
	// robustness bought with GG bandwidth. See elastic.go.
	Elastic bool
	// StartIter is the first iteration to execute (resume support: a run
	// restored from a checkpoint at iteration k passes StartIter = k).
	// Iteration tags are absolute, so a resumed world is wire-compatible
	// with a fresh one.
	StartIter int
	// Rejoin marks this rank as a returning incarnation of a previously
	// dead worker (fail-recover). Instead of starting at StartIter, the
	// rank announces itself to the Group Generator, receives its join
	// iteration, the current dead set, and the latest group aggregate for
	// a warm start (surfaced through WorkerFuncs.Rejoined), and enters the
	// elastic loop at the join boundary — the iteration from which every
	// survivor's membership view re-admits it. Requires Elastic; see
	// rejoin.go for the handshake.
	Rejoin bool
	// retry bounds every elastic-mode wait on a peer (the Leader's gather,
	// the GG round trips, the member's wait for the broadcast). The zero
	// value, which every product run uses, means the collective package
	// defaults; in-package tests shorten or lengthen it. Only consulted
	// when Elastic is set.
	retry collective.RetryPolicy
	// Watchdog enables per-rank divergence detection: each worker scans
	// its own contribution and every received aggregate for NaN/Inf and
	// tracks their magnitudes against a sliding window (the runtime never
	// sees residuals — those are the algorithm's business — so the
	// watchdog monitors the vectors that actually cross the wire). A trip
	// surfaces as a typed *DivergedError before ApplyW runs, so poisoned
	// aggregates never reach algorithm state; the caller recovers by
	// relaunching from the last snapshot with StartIter. See recover.go.
	Watchdog watchdog.Config
	// Aggregator selects the consensus statistic the elastic Group
	// Generator applies when it flushes a group: "mean" (the default — the
	// exact sum path, bit-identical to the pre-aggregator runtime),
	// "trimmed-mean", or "coordinate-median". Robust statistics are non-associative, so they require Elastic mode,
	// where the GG is the runtime's single combine point; the fail-stop
	// leader-to-leader PSR-Allreduce is sum-only. Granularity is the
	// node: a group's entries are per-node sums, so one Byzantine worker
	// poisons its node's entry and the trim drops that whole node.
	Aggregator string
	// TrimF is the per-side trim count for "trimmed-mean" (0 defaults to
	// 1). Ignored by the other aggregators.
	TrimF int
	// Screen enables leader-side contribution screening (elastic only):
	// each Leader scores every gathered member contribution against that
	// member's own running baseline, excludes flagged contributions from
	// the node sum, and — after the screen's strike limit of consecutive
	// flags — quarantines the member and publishes the evidence through the
	// GG's append-only log, where it piggybacks on every control reply
	// exactly like a rejoin record. A quarantined rank re-enters through the
	// rejoin handshake after watchdog.QuarantineRounds clean self-probes.
	Screen watchdog.ScreenConfig
}

// codec resolves the configured exchange codec, defaulting to exact.
func (c Config) codec() (exchange.Codec, error) {
	k := c.Codec
	if k == "" {
		k = exchange.Sparse
	}
	return exchange.For(k)
}

func (c Config) threshold() int {
	t := c.GroupThreshold
	if t < 1 || t > c.Topo.Nodes {
		t = c.Topo.Nodes
	}
	return t
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Topo.Validate(); err != nil {
		return err
	}
	if c.MaxIter <= 0 {
		return fmt.Errorf("wlg: MaxIter must be positive, got %d", c.MaxIter)
	}
	if c.StartIter < 0 || c.StartIter >= c.MaxIter {
		return fmt.Errorf("wlg: StartIter %d outside [0, MaxIter=%d)", c.StartIter, c.MaxIter)
	}
	if c.Rejoin && !c.Elastic {
		return fmt.Errorf("wlg: Rejoin requires Elastic mode (the fail-stop protocol cannot re-admit ranks)")
	}
	if _, err := c.codec(); err != nil {
		return fmt.Errorf("wlg: %w", err)
	}
	if c.CodecBudgetBytes < 0 {
		return fmt.Errorf("wlg: CodecBudgetBytes must be non-negative, got %d", c.CodecBudgetBytes)
	}
	spec, err := collective.ResolveAgg(c.Aggregator, c.TrimF)
	if err != nil {
		return fmt.Errorf("wlg: %w", err)
	}
	if spec.Robust() && !c.Elastic {
		return fmt.Errorf("wlg: aggregator %q requires Elastic mode (a robust statistic is non-associative and needs the GG as the single combine point; the fail-stop leader PSR-Allreduce is sum-only)", c.Aggregator)
	}
	// The GG combines node sums, so the trim is bounded by the node count.
	if f := spec.Tolerance(c.Topo.Nodes); 2*f >= c.Topo.Nodes {
		return fmt.Errorf("wlg: TrimF %d trims everything: need 2·TrimF < %d nodes", f, c.Topo.Nodes)
	}
	if c.Screen.Enabled && !c.Elastic {
		return fmt.Errorf("wlg: contribution screening requires Elastic mode (quarantine is a membership transition the fail-stop protocol cannot express)")
	}
	return nil
}

// WorkerFuncs supplies the algorithm math to the runtime. The runtime
// guarantees ComputeW and ApplyW are called exactly once per iteration, in
// order, from the worker's own goroutine — with one exception: a
// QUARANTINED rank's probation calls ComputeW for iterations it sits out,
// with no matching ApplyW (the contribution is screened locally, never
// shipped), and its post-rejoin loop resumes at the granted join
// iteration, skipping the quarantined range entirely.
type WorkerFuncs struct {
	// ComputeW returns the worker's contribution w_i = y_i + ρ·x_i for the
	// given iteration (the paper's step 7–8 of Algorithm 1). The returned
	// slice is not retained.
	ComputeW func(iter int) []float64
	// ApplyW receives the aggregated W for the worker's group and the
	// number of workers whose contributions it sums; the worker performs
	// the z- and y-updates (steps 12–13).
	ApplyW func(iter int, w []float64, contributors int)
	// Rejoined, if set, is called once on a Config.Rejoin rank before its
	// first iteration, with the join iteration the Group Generator
	// granted and the latest group aggregate plus its contributor count
	// for a warm start (w is nil on a cold start: no round had flushed
	// yet). The slice is not retained by the runtime. Ranks without
	// Config.Rejoin never receive this call.
	Rejoined func(joinIter int, w []float64, contributors int)
}

// RunWorker executes Algorithm 1 (and Algorithm 3 when this rank is its
// node's Leader) for MaxIter iterations. It must be called concurrently on
// every worker rank while RunGG serves GGRank. With cfg.Elastic it runs
// the fail-survive protocol of elastic.go instead; RunWorkerInfo
// additionally reports the degradation summary that path accumulates.
func RunWorker(ep transport.Endpoint, cfg Config, f WorkerFuncs) error {
	_, err := RunWorkerInfo(ep, cfg, f)
	return err
}

// RunWorkerInfo is RunWorker plus the run's RunInfo: the rank's final
// membership view and how many contributions its gathers skipped. Process
// launchers use it to distinguish a degraded-but-complete run (exit code
// "degraded") from a clean one.
func RunWorkerInfo(ep transport.Endpoint, cfg Config, f WorkerFuncs) (*RunInfo, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if f.ComputeW == nil || f.ApplyW == nil {
		return nil, fmt.Errorf("wlg: WorkerFuncs incomplete")
	}
	topo := cfg.Topo
	rank := ep.Rank()
	if rank >= topo.Size() {
		return nil, fmt.Errorf("wlg: rank %d is not a worker (world has %d workers)", rank, topo.Size())
	}
	if cfg.Elastic {
		return runWorkerElastic(ep, cfg, f)
	}
	if err := runWorkerPlain(ep, cfg, f); err != nil {
		return nil, err
	}
	return &RunInfo{LiveWorkers: topo.Size()}, nil
}

// encodeContribution turns sv into what the wire delivers, in place. st is
// the rank's error-feedback state (exchange.NewState: nil unless the codec
// is a top-k kind). Top-k runs its selection and then steers k from this
// rank's own wire bytes — each rank observes only its contribution here,
// unlike the engine where every rank sees the round total. Every other
// codec rounds values.
func encodeContribution(codec exchange.Codec, st *exchange.State, sv *sparse.Vector) {
	if st == nil {
		codec.EncodeSparse(sv)
		return
	}
	st.Encode(sv)
	st.Adapt(st.WireBytes(sv.NNZ()))
}

// runWorkerPlain is the fail-stop worker loop: every peer is assumed
// alive, every wait is unbounded, and the first failure aborts.
//
// All per-iteration scratch — the sparse contribution, the collective
// workspace, the leader's group membership and control payloads — is
// allocated once before the loop and reused, so a warmed iteration
// allocates nothing in the runtime itself (see DESIGN.md "Memory model &
// buffer ownership"). Transport-level copies remain the fabric's business.
func runWorkerPlain(ep transport.Endpoint, cfg Config, f WorkerFuncs) error {
	topo := cfg.Topo
	rank := ep.Rank()
	node := topo.NodeOf(rank)
	intra := collective.NewGroup(topo.WorkersOf(node)...)
	leader := IsLeader(topo, rank)
	gg := GGRank(topo)
	codec, err := cfg.codec() // Validate already vetted the kind
	if err != nil {
		return fmt.Errorf("wlg: %w", err)
	}
	st := exchange.NewState(cfg.Codec, cfg.CodecBudgetBytes)

	var ws collective.Workspace
	var dense []float64        // the densified aggregate handed to ApplyW
	sv := new(sparse.Vector)   // this rank's encoded contribution
	part := new(sparse.Vector) // Leader: node partial sum
	agg := new(sparse.Vector)  // group aggregate
	members := make([]int, 0, topo.Nodes)
	var ggReq [2]int64 // node, iter — rewritten only after the GG replied
	var cnt [1]int64
	wd := newWatch(cfg, rank)

	for iter := cfg.StartIter; iter < cfg.MaxIter; iter++ {
		w := f.ComputeW(iter)
		// The scan runs on the raw ComputeW output: a NaN absorbed into a
		// top-k error-feedback residual would re-poison every later round.
		if err := wd.checkOwn(iter, w); err != nil {
			return err
		}
		// Lossy codecs act before anything is communicated: the aggregate
		// every worker applies is built from wire-precision values,
		// matching what a real cluster would sum.
		sv = sparse.FromDenseInto(sv, w)
		encodeContribution(codec, st, sv)

		// Step 9: intra-node reduce to the Leader over the bus.
		if _, err := ws.ReduceSparse(ep, intra, iterTag(iter, offIntraRed), 0, sv, part); err != nil {
			return fmt.Errorf("wlg: rank %d iter %d intra reduce: %w", rank, iter, err)
		}

		var contributors int
		if leader {
			// Algorithm 3: report to the GG, receive the inter-node group.
			ggReq[0], ggReq[1] = int64(node), int64(iter)
			if err := ep.Send(gg, wire.Control(tagGGRequest, ggReq[:]...)); err != nil {
				return fmt.Errorf("wlg: leader %d iter %d GG request: %w", rank, iter, err)
			}
			reply, err := ep.Recv(gg, iterTag(iter, offGGReply))
			if err != nil {
				return fmt.Errorf("wlg: leader %d iter %d GG reply: %w", rank, iter, err)
			}
			// A duplicated node, or a group without this node, is the
			// collective's to refuse; a node outside the world is not,
			// since node Nodes maps to the GG's own rank.
			members = members[:0]
			for _, n := range reply.Ints {
				if n < 0 || n >= int64(topo.Nodes) {
					return fmt.Errorf("wlg: leader %d iter %d: GG reply names node %d outside [0, %d): %w",
						rank, iter, n, topo.Nodes, collective.ErrPayloadKind)
				}
				members = append(members, LeaderOf(topo, int(n)))
			}
			inter := collective.NewGroup(members...)
			// PSR-Allreduce of W among the group's Leaders: the node
			// partials carry whatever supports their workers shipped, and
			// the scatter-reduce sums them block-wise without densifying.
			if _, err := ws.PSRAllreduceSparse(ep, inter, iterTag(iter, offInterAR), part, agg); err != nil {
				return fmt.Errorf("wlg: leader %d iter %d PSR allreduce: %w", rank, iter, err)
			}
			contributors = inter.Size() * topo.WorkersPerNode
			// Step 4: broadcast the aggregate and its contributor count.
			cnt[0] = int64(contributors)
			if _, err := ws.BroadcastSparse(ep, intra, iterTag(iter, offIntraBc), 0, agg, nil, sv.Dim); err != nil {
				return fmt.Errorf("wlg: leader %d iter %d intra broadcast: %w", rank, iter, err)
			}
			for _, r := range intra.Ranks[1:] {
				if err := ep.Send(r, wire.Control(iterTag(iter, offIntraBc2), cnt[:]...)); err != nil {
					return fmt.Errorf("wlg: leader %d iter %d contributor broadcast: %w", rank, iter, err)
				}
			}
		} else {
			if _, err := ws.BroadcastSparse(ep, intra, iterTag(iter, offIntraBc), 0, nil, agg, sv.Dim); err != nil {
				return fmt.Errorf("wlg: rank %d iter %d receive W: %w", rank, iter, err)
			}
			c, err := ep.Recv(intra.Ranks[0], iterTag(iter, offIntraBc2))
			if err == nil {
				err = controlInts(&c, 1)
			}
			if err != nil {
				return fmt.Errorf("wlg: rank %d iter %d receive count: %w", rank, iter, err)
			}
			// ApplyW divides by the count: it lies in [1, every worker].
			if n := c.Ints[0]; n < 1 || n > int64(topo.Size()) {
				return fmt.Errorf("wlg: rank %d iter %d: contributor count %d outside [1, %d]: %w",
					rank, iter, n, topo.Size(), collective.ErrPayloadKind)
			}
			contributors = int(c.Ints[0])
		}
		dense = agg.ToDenseInto(dense)
		if err := wd.checkAgg(iter, dense); err != nil {
			return err
		}
		f.ApplyW(iter, dense, contributors)
	}
	return nil
}

// RunWithInfo executes a complete WLG world — every worker plus the Group
// Generator — over the given fabric, and returns the degradation summary:
// how many workers survived to the end, how many died, and how many
// contributions the Leaders' gathers skipped (on a fail-stop success,
// trivially "everyone lived"). Without cfg.Elastic the semantics are
// fail-fast: the first rank to return an error (a transport.PeerDownError
// from a crashed peer, a closed endpoint, a malformed request) closes the
// whole fabric, so every other rank unblocks instead of waiting on
// messages that will never arrive. With cfg.Elastic a worker's death is
// absorbed — its own ErrClosed exit does not abort the others, who regroup
// per elastic.go — and only the GG failing or a worker hitting an
// unrecoverable error tears the world down. funcs(rank) supplies each
// worker's algorithm callbacks. The returned error is the first causal
// failure; ErrClosed noise from the abort itself is suppressed in its
// favor.
func RunWithInfo(fab transport.Fabric, cfg Config, funcs func(rank int) WorkerFuncs) (*RunInfo, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	world := WorldSize(cfg.Topo)
	if fab.Size() < world {
		return nil, fmt.Errorf("wlg: fabric has %d endpoints, world needs %d", fab.Size(), world)
	}
	errs := make([]error, world)
	infos := make([]*RunInfo, world)
	var abort sync.Once
	var wg sync.WaitGroup
	// In elastic mode a worker whose own endpoint died (ErrClosed from a
	// fault-plan kill) is a casualty the protocol absorbs, not a reason to
	// abort; everything else still tears the world down so nobody hangs on
	// an unrecoverable failure.
	fatal := func(err error) bool {
		return !cfg.Elastic || !errors.Is(err, transport.ErrClosed)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		gg := GGRank(cfg.Topo)
		if err := RunGG(fab.Endpoint(gg), cfg); err != nil {
			errs[gg] = err
			abort.Do(fab.Close)
		}
	}()
	for r := 0; r < cfg.Topo.Size(); r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			info, err := RunWorkerInfo(fab.Endpoint(r), cfg, funcs(r))
			infos[r] = info
			if err != nil {
				errs[r] = err
				if fatal(err) {
					abort.Do(fab.Close)
				}
			}
		}()
	}
	wg.Wait()
	// Prefer a typed peer failure, then any non-ErrClosed error, then
	// whatever remains — mirroring core's collective abort. Elastic deaths
	// (a worker's own ErrClosed) are not failures at all.
	var fallback error
	deaths := 0
	for rank, err := range errs {
		if err == nil {
			continue
		}
		if cfg.Elastic && rank < cfg.Topo.Size() && errors.Is(err, transport.ErrClosed) {
			deaths++
			continue
		}
		var pd *transport.PeerDownError
		if errors.As(err, &pd) {
			return nil, err
		}
		if fallback == nil || errors.Is(fallback, transport.ErrClosed) && !errors.Is(err, transport.ErrClosed) {
			fallback = err
		}
	}
	if fallback != nil {
		return nil, fallback
	}
	sum := &RunInfo{Epoch: deaths, LiveWorkers: cfg.Topo.Size() - deaths}
	for _, info := range infos {
		if info != nil {
			sum.Skipped += info.Skipped
			sum.ShortRounds += info.ShortRounds
			sum.Flagged += info.Flagged
			sum.SelfQuarantines += info.SelfQuarantines
		}
	}
	return sum, nil
}

// RunGG executes Algorithm 2: serve grouping requests for MaxIter
// iterations. Leaders of one iteration are batched into groups of
// cfg.GroupThreshold in arrival order; once every node has reported for an
// iteration, any remainder below the threshold forms a final smaller
// group. Arrival decides which nodes share a group, never their order
// inside it: each group is sorted by node id before the GG replies, so the
// Leaders' PSR chunk ownership and summation order do not change from run
// to run. Requests from different iterations may interleave (fast groups
// start the next iteration while slow ones finish), which the per-iteration
// queues absorb.
func RunGG(ep transport.Endpoint, cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg.Elastic {
		return runGGElastic(ep, cfg)
	}
	topo := cfg.Topo
	threshold := cfg.threshold()
	queues := make(map[int][]int64) // iteration → GQ (node ids, sorted at flush)
	reported := make(map[int]int)   // iteration → requests seen
	remaining := (cfg.MaxIter - cfg.StartIter) * topo.Nodes
	// next[n] is the iteration node n's Leader asks about next: it sends
	// one request per iteration, in order, and the next only after this
	// one's reply, so anything else is a repeat or a stranger's frame.
	next := make([]int, topo.Nodes)
	for n := range next {
		next[n] = cfg.StartIter
	}

	flush := func(iter int) error {
		q := queues[iter]
		queues[iter] = nil
		slices.Sort(q)
		for _, nodeID := range q {
			leader := LeaderOf(topo, int(nodeID))
			if err := ep.Send(leader, wire.Control(iterTag(iter, offGGReply), q...)); err != nil {
				return fmt.Errorf("wlg: GG reply to leader %d: %w", leader, err)
			}
		}
		return nil
	}

	for remaining > 0 {
		m, err := ep.Recv(transport.AnySource, tagGGRequest)
		if err != nil {
			return fmt.Errorf("wlg: GG recv: %w", err)
		}
		if len(m.Ints) != 2 {
			return fmt.Errorf("wlg: GG malformed request from %d", m.From)
		}
		node, iter := int(m.Ints[0]), int(m.Ints[1])
		switch {
		case node < 0 || node >= topo.Nodes || int(m.From) != LeaderOf(topo, node):
			return fmt.Errorf("wlg: GG request from %d for node %d, which it does not lead: %w",
				m.From, node, collective.ErrPayloadKind)
		case iter < cfg.StartIter || iter >= cfg.MaxIter:
			return fmt.Errorf("wlg: GG request from node %d for iteration %d outside [%d, %d): %w",
				node, iter, cfg.StartIter, cfg.MaxIter, collective.ErrPayloadKind)
		case iter != next[node]:
			return fmt.Errorf("wlg: GG request from node %d for iteration %d, want iteration %d: %w",
				node, iter, next[node], collective.ErrPayloadKind)
		}
		next[node]++
		queues[iter] = append(queues[iter], int64(node))
		reported[iter]++
		remaining--
		if len(queues[iter]) == threshold || reported[iter] == topo.Nodes {
			if err := flush(iter); err != nil {
				return err
			}
		}
		if reported[iter] == topo.Nodes {
			delete(reported, iter)
			delete(queues, iter)
		}
	}
	return nil
}
