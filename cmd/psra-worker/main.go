// Command psra-worker is one rank of a genuinely distributed PSRA-HGADMM
// run over a TCP mesh — the multi-process counterpart of the in-process
// engine. Start nodes×wpn worker processes plus one Group Generator
// process (the last rank); every process receives the same -addrs list and
// its own -rank:
//
//	ADDRS=127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003,127.0.0.1:7004
//	psra-worker -rank 0 -addrs $ADDRS -nodes 2 -wpn 2 &
//	psra-worker -rank 1 -addrs $ADDRS -nodes 2 -wpn 2 &
//	psra-worker -rank 2 -addrs $ADDRS -nodes 2 -wpn 2 &
//	psra-worker -rank 3 -addrs $ADDRS -nodes 2 -wpn 2 &
//	psra-worker -rank 4 -addrs $ADDRS -nodes 2 -wpn 2   # the GG
//
// Every process generates the identical synthetic dataset from -seed and
// takes the shard matching its rank, so no data distribution step is
// needed. Each worker is core.Rank, the engine's per-rank worker. The run
// flags it shares with psra-train are core.RegisterFlags', defaults too.
//
// With -elastic the run survives worker deaths: nodes re-elect their
// Leader, inter-node aggregation routes through the GG (which caches
// results for recovery), and surviving ranks train to completion on the
// shrunken world. -snapshot-dir saves this rank's (x, y, z) every
// -snapshot-every iterations; -start-iter K resumes a run's tail from
// every rank's iteration-K snapshot (exit 1 if it is another boundary).
//
// With -rejoin (requires -elastic) a relaunched process re-enters a run
// that is still going: the endpoint re-dials the mesh as a new
// incarnation of its rank, the GG grants a join iteration plus the latest
// consensus aggregate for a warm start, and every live rank folds the
// returner back in at the same boundary. A usable snapshot restores local
// primal/dual state instead of zero:
//
//	psra-worker -rank 2 ... -elastic -snapshot-dir /tmp/psra   # dies
//	psra-worker -rank 2 ... -elastic -snapshot-dir /tmp/psra -rejoin
//
// Exit codes tell orchestration what happened:
//
//	0 — clean completion, nobody lost
//	1 — local failure (bad flags, dataset, I/O)
//	3 — unrecoverable peer loss: a peer died and the run could not
//	    continue without it (always the outcome of a death without
//	    -elastic)
//	4 — degraded completion: all iterations finished, but peers died or
//	    contributions were skipped along the way (-elastic only)
//	5 — divergence: the -watchdog tripped on a non-finite or exploding
//	    value; relaunch from the last good -snapshot-dir checkpoint with
//	    -start-iter instead of restarting cold
//	6 — aborted: robust quorum unreachable — more ranks are quarantined by
//	    the -screen than the robust -aggregator tolerates, so the
//	    remaining faulty minority could dominate the trim; investigate the
//	    quarantined ranks before relaunching
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	psra "psrahgadmm"
	"psrahgadmm/internal/checkpoint"
	"psrahgadmm/internal/core"
	"psrahgadmm/internal/exchange"
	"psrahgadmm/internal/prof"
	"psrahgadmm/internal/transport"
	"psrahgadmm/internal/vec"
	"psrahgadmm/internal/watchdog"
	"psrahgadmm/internal/wlg"
)

func main() {
	run := core.RegisterFlags(flag.CommandLine)
	var (
		rank      = flag.Int("rank", -1, "this process's rank (workers first, GG last)")
		addrs     = flag.String("addrs", "", "comma-separated host:port of every rank")
		codec     = flag.String("codec", "", "exchange codec: sparse | sparse-q8 | sparse-q16 | dense | dense-f32 | topk | topk-q8 (empty = exact)")
		timeout   = flag.Duration("timeout", time.Minute, "mesh establishment timeout")
		heartbeat = flag.Duration("heartbeat", time.Second, "keepalive interval on idle connections (negative disables)")
		peerDead  = flag.Duration("peer-timeout", 15*time.Second, "declare a peer dead after this much silence (0 disables)")
		startIter = flag.Int("start-iter", 0, "first iteration to execute (resume a run's tail after a restart)")
		rejoin    = flag.Bool("rejoin", false, "re-enter a running elastic mesh as a new incarnation of this rank (requires -elastic)")
		snapDir   = flag.String("snapshot-dir", "", "directory for this rank's periodic state snapshots (restored by -rejoin and -start-iter)")
		snapEvery = flag.Int("snapshot-every", 5, "snapshot every k-th iteration (with -snapshot-dir)")
	)
	profiles := prof.Register(flag.CommandLine)
	flag.Parse()

	if err := profiles.Start(); err != nil {
		fatal(err)
	}
	topo := run.Topo
	cfg := wlg.Config{
		Topo:             topo,
		MaxIter:          run.MaxIter,
		GroupThreshold:   run.GroupThreshold,
		Codec:            exchange.Kind(*codec),
		CodecBudgetBytes: run.CodecBudgetBytes,
		Elastic:          run.Elastic,
		StartIter:        *startIter,
		Rejoin:           *rejoin,
		Watchdog:         run.Watchdog,
		Aggregator:       run.Aggregator,
		TrimF:            run.TrimF,
		Screen:           run.Screen,
	}
	// Before the mesh: establishment waits for every rank (up to -timeout),
	// and a mistyped flag should not cost that wait on every process.
	// psra-train's Validate goes first, so a shared flag is refused by its
	// rules and in its words; the runtime's own rules then refuse what the
	// engine accepts but the WLG protocol cannot run, such as a robust
	// -aggregator or -screen without -elastic. The WLG protocol is
	// PSRA-HGADMM, BSP in both runtimes.
	run.Algorithm = core.PSRAHGADMM
	if err := run.Validate(); err != nil {
		fatal(err)
	}
	if err := cfg.Validate(); err != nil {
		fatal(err)
	}
	world := wlg.WorldSize(topo)
	addrList := strings.Split(*addrs, ",")
	if len(addrList) != world {
		fatal(fmt.Errorf("need %d addresses (workers + GG), got %d", world, len(addrList)))
	}
	if *rank < 0 || *rank >= world {
		fatal(fmt.Errorf("rank %d out of [0,%d)", *rank, world))
	}
	if *snapEvery < 1 {
		fatal(fmt.Errorf("-snapshot-every must be >= 1, got %d", *snapEvery))
	}
	preset, err := run.Preset()
	if err != nil {
		fatal(err)
	}

	// A worker restores before the mesh too: a relaunch that cannot resume
	// exits 1 here instead of taking the established mesh down with it.
	var funcs wlg.WorkerFuncs
	if *rank != wlg.GGRank(topo) {
		train, _, err := psra.Generate(preset)
		if err != nil {
			fatal(err)
		}
		shard := train.Shard(topo.Size())[*rank]
		fmt.Printf("rank %d: node %d, shard %d×%d (%d nnz)\n",
			*rank, topo.NodeOf(*rank), shard.Rows(), shard.Dim(), shard.NNZ())
		rk := core.NewRank(run.Config, *rank, shard)
		var store checkpoint.Store
		if *snapDir != "" {
			if store, err = checkpoint.NewDirStore(*snapDir, fmt.Sprintf("rank-%d.ckpt", *rank)); err != nil {
				fatal(err)
			}
		}
		// A -rejoin survives a missing or refused snapshot; a -start-iter
		// does not, since a world resumed from mixed boundaries is wrong.
		if store != nil && (*rejoin || *startIter > 0) {
			iter, err := rk.RestoreSnapshot(store)
			switch {
			case err == nil && (*rejoin || iter == *startIter):
				fmt.Printf("rank %d: restored x/y/z from the iteration-%d snapshot\n", *rank, iter)
			case *rejoin:
				fmt.Printf("rank %d: %v; rejoining with zero local state\n", *rank, err)
			case err == nil:
				fatal(fmt.Errorf("-start-iter %d: the last snapshot is at iteration %d", *startIter, iter))
			default:
				fatal(fmt.Errorf("-start-iter %d: %w", *startIter, err))
			}
		}
		funcs = wlg.WorkerFuncs{
			ComputeW: rk.ComputeW,
			ApplyW: func(iter int, bigW []float64, contributors int) {
				rk.ApplyW(iter, bigW, contributors)
				if *rank == 0 && (iter%5 == 0 || iter == cfg.MaxIter-1) {
					z := rk.Z()
					fmt.Printf("rank 0: iter %3d  local loss %.4f  ‖z‖₁ %.4f  z nnz %d  (group of %d workers)\n",
						iter+1, rk.LocalLoss(z), vec.Nrm1(z), vec.CountNonzero(z), contributors)
				}
				// A failed save is reported, never fatal: it serves a relaunch.
				if store != nil && (iter+1)%*snapEvery == 0 {
					if err := rk.SaveSnapshot(store, iter+1); err != nil {
						fmt.Fprintf(os.Stderr, "psra-worker: rank %d snapshot save failed: %v\n", *rank, err)
					}
				}
			},
			Rejoined: func(joinIter int, bigW []float64, contributors int) {
				rk.Rejoined(joinIter, bigW, contributors)
				if bigW == nil {
					fmt.Printf("rank %d: rejoined at iteration %d (cold: no aggregate flushed yet)\n", *rank, joinIter)
					return
				}
				fmt.Printf("rank %d: rejoined at iteration %d, warm-started from %d contributors\n",
					*rank, joinIter, contributors)
			},
		}
	}

	ep, err := transport.NewTCPEndpoint(*rank, addrList, transport.TCPOptions{
		DialTimeout:       *timeout,
		HeartbeatInterval: *heartbeat,
		PeerTimeout:       *peerDead,
		Rejoin:            *rejoin,
	})
	if err != nil {
		fatal(err)
	}
	defer ep.Close()

	info := new(wlg.RunInfo) // the GG's, never degraded
	if *rank == wlg.GGRank(topo) {
		fmt.Printf("rank %d: group generator serving %d nodes × %d iterations\n", *rank, topo.Nodes, cfg.MaxIter)
		err = wlg.RunGG(ep, cfg)
	} else {
		info, err = wlg.RunWorkerInfo(ep, cfg, funcs)
	}
	if err != nil {
		fatal(err)
	}
	// Profiles flush before the degraded os.Exit below: a degraded-but-
	// complete run is a clean exit as far as profiling is concerned.
	if err := profiles.Stop(); err != nil {
		fatal(err)
	}
	if info.Degraded() {
		fmt.Printf("rank %d: done DEGRADED — %d workers alive, %d deaths absorbed, %d contributions skipped, %d short rounds, %d screened out, %d self-quarantines\n",
			*rank, info.LiveWorkers, info.Epoch, info.Skipped, info.ShortRounds, info.Flagged, info.SelfQuarantines)
		os.Exit(4)
	}
	fmt.Printf("rank %d: done\n", *rank)
}

// fatal exits nonzero with a diagnostic. Peer loss gets its own exit code
// (3, "unrecoverable") and a pointed message so orchestration (and humans
// reading logs) can tell "a neighbor died and took the run with it" apart
// from local failures — and apart from exit 4, a degraded-but-complete
// elastic run. A watchdog trip exits 5: the state is numerically poisoned,
// so the right relaunch is -rejoin/-start-iter from the last good
// -snapshot-dir checkpoint, not a plain restart.
func fatal(err error) {
	var pd *transport.PeerDownError
	if errors.As(err, &pd) {
		fmt.Fprintf(os.Stderr, "psra-worker: peer rank %d is down (%v); aborting run: %v\n", pd.Peer, pd.Cause, err)
		os.Exit(3)
	}
	if errors.Is(err, watchdog.ErrDiverged) {
		fmt.Fprintf(os.Stderr, "psra-worker: training diverged; relaunch from the last snapshot with -start-iter: %v\n", err)
		os.Exit(5)
	}
	if errors.Is(err, watchdog.ErrQuorumLost) {
		fmt.Fprintf(os.Stderr, "psra-worker: aborted: robust quorum unreachable: %v\n", err)
		os.Exit(6)
	}
	fmt.Fprintln(os.Stderr, "psra-worker:", err)
	os.Exit(1)
}
