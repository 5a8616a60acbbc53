// Divergence detection for the WLG runtime.
//
// The runtime is algorithm-agnostic, so its watchdog watches what it can
// see: the contribution each worker hands it and the aggregate it hands
// back. Both are scanned for NaN/Inf, and their infinity norms feed the
// shared watchdog.Monitor's sliding-window explosion test — a contribution
// whose magnitude jumps four orders of magnitude past the recent floor is
// diverging even if no value is (yet) non-finite. Because every member of
// a group applies the SAME aggregate, one poisoned contribution trips
// every rank of the group at the same iteration: detection is coordinated
// by the data itself, no extra protocol needed.
//
// A trip is a typed *DivergedError returned BEFORE ApplyW, so poisoned
// values never enter algorithm state (and, on the checkpointing path,
// never get persisted). Under fail-fast semantics the first trip tears the
// whole world down at that iteration boundary — which is exactly the
// coordination a rollback needs. Recovery is the caller's: psra-worker
// exits 5 on a trip, and its launcher restores the last snapshot every
// rank holds by relaunching the world with -start-iter at that boundary
// (Config.StartIter, the resume path).
package wlg

import (
	"fmt"

	"psrahgadmm/internal/sparse"
	"psrahgadmm/internal/vec"
	"psrahgadmm/internal/watchdog"
)

// DivergedError reports a watchdog trip on one rank: which rank, at which
// iteration, and why. errors.Is(err, watchdog.ErrDiverged) matches.
type DivergedError struct {
	Rank   int
	Iter   int
	Reason string
}

func (e *DivergedError) Error() string {
	return fmt.Sprintf("wlg: rank %d diverged at iteration %d: %s", e.Rank, e.Iter, e.Reason)
}

func (e *DivergedError) Unwrap() error { return watchdog.ErrDiverged }

// wlgWatch is one worker's divergence monitor. The zero-ish nil-Monitor
// state (watchdog disabled) makes every method a no-op, so the worker
// loops carry no branches.
type wlgWatch struct {
	mon  *watchdog.Monitor
	rank int
	// ownInf is the contribution's inf-norm, buffered so one Observe per
	// iteration sees both sides of the exchange.
	ownInf float64
}

func newWatch(cfg Config, rank int) *wlgWatch {
	mon := watchdog.New(cfg.Watchdog)
	if mon == nil {
		return nil
	}
	return &wlgWatch{mon: mon, rank: rank}
}

// checkOwn vets this rank's sparsified contribution before it enters any
// codec or collective — a NaN absorbed into a top-k error-feedback
// residual would poison every later round, so the scan must run before
// the encode. Sparsifying drops no NaN or Inf from the support, so the
// stored values hold every non-finite value of the ComputeW output.
func (w *wlgWatch) checkOwn(iter int, own *sparse.Vector) error {
	if w == nil {
		return nil
	}
	if at := watchdog.ScanSparse("w", own); at != "" {
		return &DivergedError{Rank: w.rank, Iter: iter, Reason: "non-finite contribution: " + at}
	}
	w.ownInf = vec.NrmInf(own.Value)
	return nil
}

// checkAgg vets the received aggregate before it is densified for ApplyW
// and feeds the window: contribution and aggregate norms play the
// monitor's primal/dual roles (no objective at this layer).
func (w *wlgWatch) checkAgg(iter int, agg *sparse.Vector) error {
	if w == nil {
		return nil
	}
	if at := watchdog.ScanSparse("W", agg); at != "" {
		return &DivergedError{Rank: w.rank, Iter: iter, Reason: "non-finite aggregate: " + at}
	}
	aggInf := vec.NrmInf(agg.Value)
	if w.ownInf == 0 && aggInf == 0 {
		// A zero exchange (the cold-start iterate, a fully-converged run)
		// carries no magnitude signal: pushing it would zero the window
		// floor and make every later healthy value an "explosion".
		return nil
	}
	if trip := w.mon.Observe(iter, w.ownInf, aggInf, 0, false); trip != nil {
		return &DivergedError{Rank: w.rank, Iter: iter, Reason: trip.Reason}
	}
	return nil
}
