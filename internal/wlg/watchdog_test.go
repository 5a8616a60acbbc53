package wlg

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"psrahgadmm/internal/simnet"
	"psrahgadmm/internal/transport"
	"psrahgadmm/internal/watchdog"
)

// TestWLGWatchdogTripsTyped: a NaN contribution trips the guilty rank's
// watchdog at that exact iteration, and the whole world comes down with a
// typed *DivergedError — not an untyped transport failure.
func TestWLGWatchdogTripsTyped(t *testing.T) {
	topo := simnet.Topology{Nodes: 2, WorkersPerNode: 2}
	cfg := Config{Topo: topo, MaxIter: 6, Watchdog: watchdog.Config{Enabled: true}}
	fab := transport.NewChanFabric(WorldSize(topo))
	defer fab.Close()
	dim := 4
	_, err := RunWithInfo(fab, cfg, func(rank int) WorkerFuncs {
		return WorkerFuncs{
			ComputeW: func(iter int) []float64 {
				v := rankVec(dim, rank)
				if rank == 1 && iter == 3 {
					v[2] = math.NaN()
				}
				return v
			},
			ApplyW: func(int, []float64, int) {},
		}
	})
	if err == nil {
		t.Fatal("NaN contribution completed the run")
	}
	if !errors.Is(err, watchdog.ErrDiverged) {
		t.Fatalf("not typed as divergence: %v", err)
	}
	var div *DivergedError
	if !errors.As(err, &div) {
		t.Fatalf("no *DivergedError in chain: %v", err)
	}
	if div.Rank != 1 || div.Iter != 3 {
		t.Fatalf("trip attributed to rank %d iter %d, want rank 1 iter 3", div.Rank, div.Iter)
	}
}

// TestWLGWatchdogTripReasons pins the full trip text of both scans under
// both failure models. A NaN in one rank's contribution is named at its
// coordinate before anything ships. Two ranks each contributing
// math.MaxFloat64 at one coordinate pass their own scans, but their sum
// is +Inf: the aggregate scan names it before ApplyW. Every rank applies
// that aggregate, so any of them may report first; the reason and the
// iteration are what the trip pins.
func TestWLGWatchdogTripReasons(t *testing.T) {
	topo := simnet.Topology{Nodes: 2, WorkersPerNode: 2}
	for _, tc := range []struct {
		name   string
		poison func(rank int, v []float64)
		want   string
	}{
		{"contribution", func(rank int, v []float64) {
			if rank == 1 {
				v[2] = math.NaN()
			}
		}, "non-finite contribution: w[2] = NaN"},
		{"aggregate", func(rank int, v []float64) {
			if rank == 0 || rank == 3 {
				v[2] = math.MaxFloat64
			}
		}, "non-finite aggregate: W[2] = +Inf"},
	} {
		for _, elastic := range []bool{false, true} {
			cfg := Config{Topo: topo, MaxIter: 6, Elastic: elastic, Watchdog: watchdog.Config{Enabled: true}}
			fab := transport.NewChanFabric(WorldSize(topo))
			_, err := RunWithInfo(fab, cfg, func(rank int) WorkerFuncs {
				return WorkerFuncs{
					ComputeW: func(iter int) []float64 {
						v := rankVec(4, rank)
						if iter == 3 {
							tc.poison(rank, v)
						}
						return v
					},
					ApplyW: func(int, []float64, int) {},
				}
			})
			fab.Close()
			var div *DivergedError
			if !errors.As(err, &div) {
				t.Fatalf("%s, elastic %v: %v, want a *DivergedError", tc.name, elastic, err)
			}
			if div.Reason != tc.want || div.Iter != 3 {
				t.Errorf("%s, elastic %v: tripped at iteration %d with %q, want iteration 3 with %q", tc.name, elastic, div.Iter, div.Reason, tc.want)
			}
		}
	}
}

// TestWLGWatchdogMagnitudeExplosion: no value ever goes non-finite, but the
// contribution magnitude jumps six orders past the sliding-window floor —
// the aggregate every rank shares carries the explosion, so the whole
// group trips at the same iteration.
func TestWLGWatchdogMagnitudeExplosion(t *testing.T) {
	topo := simnet.Topology{Nodes: 2, WorkersPerNode: 2}
	cfg := Config{Topo: topo, MaxIter: 20, Watchdog: watchdog.Config{Enabled: true}}
	fab := transport.NewChanFabric(WorldSize(topo))
	defer fab.Close()
	dim := 4
	_, err := RunWithInfo(fab, cfg, func(rank int) WorkerFuncs {
		return WorkerFuncs{
			ComputeW: func(iter int) []float64 {
				v := make([]float64, dim)
				for j := range v {
					v[j] = 1
				}
				if rank == 2 && iter >= 12 {
					v[0] = 1e9
				}
				return v
			},
			ApplyW: func(int, []float64, int) {},
		}
	})
	var div *DivergedError
	if !errors.As(err, &div) {
		t.Fatalf("magnitude explosion not detected: %v", err)
	}
	if div.Iter != 12 {
		t.Fatalf("tripped at iteration %d, want 12", div.Iter)
	}
}

// TestWLGElasticWatchdogTrips: divergence is NOT a membership fact — the
// elastic runtime absorbs deaths, but a poisoned contribution still tears
// the run down with the typed error instead of being "survived".
func TestWLGElasticWatchdogTrips(t *testing.T) {
	topo := simnet.Topology{Nodes: 2, WorkersPerNode: 2}
	cfg := Config{Topo: topo, MaxIter: 8, Elastic: true, Watchdog: watchdog.Config{Enabled: true}}
	fab := transport.NewChanFabric(WorldSize(topo))
	defer fab.Close()
	dim := 3
	_, err := RunWithInfo(fab, cfg, func(rank int) WorkerFuncs {
		return WorkerFuncs{
			ComputeW: func(iter int) []float64 {
				v := rankVec(dim, rank)
				if rank == 3 && iter == 2 {
					v[0] = math.Inf(1)
				}
				return v
			},
			ApplyW: func(int, []float64, int) {},
		}
	})
	var div *DivergedError
	if !errors.As(err, &div) {
		t.Fatalf("elastic run absorbed a divergence: %v", err)
	}
	if div.Rank != 3 || div.Iter != 2 {
		t.Fatalf("trip attributed to rank %d iter %d, want rank 3 iter 2", div.Rank, div.Iter)
	}
}

// TestWLGRecoveryRollsBackAndConverges: a NaN poisoned into one rank's
// contribution mid-run trips the watchdog, and RunWithInfo returns the
// *DivergedError. Restoring the newest checkpoint every rank holds and
// running the world again with StartIter at that boundary — the relaunch
// psra-worker's exit 5 asks for — replays the run (the injection fires
// once) to the fixpoint within 1e-3.
//
// The algorithm is consensus averaging with per-rank pull targets:
// x_r ← (Σx/n + t_r)/2, whose fixpoint is x_r* = (mean(t) + t_r)/2.
func TestWLGRecoveryRollsBackAndConverges(t *testing.T) {
	topo := simnet.Topology{Nodes: 2, WorkersPerNode: 2}
	world := topo.Size()
	cfg := Config{Topo: topo, MaxIter: 30, Watchdog: watchdog.Config{Enabled: true}}
	dim := 4
	const every = 5 // checkpoint boundary spacing, in iterations

	xs := make([][]float64, world)          // rank-owned state
	cks := make([]map[int][]float64, world) // per-rank boundary → snapshot
	targets := make([]float64, world)
	for r := range xs {
		xs[r] = make([]float64, dim)
		cks[r] = make(map[int][]float64)
		targets[r] = float64(r + 1)
	}
	var poisoned atomic.Bool
	var mu sync.Mutex // guards cks: ranks save from their own goroutines

	funcs := func(rank int) WorkerFuncs {
		return WorkerFuncs{
			ComputeW: func(iter int) []float64 {
				out := append([]float64(nil), xs[rank]...)
				if rank == 2 && iter == 12 && poisoned.CompareAndSwap(false, true) {
					out[1] = math.NaN()
				}
				return out
			},
			ApplyW: func(iter int, agg []float64, n int) {
				for j := range xs[rank] {
					xs[rank][j] = (agg[j]/float64(n) + targets[rank]) / 2
				}
				if (iter+1)%every == 0 {
					mu.Lock()
					cks[rank][iter+1] = append([]float64(nil), xs[rank]...)
					mu.Unlock()
				}
			},
		}
	}
	run := func() error {
		fab := transport.NewChanFabric(WorldSize(topo))
		defer fab.Close()
		_, err := RunWithInfo(fab, cfg, funcs)
		return err
	}

	var trip *DivergedError
	if err := run(); !errors.As(err, &trip) {
		t.Fatalf("poisoned run returned %v, want a *DivergedError", err)
	}
	// Restore the newest boundary EVERY rank checkpointed at or before the
	// trip: ranks run slightly out of lockstep, so the common boundary is
	// the consistent cut.
	start := 0
	for b := trip.Iter - trip.Iter%every; b > 0 && start == 0; b -= every {
		all := true
		for r := range cks {
			_, ok := cks[r][b]
			all = all && ok
		}
		if all {
			for r := range cks {
				copy(xs[r], cks[r][b])
			}
			start = b
		}
	}
	if start == 0 {
		t.Fatalf("no checkpoint every rank holds before the trip at iteration %d", trip.Iter)
	}
	cfg.StartIter = start
	if err := run(); err != nil {
		t.Fatalf("relaunch from iteration %d: %v", start, err)
	}

	mean := 0.0
	for _, tv := range targets {
		mean += tv
	}
	mean /= float64(world)
	for r := range xs {
		want := (mean + targets[r]) / 2
		for j, got := range xs[r] {
			if math.Abs(got-want) > 1e-3 {
				t.Fatalf("rank %d slot %d = %v after recovery, want %v ± 1e-3", r, j, got, want)
			}
		}
	}
}
