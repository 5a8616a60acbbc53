package core

import (
	"errors"
	"testing"

	"psrahgadmm/internal/checkpoint"
	"psrahgadmm/internal/transport"
	"psrahgadmm/internal/watchdog"
)

// TestCorruptChaosDetectedAndRetried is the tentpole's engine-level
// acceptance: under seeded random frame corruption the run must NEVER be
// silently wrong. With the exact codec that is a bit-level statement — a
// detected-and-dropped frame aborts the round attempt, the retry re-ships
// everything under a fresh tag window, failed attempts charge no virtual
// time, so the chaos run's history must be BIT-IDENTICAL to the fault-free
// run's. CorruptRetries > 0 proves the injection actually fired (the test
// would pass vacuously otherwise).
func TestCorruptChaosDetectedAndRetried(t *testing.T) {
	train, test := testData(t, 160)
	for _, alg := range []Algorithm{PSRAHGADMM, PSRAHGADMMSharded} {
		t.Run(string(alg), func(t *testing.T) {
			mk := func() Config {
				cfg := baseConfig(alg, 3, 2)
				cfg.MaxIter = 25
				cfg.GroupThreshold = 2
				return cfg
			}
			clean, err := Run(mk(), train, RunOptions{Test: test})
			if err != nil {
				t.Fatal(err)
			}

			cfg := mk()
			cfg.Faults = &transport.FaultPlan{Seed: 41, CorruptProb: 0.05}
			chaos, err := Run(cfg, train, RunOptions{Test: test})
			if err != nil {
				t.Fatalf("corruption chaos aborted: %v", err)
			}
			if chaos.CorruptRetries == 0 {
				t.Fatal("no corrupt round was ever retried — the injection never fired")
			}
			if len(chaos.History) != len(clean.History) {
				t.Fatalf("history lengths differ: chaos %d, clean %d", len(chaos.History), len(clean.History))
			}
			for i := range clean.History {
				if !statBitEqual(chaos.History[i], clean.History[i]) {
					t.Fatalf("iteration %d diverged under corruption:\nchaos %+v\nclean %+v",
						i, chaos.History[i], clean.History[i])
				}
			}
			t.Logf("%s: %d corrupt rounds retried, history bit-identical", alg, chaos.CorruptRetries)
		})
	}
}

// TestCorruptAtIterationFiresOnce pins the deterministic schedule: an armed
// corruption at one iteration boundary produces exactly one retried round,
// and the history still matches the clean run bit for bit.
func TestCorruptAtIterationFiresOnce(t *testing.T) {
	train, _ := testData(t, 120)
	mk := func() Config {
		cfg := baseConfig(PSRAHGADMM, 3, 2)
		cfg.MaxIter = 12
		return cfg
	}
	clean, err := Run(mk(), train, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := mk()
	cfg.Faults = &transport.FaultPlan{Seed: 5, CorruptAtIteration: map[int]int{0: 3}}
	res, err := Run(cfg, train, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.CorruptRetries != 1 {
		t.Fatalf("CorruptRetries = %d, want exactly 1", res.CorruptRetries)
	}
	for i := range clean.History {
		if !statBitEqual(res.History[i], clean.History[i]) {
			t.Fatalf("iteration %d differs after the armed corruption", i)
		}
	}
}

// TestNaNInjectionRollsBackAndConverges is the rollback half of the
// tentpole: a NaN poisoned into one rank's local solve trips the watchdog
// the same iteration, the run rolls every rank back to the last good
// checkpoint, and — because the injection fires once — the replay is clean.
// The resume machinery is bit-exact, so the final history must equal the
// fault-free run's, with the rollback recorded in Result.
func TestNaNInjectionRollsBackAndConverges(t *testing.T) {
	train, test := testData(t, 160)
	mk := func() Config {
		cfg := baseConfig(PSRAHGADMM, 3, 2)
		cfg.MaxIter = 20
		cfg.Watchdog = watchdog.Config{Enabled: true}
		return cfg
	}
	clean, err := Run(mk(), train, RunOptions{Test: test})
	if err != nil {
		t.Fatal(err)
	}

	cfg := mk()
	cfg.Faults = &transport.FaultPlan{Seed: 3, NaNAtIteration: map[int]int{1: 12}}
	res, err := Run(cfg, train, RunOptions{
		Test:       test,
		Checkpoint: &CheckpointOptions{Store: checkpoint.NewMemStore(), Every: 5},
	})
	if err != nil {
		t.Fatalf("NaN injection was not recovered: %v", err)
	}
	if len(res.Rollbacks) != 1 {
		t.Fatalf("Rollbacks = %+v, want exactly one", res.Rollbacks)
	}
	rb := res.Rollbacks[0]
	if rb.TripIter != 12 || rb.ToIter != 10 {
		t.Fatalf("rolled back %d → %d, want 12 → 10", rb.TripIter, rb.ToIter)
	}
	if rb.Reason == "" {
		t.Fatal("rollback reason not recorded")
	}
	if len(res.History) != cfg.MaxIter {
		t.Fatalf("history length %d after rollback, want %d", len(res.History), cfg.MaxIter)
	}
	for i := range clean.History {
		if !statBitEqual(res.History[i], clean.History[i]) {
			t.Fatalf("iteration %d differs from the fault-free run after rollback:\ngot  %+v\nwant %+v",
				i, res.History[i], clean.History[i])
		}
	}
}

// TestWatchdogAbortsWithoutCheckpoint: with no store to roll back to, a
// trip is a typed abort — errors.Is(err, watchdog.ErrDiverged) — carrying
// the partial history up to the poisoned iteration.
func TestWatchdogAbortsWithoutCheckpoint(t *testing.T) {
	train, _ := testData(t, 120)
	cfg := baseConfig(PSRAHGADMM, 3, 2)
	cfg.MaxIter = 20
	cfg.Watchdog = watchdog.Config{Enabled: true}
	cfg.Faults = &transport.FaultPlan{Seed: 3, NaNAtIteration: map[int]int{0: 7}}
	res, err := Run(cfg, train, RunOptions{})
	if err == nil {
		t.Fatal("poisoned run succeeded with nowhere to roll back to")
	}
	if !errors.Is(err, watchdog.ErrDiverged) {
		t.Fatalf("abort is not typed as divergence: %v", err)
	}
	if res == nil || len(res.History) != 8 {
		t.Fatalf("partial history missing or wrong length: %+v", res)
	}
}

// TestWatchdogRollbackBudgetExhausted drives repeated trips (a sub-1
// residual factor re-trips every time the window refills) and asserts the
// detect → rollback → abort ladder: exactly MaxRollbacks rollbacks are
// attempted, then the next trip becomes the typed failure.
func TestWatchdogRollbackBudgetExhausted(t *testing.T) {
	train, _ := testData(t, 120)
	cfg := baseConfig(PSRAHGADMM, 3, 2)
	cfg.MaxIter = 60
	cfg.Watchdog = watchdog.Config{
		Enabled:        true,
		Window:         4,
		ResidualFactor: 0.5, // anything above half the recent floor "explodes"
		MaxRollbacks:   2,
	}
	res, err := Run(cfg, train, RunOptions{
		Checkpoint: &CheckpointOptions{Store: checkpoint.NewMemStore(), Every: 2},
	})
	if err == nil {
		t.Fatal("run succeeded despite a watchdog that trips on any healthy residual")
	}
	if !errors.Is(err, watchdog.ErrDiverged) {
		t.Fatalf("exhausted-rollback abort is not typed as divergence: %v", err)
	}
	if len(res.Rollbacks) != 2 {
		t.Fatalf("performed %d rollbacks, want exactly MaxRollbacks=2: %+v", len(res.Rollbacks), res.Rollbacks)
	}
}

// TestWatchdogCleanRunUntripped: an enabled watchdog on a healthy run is
// pure observation — no trips, no rollbacks, history identical to the
// watchdog-less run.
func TestWatchdogCleanRunUntripped(t *testing.T) {
	train, test := testData(t, 160)
	mk := func(wd bool) Config {
		cfg := baseConfig(PSRAHGADMM, 3, 2)
		cfg.MaxIter = 25
		cfg.AdaptiveRho = true
		if wd {
			cfg.Watchdog = watchdog.Config{Enabled: true}
		}
		return cfg
	}
	plain, err := Run(mk(false), train, RunOptions{Test: test})
	if err != nil {
		t.Fatal(err)
	}
	watched, err := Run(mk(true), train, RunOptions{Test: test})
	if err != nil {
		t.Fatal(err)
	}
	if len(watched.Rollbacks) != 0 {
		t.Fatalf("healthy run tripped: rollbacks=%+v", watched.Rollbacks)
	}
	for i := range plain.History {
		if !statBitEqual(watched.History[i], plain.History[i]) {
			t.Fatalf("watchdog perturbed iteration %d", i)
		}
	}
}
