// Command psra-train trains L1-regularized logistic regression with any of
// the implemented consensus-ADMM algorithms on a LIBSVM file or a
// synthetic dataset, printing per-iteration progress:
//
//	psra-train -synth news20 -scale 0.002 -algorithm psra-hgadmm -nodes 8 -wpn 4
//	psra-train -data train.svm -test test.svm -algorithm admmlib -iters 50
//
// -elastic selects the failure model: off (fail-stop, the default),
// survive (deaths shrink the world and training continues), or recover
// (survive plus re-admission of returning ranks). Bare -elastic means
// survive, matching the old boolean flag. The chaos flags schedule
// deterministic boundary faults for studying the models:
//
//	psra-train -elastic=recover -chaos-kill 3@3,2@5 -chaos-rejoin 3@9,2@12
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	psra "psrahgadmm"
	"psrahgadmm/internal/dataset"
	"psrahgadmm/internal/metrics"
	"psrahgadmm/internal/prof"
	"psrahgadmm/internal/transport"
)

// elasticMode is the -elastic flag: a tri-state that still accepts the
// historical boolean spellings (bare -elastic, -elastic=true/false).
type elasticMode string

func (m *elasticMode) String() string { return string(*m) }

func (m *elasticMode) Set(s string) error {
	switch s {
	case "", "off", "false":
		*m = "off"
	case "true", "survive":
		*m = "survive"
	case "recover":
		*m = "recover"
	default:
		return fmt.Errorf("unknown mode %q (off | survive | recover)", s)
	}
	return nil
}

// IsBoolFlag lets bare -elastic (no value) keep meaning "survive".
func (m *elasticMode) IsBoolFlag() bool { return true }

func main() {
	var (
		algorithm = flag.String("algorithm", string(psra.PSRAHGADMM), "registered algorithm name (see -list-algorithms)")
		listAlgos = flag.Bool("list-algorithms", false, "list every registered algorithm with its strategy triple and exit")
		nodes     = flag.Int("nodes", 4, "virtual cluster nodes")
		wpn       = flag.Int("wpn", 4, "workers per node")
		rho       = flag.Float64("rho", 1, "ADMM penalty parameter ρ")
		lambda    = flag.Float64("lambda", 1, "L1 regularization weight λ")
		iters     = flag.Int("iters", 100, "outer iterations")
		threshold = flag.Int("threshold", 0, "GQ grouping threshold in nodes (0 = all nodes)")
		minBarr   = flag.Int("min-barrier", 0, "SSP partial-barrier size in workers (0 = half the workers, the paper's Min_barrier)")
		maxDelay  = flag.Int("max-delay", 0, "SSP/async staleness bound in rounds (0 = the paper's Max_delay of 5)")
		dataPath  = flag.String("data", "", "LIBSVM training file (overrides -synth)")
		testPath  = flag.String("test", "", "LIBSVM test file for accuracy reporting")
		synth     = flag.String("synth", "news20", "synthetic preset: news20 | webspam | url")
		scale     = flag.Float64("scale", 0.002, "synthetic preset scale in (0,1]")
		seed      = flag.Int64("seed", 1, "synthetic generation seed")
		every     = flag.Int("every", 10, "print every k-th iteration")
		jsonOut   = flag.String("json", "", "write the run's record as JSON to this file: history, rollbacks, quarantines, corrupt retries and final membership")
		codecKB   = flag.Int64("codec-budget-bytes", 0, "per-round wire budget for top-k codecs: k adapts to stay under it (0 = no budget)")
		codecTopK = flag.Int("codec-topk", 0, "fixed selection size for top-k codecs, overriding the dim/2 default (0 = default)")
		codecAge  = flag.Bool("codec-age-scoring", false, "top-k codecs: weight selection by residual age so starved coordinates eventually ship")
		sharded   = flag.Bool("sharded", false, "block-sharded consensus state: each rank holds only the model blocks its shard touches (flat/star/tree consensus, any sync model)")
		shardBlk  = flag.Int("shard-blocks", 0, "block count for -sharded partitioning (0 = world size)")
		chaosKill = flag.String("chaos-kill", "", "kill schedule rank@iter[,rank@iter...]: each rank dies at its iteration boundary")
		chaosJoin = flag.String("chaos-rejoin", "", "rejoin schedule rank@iter[,...]: killed ranks return (requires -elastic=recover)")
		chaosSeed = flag.Int64("chaos-seed", 1, "fault-injection seed (with -chaos-kill or -chaos-corrupt)")
		chaosCorr = flag.Float64("chaos-corrupt", 0, "per-record probability of a seeded wire bit-flip (detected, dropped, and retried)")
		chaosCAt  = flag.String("chaos-corrupt-at", "", "corruption schedule rank@iter[,...]: one frame to each rank is bit-flipped at its iteration")
		chaosNaN  = flag.String("chaos-nan", "", "NaN-injection schedule rank@iter[,...]: each rank's local solve is poisoned once")
		chaosByz  = flag.String("chaos-byzantine", "", "Byzantine schedule rank@iter[-until]:mode[,...]: the rank's contributions are poisoned from iter onward (modes: sign-flip | scale | random | stale-replay); pair with -screen and a robust -aggregator")
		aggName   = flag.String("aggregator", "", "consensus reduce statistic: mean | trimmed-mean | coordinate-median (empty = the algorithm's registered default)")
		trimF     = flag.Int("trim-f", 0, "trimmed-mean per-side trim count in ranks (0 = default 1 with trimmed-mean)")
		screenOn  = flag.Bool("screen", false, "contribution screen: score every contribution against its rank's baseline and quarantine sustained outliers")
		quarRnds  = flag.Int("quarantine-rounds", 0, "consecutive clean probes a quarantined rank needs for re-admission (0 = default 3)")
		ckDir     = flag.String("checkpoint-dir", "", "directory for periodic snapshots (enables checkpointing)")
		ckEvery   = flag.Int("checkpoint-every", 10, "snapshot every k-th iteration (with -checkpoint-dir)")
		resume    = flag.Bool("resume", false, "continue from the latest snapshot in -checkpoint-dir (fresh start if none)")
		wdOn      = flag.Bool("watchdog", false, "divergence watchdog: NaN/Inf and explosion detection, checkpoint auto-rollback with -checkpoint-dir")
		wdWindow  = flag.Int("watchdog-window", 0, "healthy iterations forming the explosion baseline (0 = default 8)")
		wdResFac  = flag.Float64("watchdog-residual-factor", 0, "residual explosion threshold as a multiple of the window floor (0 = default 1e4)")
		wdObjFac  = flag.Float64("watchdog-objective-factor", 0, "objective explosion threshold as a multiple of the window floor (0 = default 1e4)")
		wdMaxRB   = flag.Int("max-rollbacks", 0, "rollback budget before a watchdog trip aborts the run (0 = default 2)")
	)
	elastic := elasticMode("off")
	flag.Var(&elastic, "elastic", "failure model: off | survive | recover (bare -elastic = survive)")
	profiles := prof.Register(flag.CommandLine)
	flag.Parse()

	if *listAlgos {
		listAlgorithms()
		return
	}
	if err := validateExplicitFlags(); err != nil {
		fatal(err)
	}
	if *every < 1 {
		fatal(fmt.Errorf("-every must be a positive integer, got %d", *every))
	}
	if err := profiles.Start(); err != nil {
		fatal(err)
	}

	train, test, err := loadData(*dataPath, *testPath, *synth, *scale, *seed)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("dataset: %s — %d samples × %d features, %d nonzeros\n",
		train.Name, train.Rows(), train.Dim(), train.NNZ())

	cfg := psra.Config{
		Algorithm:        psra.Algorithm(*algorithm),
		Topo:             psra.Topology{Nodes: *nodes, WorkersPerNode: *wpn},
		Rho:              *rho,
		Lambda:           *lambda,
		MaxIter:          *iters,
		GroupThreshold:   *threshold,
		MinBarrier:       *minBarr,
		MaxDelay:         *maxDelay,
		Elastic:          elastic != "off",
		CodecBudgetBytes: *codecKB,
		CodecTopK:        *codecTopK,
		CodecAgeScoring:  *codecAge,
		ShardedState:     *sharded,
		ShardBlocks:      *shardBlk,
		Aggregator:       *aggName,
		TrimF:            *trimF,
		QuarantineRounds: *quarRnds,
	}
	if *screenOn {
		cfg.Screen = psra.ScreenConfig{Enabled: true}
	}
	if *wdOn {
		cfg.Watchdog = psra.WatchdogConfig{
			Enabled:         true,
			Window:          *wdWindow,
			ResidualFactor:  *wdResFac,
			ObjectiveFactor: *wdObjFac,
			MaxRollbacks:    *wdMaxRB,
		}
	}
	if *chaosJoin != "" && elastic != "recover" {
		fatal(fmt.Errorf("-chaos-rejoin requires -elastic=recover"))
	}
	if !(*chaosCorr >= 0 && *chaosCorr <= 1) {
		fatal(fmt.Errorf("-chaos-corrupt %v outside [0, 1]", *chaosCorr))
	}
	if *chaosKill != "" || *chaosJoin != "" || *chaosCorr > 0 || *chaosCAt != "" || *chaosNaN != "" || *chaosByz != "" {
		plan := &transport.FaultPlan{Seed: *chaosSeed, CorruptProb: *chaosCorr}
		var err error
		if plan.KillAtIteration, err = parseSchedule(*chaosKill); err != nil {
			fatal(fmt.Errorf("-chaos-kill: %w", err))
		}
		if plan.RejoinAtIteration, err = parseSchedule(*chaosJoin); err != nil {
			fatal(fmt.Errorf("-chaos-rejoin: %w", err))
		}
		if plan.CorruptAtIteration, err = parseSchedule(*chaosCAt); err != nil {
			fatal(fmt.Errorf("-chaos-corrupt-at: %w", err))
		}
		if plan.NaNAtIteration, err = parseSchedule(*chaosNaN); err != nil {
			fatal(fmt.Errorf("-chaos-nan: %w", err))
		}
		if plan.ByzantineAtIteration, err = parseByzantine(*chaosByz); err != nil {
			fatal(fmt.Errorf("-chaos-byzantine: %w", err))
		}
		cfg.Faults = plan
	}
	opts := psra.RunOptions{Test: test}
	if *resume && *ckDir == "" {
		fatal(fmt.Errorf("-resume requires -checkpoint-dir"))
	}
	if *ckDir != "" {
		store, err := psra.NewDirCheckpointStore(*ckDir)
		if err != nil {
			fatal(err)
		}
		opts.Checkpoint = &psra.CheckpointOptions{Store: store, Every: *ckEvery, Resume: *resume}
	}
	opts.OnIteration = func(s psra.IterStat) {
		if s.Iter%*every != 0 && s.Iter != *iters-1 {
			return
		}
		fmt.Printf("iter %3d  objective %-12s accuracy %-8s cal %-10s comm %s\n",
			s.Iter+1, metrics.FormatFloat(s.Objective), metrics.FormatFloat(s.Accuracy),
			metrics.Seconds(s.CalTime), metrics.Seconds(s.CommTime))
	}
	res, err := psra.Train(cfg, train, opts)
	if stopErr := profiles.Stop(); stopErr != nil && err == nil {
		err = stopErr
	}
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\nfinal objective %s", metrics.FormatFloat(res.FinalObjective()))
	if test != nil {
		fmt.Printf(", test accuracy %s", metrics.FormatFloat(res.FinalAccuracy()))
	}
	fmt.Printf("\nvirtual system time %s (cal %s + comm %s), %s communicated\n",
		metrics.Seconds(res.SystemTime), metrics.Seconds(res.TotalCalTime),
		metrics.Seconds(res.TotalCommTime), metrics.Bytes(res.TotalBytes))
	for _, rb := range res.Rollbacks {
		fmt.Printf("ROLLED BACK: watchdog tripped at iteration %d (%s); resumed from the iteration-%d checkpoint\n",
			rb.TripIter+1, rb.Reason, rb.ToIter)
	}
	for _, ev := range res.Quarantines {
		if ev.Readmitted {
			fmt.Printf("READMITTED: rank %d returned to the live set at iteration %d after consecutive clean probes\n",
				ev.Rank, ev.Iter+1)
		} else {
			fmt.Printf("QUARANTINED: rank %d excluded at iteration %d by the contribution screen\n",
				ev.Rank, ev.Iter+1)
		}
	}
	if res.Degraded {
		fmt.Printf("DEGRADED: %d of %d workers survived (membership epoch %d) — objective is the survivors' optimum\n",
			res.LiveWorkers, cfg.Topo.Size(), res.Epoch)
	} else if res.Epoch > 0 {
		fmt.Printf("RECOVERED: membership changed %d times but the final world is whole — objective is the full-data optimum\n",
			res.Epoch)
	}
	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := res.WriteJSON(f); err != nil {
			fatal(err)
		}
		fmt.Printf("run record written to %s\n", *jsonOut)
	}
}

// validateExplicitFlags rejects nonsense values for flags whose zero
// default means "auto": leaving them unset is fine, but explicitly passing
// a non-positive value is a typo'd invocation that would otherwise be
// silently reinterpreted as the default.
func validateExplicitFlags() error {
	var err error
	flag.Visit(func(f *flag.Flag) {
		if err != nil {
			return
		}
		switch f.Name {
		case "shard-blocks", "checkpoint-every", "codec-budget-bytes",
			"min-barrier", "max-delay", "trim-f", "quarantine-rounds":
			if v, perr := strconv.ParseInt(f.Value.String(), 10, 64); perr != nil || v <= 0 {
				err = fmt.Errorf("-%s must be a positive integer, got %s", f.Name, f.Value.String())
			}
		}
	})
	return err
}

// parseSchedule parses "rank@iter[,rank@iter...]" into a fault schedule;
// an empty string is a nil map (no faults of that kind).
func parseSchedule(s string) (map[int]int, error) {
	if s == "" {
		return nil, nil
	}
	sched := make(map[int]int)
	for _, entry := range strings.Split(s, ",") {
		rankStr, iterStr, ok := strings.Cut(entry, "@")
		if !ok {
			return nil, fmt.Errorf("entry %q is not rank@iter", entry)
		}
		rank, err := strconv.Atoi(rankStr)
		if err != nil {
			return nil, fmt.Errorf("entry %q: bad rank: %w", entry, err)
		}
		iter, err := strconv.Atoi(iterStr)
		if err != nil {
			return nil, fmt.Errorf("entry %q: bad iteration: %w", entry, err)
		}
		if _, dup := sched[rank]; dup {
			return nil, fmt.Errorf("rank %d scheduled twice", rank)
		}
		sched[rank] = iter
	}
	return sched, nil
}

// parseByzantine parses "rank@iter[-until]:mode[,...]" into a Byzantine
// schedule. Every malformed entry is rejected loudly — an unknown mode, a
// duplicated rank, or a negative iteration silently dropped would turn a
// chaos experiment into a clean run that "proves" robustness it never
// tested.
func parseByzantine(s string) (map[int]transport.ByzantineFault, error) {
	if s == "" {
		return nil, nil
	}
	sched := make(map[int]transport.ByzantineFault)
	for _, entry := range strings.Split(s, ",") {
		rankStr, rest, ok := strings.Cut(entry, "@")
		if !ok {
			return nil, fmt.Errorf("entry %q is not rank@iter:mode", entry)
		}
		window, mode, ok := strings.Cut(rest, ":")
		if !ok {
			return nil, fmt.Errorf("entry %q is missing its :mode", entry)
		}
		if !transport.ValidByzantineMode(mode) {
			return nil, fmt.Errorf("entry %q: unknown mode %q (want %s)",
				entry, mode, strings.Join(transport.ByzantineModes(), " | "))
		}
		rank, err := strconv.Atoi(rankStr)
		if err != nil || rank < 0 {
			return nil, fmt.Errorf("entry %q: bad rank %q", entry, rankStr)
		}
		fromStr, untilStr, bounded := strings.Cut(window, "-")
		from, err := strconv.Atoi(fromStr)
		if err != nil || from < 0 {
			return nil, fmt.Errorf("entry %q: bad iteration %q", entry, fromStr)
		}
		bf := transport.ByzantineFault{Iteration: from, Mode: mode}
		if bounded {
			until, err := strconv.Atoi(untilStr)
			if err != nil || until <= from {
				return nil, fmt.Errorf("entry %q: until %q must be an integer past the start iteration", entry, untilStr)
			}
			bf.Until = until
		}
		if _, dup := sched[rank]; dup {
			return nil, fmt.Errorf("rank %d scheduled twice", rank)
		}
		sched[rank] = bf
	}
	return sched, nil
}

// listAlgorithms prints the registry: every runnable algorithm with the
// (consensus, sync, codec) triple it binds.
func listAlgorithms() {
	for _, v := range psra.Variants() {
		state := ""
		if v.Sharded {
			state = " state=sharded"
		}
		fmt.Printf("%-20s consensus=%-11s sync=%-5s codec=%-10s%s %s\n",
			v.Name, v.Consensus, v.Sync, v.Codec, state, v.Description)
	}
}

func loadData(dataPath, testPath, synth string, scale float64, seed int64) (*psra.Dataset, *psra.Dataset, error) {
	if dataPath != "" {
		train, err := readLIBSVM(dataPath, 0)
		if err != nil {
			return nil, nil, err
		}
		var test *psra.Dataset
		if testPath != "" {
			if test, err = readLIBSVM(testPath, train.Dim()); err != nil {
				return nil, nil, err
			}
		}
		return train, test, nil
	}
	cfg, err := psra.Preset(synth, scale, seed)
	if err != nil {
		return nil, nil, fmt.Errorf("-synth %s -scale %v: %w", synth, scale, err)
	}
	return psra.Generate(cfg)
}

func readLIBSVM(path string, dim int) (*psra.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dataset.ReadLIBSVM(f, dim, path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "psra-train:", err)
	os.Exit(1)
}
