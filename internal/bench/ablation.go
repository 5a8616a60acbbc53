package bench

import (
	"fmt"

	"psrahgadmm/internal/core"
	"psrahgadmm/internal/exchange"
	"psrahgadmm/internal/metrics"
	"psrahgadmm/internal/simnet"
	"psrahgadmm/internal/solver"
)

// Ablation runs the design-choice studies DESIGN.md §5 calls out:
//
//  1. group-threshold sweep (consensus breadth vs straggler isolation);
//  2. hierarchy on/off (PSRA-HGADMM vs flat PSRA-ADMM);
//  3. TRON inner budget vs outer ADMM convergence;
//  4. computing-model comparison at fixed topology (BSP exact vs SSP).
func Ablation(opts Options) error {
	opts.fill()
	dcfg := BenchDatasets(opts.Seed, true)[0] // the small dataset keeps this quick
	l, err := load(dcfg)
	if err != nil {
		return err
	}
	fstar, err := l.referenceOptimum(opts.Rho, opts.Lambda)
	if err != nil {
		return err
	}
	nodes, wpn := 8, 2
	iters := opts.MaxIter
	if iters > 40 {
		iters = 40
	}

	// 1. Group threshold sweep under stragglers.
	t1 := metrics.NewTable(
		fmt.Sprintf("Ablation 1 — GQ threshold sweep, %s, %d nodes, stragglers on (%d iters)", dcfg.Name, nodes, iters),
		"threshold", "rel_error", "comm_time", "system_time")
	for _, th := range []int{1, 2, 4, 8} {
		cfg := runCfg(core.PSRAHGADMM, nodes, wpn, opts)
		cfg.MaxIter = iters
		cfg.GroupThreshold = th
		cfg.Stragglers = simnet.Default(opts.Seed + 7)
		res, err := core.Run(cfg, l.train, core.RunOptions{FStar: fstar, HaveFStar: true})
		if err != nil {
			return fmt.Errorf("ablation threshold %d: %w", th, err)
		}
		t1.AddRow(th, res.History[len(res.History)-1].RelError,
			metrics.Seconds(res.TotalCommTime), metrics.Seconds(res.SystemTime))
	}
	if err := emit(opts, t1); err != nil {
		return err
	}
	fmt.Fprintln(opts.Out)

	// 2. Hierarchical vs flat aggregation.
	t2 := metrics.NewTable(
		fmt.Sprintf("Ablation 2 — aggregation structure at identical BSP numerics, %s, %d nodes × %d workers (%d iters)", dcfg.Name, nodes, wpn, iters),
		"variant", "rel_error", "comm_time", "comm_bytes")
	for _, alg := range []core.Algorithm{core.PSRAHGADMM, core.PSRAADMM, core.GRADMM} {
		cfg := runCfg(alg, nodes, wpn, opts)
		cfg.MaxIter = iters
		cfg.GroupThreshold = nodes // isolate the hierarchy effect from grouping
		res, err := core.Run(cfg, l.train, core.RunOptions{FStar: fstar, HaveFStar: true})
		if err != nil {
			return fmt.Errorf("ablation hierarchy %s: %w", alg, err)
		}
		t2.AddRow(string(alg), res.History[len(res.History)-1].RelError,
			metrics.Seconds(res.TotalCommTime), metrics.Bytes(res.TotalBytes))
	}
	if err := emit(opts, t2); err != nil {
		return err
	}
	fmt.Fprintln(opts.Out)

	// 3. TRON inner budget.
	t3 := metrics.NewTable(
		fmt.Sprintf("Ablation 3 — TRON inner budget, %s (%d iters)", dcfg.Name, iters),
		"tron_max_iter", "rel_error", "cal_time")
	for _, mi := range []int{1, 3, 10, 50} {
		cfg := runCfg(core.PSRAHGADMM, nodes, wpn, opts)
		cfg.MaxIter = iters
		cfg.Tron = solver.TronOptions{MaxIter: mi}
		res, err := core.Run(cfg, l.train, core.RunOptions{FStar: fstar, HaveFStar: true})
		if err != nil {
			return fmt.Errorf("ablation tron %d: %w", mi, err)
		}
		t3.AddRow(mi, res.History[len(res.History)-1].RelError,
			metrics.Seconds(res.TotalCalTime))
	}
	if err := emit(opts, t3); err != nil {
		return err
	}
	fmt.Fprintln(opts.Out)

	// 4. Quantized exchange (the Q-GADMM-style lossy option): accuracy
	// and objective vs bytes at 0/16/8 value bits.
	t3b := metrics.NewTable(
		fmt.Sprintf("Ablation 3b — quantized w exchange, %s (%d iters)", dcfg.Name, iters),
		"value_bits", "rel_error", "comm_bytes")
	for _, q := range []struct {
		bits  int
		codec exchange.Kind
	}{{64, exchange.Sparse}, {16, exchange.SparseQ16}, {8, exchange.SparseQ8}} {
		cfg := runCfg(core.PSRAHGADMM, nodes, wpn, opts)
		cfg.MaxIter = iters
		cfg.Codec = q.codec
		res, err := core.Run(cfg, l.train, core.RunOptions{FStar: fstar, HaveFStar: true})
		if err != nil {
			return fmt.Errorf("ablation quant %d: %w", q.bits, err)
		}
		t3b.AddRow(q.bits, res.History[len(res.History)-1].RelError, metrics.Bytes(res.TotalBytes))
	}
	if err := emit(opts, t3b); err != nil {
		return err
	}
	fmt.Fprintln(opts.Out)

	// 5. Adaptive penalty (residual balancing) vs fixed ρ from a poor
	// starting value.
	t3c := metrics.NewTable(
		fmt.Sprintf("Ablation 3c — adaptive ρ from a poor start (ρ₀=0.01), %s (%d iters)", dcfg.Name, iters),
		"penalty", "rel_error", "final_rho")
	for _, adaptive := range []bool{false, true} {
		cfg := runCfg(core.PSRAHGADMM, nodes, wpn, opts)
		cfg.MaxIter = iters
		cfg.Rho = 0.01
		cfg.AdaptiveRho = adaptive
		res, err := core.Run(cfg, l.train, core.RunOptions{FStar: fstar, HaveFStar: true})
		if err != nil {
			return fmt.Errorf("ablation adaptive %v: %w", adaptive, err)
		}
		name := "fixed"
		if adaptive {
			name = "adaptive"
		}
		t3c.AddRow(name, res.History[len(res.History)-1].RelError,
			res.History[len(res.History)-1].Rho)
	}
	if err := emit(opts, t3c); err != nil {
		return err
	}
	fmt.Fprintln(opts.Out)

	// 6. Computing model at fixed hierarchy: BSP (PSRA-HGADMM single
	// group) vs SSP (ADMMLib) under stragglers.
	t4 := metrics.NewTable(
		fmt.Sprintf("Ablation 4 — BSP vs SSP at fixed topology, %s, stragglers on (%d iters)", dcfg.Name, iters),
		"model", "rel_error", "comm_time", "system_time")
	for _, row := range []struct {
		name string
		alg  core.Algorithm
	}{{"BSP (psra-hgadmm, one group)", core.PSRAHGADMM}, {"SSP (admmlib)", core.ADMMLib}} {
		cfg := runCfg(row.alg, nodes, wpn, opts)
		cfg.MaxIter = iters
		cfg.GroupThreshold = nodes
		cfg.Stragglers = simnet.Default(opts.Seed + 7)
		res, err := core.Run(cfg, l.train, core.RunOptions{FStar: fstar, HaveFStar: true})
		if err != nil {
			return fmt.Errorf("ablation model %s: %w", row.name, err)
		}
		t4.AddRow(row.name, res.History[len(res.History)-1].RelError,
			metrics.Seconds(res.TotalCommTime), metrics.Seconds(res.SystemTime))
	}
	return emit(opts, t4)
}
