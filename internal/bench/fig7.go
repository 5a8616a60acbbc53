package bench

import (
	"fmt"

	"psrahgadmm/internal/core"
	"psrahgadmm/internal/metrics"
	"psrahgadmm/internal/simnet"
)

// Fig7 reproduces Figure 7: PSRA-HGADMM with the dynamic grouping strategy
// versus without it, under injected stragglers — §5.5's methodology of
// randomly selected nodes with prolonged computation time (a fixed
// additive delay, so straggler damage does not shrink as shards shrink).
// Runs use psra-hgadmm-group, the reading of Algorithms 1–3
// under which fast groups proceed without waiting for slow nodes; the
// ungrouped baseline (threshold = all nodes) is a single global group,
// which every iteration must wait for the slowest node. The headline is
// the grouped/ungrouped communication-time trend from the smallest to the
// largest cluster.
func Fig7(opts Options) error {
	opts.fill()
	nodesList, wpn := fig6Sizes(opts.Quick)

	type cell struct{ cal, comm, sys float64 }
	for _, dcfg := range BenchDatasets(opts.Seed, opts.Quick) {
		l, err := load(dcfg)
		if err != nil {
			return err
		}
		run := func(nodes, threshold int) (cell, error) {
			cfg := runCfg(core.PSRAHGADMMGroup, nodes, wpn, opts)
			cfg.GroupThreshold = threshold
			// A slow node is picked rarely but pauses for a fixed virtual
			// delay large next to a shard's compute at scale.
			cfg.Stragglers = simnet.Stragglers{Seed: opts.Seed + 100, Prob: 0.05, Delay: 8e-3}
			cfg.EvalEvery = cfg.MaxIter
			res, err := core.Run(cfg, l.train, core.RunOptions{})
			if err != nil {
				return cell{}, err
			}
			return cell{cal: res.TotalCalTime, comm: res.TotalCommTime, sys: res.SystemTime}, nil
		}

		grouped := map[int]cell{}
		ungrouped := map[int]cell{}
		groupSize := 4 // the paper's Figure 3 illustrates a fixed small GQ threshold
		for _, nodes := range nodesList {
			th := groupSize
			if th > nodes {
				th = nodes
			}
			if grouped[nodes], err = run(nodes, th); err != nil {
				return fmt.Errorf("fig7 %s grouped %d: %w", dcfg.Name, nodes, err)
			}
			if ungrouped[nodes], err = run(nodes, nodes); err != nil {
				return fmt.Errorf("fig7 %s ungrouped %d: %w", dcfg.Name, nodes, err)
			}
		}

		tbl := metrics.NewTable(
			fmt.Sprintf("Figure 7 — %s: dynamic grouping vs ungrouped under stragglers (%d workers/node, %d iters)",
				dcfg.Name, wpn, opts.MaxIter),
			"nodes", "strategy", "cal_time", "comm_time", "system_time")
		for _, nodes := range nodesList {
			g, u := grouped[nodes], ungrouped[nodes]
			tbl.AddRow(nodes, "dynamic-grouping", metrics.Seconds(g.cal), metrics.Seconds(g.comm), metrics.Seconds(g.sys))
			tbl.AddRow(nodes, "ungrouped", metrics.Seconds(u.cal), metrics.Seconds(u.comm), metrics.Seconds(u.sys))
		}
		if err := emit(opts, tbl); err != nil {
			return err
		}

		lo := nodesList[0]
		hi := nodesList[len(nodesList)-1]
		fmt.Fprintf(opts.Out,
			"headline[%s]: comm time %d→%d nodes: grouped %+.1f%%, ungrouped %+.1f%%\n",
			dcfg.Name, lo, hi,
			metrics.PctChange(grouped[lo].comm, grouped[hi].comm),
			metrics.PctChange(ungrouped[lo].comm, ungrouped[hi].comm))
		fmt.Fprintf(opts.Out,
			"headline[%s]: system time at %d nodes: grouping %.1f%% lower than ungrouped (%s vs %s)\n\n",
			dcfg.Name, hi,
			metrics.Reduction(ungrouped[hi].sys, grouped[hi].sys),
			metrics.Seconds(grouped[hi].sys), metrics.Seconds(ungrouped[hi].sys))
	}
	return nil
}
