package bench

import (
	"fmt"

	"psrahgadmm/internal/core"
	"psrahgadmm/internal/metrics"
)

// Zoo runs every registered algorithm — the paper's six variants plus the
// strategy compositions the registry makes expressible — on one dataset
// and topology, reporting each variant's (consensus, sync, codec) triple
// next to its convergence and communication footprint. The experiment is
// registry-driven: a variant added to core's registry shows up here with
// no harness change.
func Zoo(opts Options) error {
	opts.fill()
	dcfg := BenchDatasets(opts.Seed, true)[0] // small dataset: the zoo is wide, not deep
	l, err := load(dcfg)
	if err != nil {
		return err
	}
	fstar, err := l.referenceOptimum(opts.Rho, opts.Lambda)
	if err != nil {
		return err
	}
	nodes, wpn := 4, 2
	iters := opts.MaxIter
	if iters > 30 {
		iters = 30
	}

	t := metrics.NewTable(
		fmt.Sprintf("Algorithm zoo — every registered variant, %s, %d nodes × %d workers (%d iters)",
			dcfg.Name, nodes, wpn, iters),
		"algorithm", "consensus", "sync", "codec", "rel_error", "system_time", "comm_bytes")
	for _, v := range core.Variants() {
		cfg := runCfg(v.Name, nodes, wpn, opts)
		cfg.MaxIter = iters
		res, err := core.Run(cfg, l.train, core.RunOptions{FStar: fstar, HaveFStar: true})
		if err != nil {
			return fmt.Errorf("zoo %s: %w", v.Name, err)
		}
		t.AddRow(string(v.Name), string(v.Consensus), string(v.Sync), string(v.Codec),
			res.History[len(res.History)-1].RelError,
			metrics.Seconds(res.SystemTime), metrics.Bytes(res.TotalBytes))
	}
	return emit(opts, t)
}
