package core

import (
	"flag"
	"fmt"

	"psrahgadmm/internal/dataset"
)

// Flags is one run's configuration as the command-line flags psra-train
// and psra-worker share set it: every run flag binds straight into the
// embedded Config, and -synth, -scale and -seed name the synthetic dataset
// that Preset resolves.
type Flags struct {
	Config
	synth string
	scale float64
	seed  int64
}

// RegisterFlags declares the shared run flags on fs, each with one default
// and one help text, and returns the Flags they fill when fs is parsed. A
// flag whose 0 means "the default" takes any non-negative value; Validate
// refuses the rest.
func RegisterFlags(fs *flag.FlagSet) *Flags {
	f := new(Flags)
	c := &f.Config
	fs.IntVar(&c.Topo.Nodes, "nodes", 4, "cluster nodes")
	fs.IntVar(&c.Topo.WorkersPerNode, "wpn", 4, "workers per node")
	fs.IntVar(&c.MaxIter, "iters", 100, "outer iterations")
	fs.Float64Var(&c.Rho, "rho", 1, "ADMM penalty parameter ρ")
	fs.Float64Var(&c.Lambda, "lambda", 1, "L1 regularization weight λ")
	fs.IntVar(&c.GroupThreshold, "threshold", 0, "GQ grouping threshold in nodes (0 = all nodes)")
	fs.IntVar(&c.MinBarrier, "min-barrier", 0, "SSP partial-barrier size in workers, the paper's Min_barrier (0 = half the workers in the engine, a full gather in psra-worker, where a positive value requires -elastic)")
	fs.IntVar(&c.MaxDelay, "max-delay", 0, "SSP staleness bound in rounds (0 = the paper's Max_delay of 5; psra-worker: requires -min-barrier)")
	fs.Int64Var(&c.CodecBudgetBytes, "codec-budget-bytes", 0, "per-round wire budget for top-k codecs: k adapts to stay under it (0 = no budget)")
	fs.BoolVar(&c.Elastic, "elastic", false, "survive peer deaths: prune dead ranks and keep training on the survivors, and re-admit ranks that return (psra-worker: exit 4 when degraded)")
	fs.BoolVar(&c.Watchdog.Enabled, "watchdog", false, "divergence watchdog: NaN/Inf and explosion detection (psra-train: rollback with -checkpoint-dir; psra-worker: exit 5 on a trip)")
	fs.IntVar(&c.Watchdog.Window, "watchdog-window", 0, "healthy iterations forming the explosion baseline (0 = default 8)")
	fs.Float64Var(&c.Watchdog.ResidualFactor, "watchdog-residual-factor", 0, "explosion threshold as a multiple of the window floor (0 = default 1e4)")
	fs.StringVar(&c.Aggregator, "aggregator", "", "consensus reduce statistic: mean | trimmed-mean | coordinate-median (empty = the algorithm's registered default; psra-worker: robust choices require -elastic)")
	fs.IntVar(&c.TrimF, "trim-f", 0, "trimmed-mean per-side trim count (0 = default 1 with trimmed-mean)")
	fs.BoolVar(&c.Screen.Enabled, "screen", false, "contribution screen: score every contribution against its rank's baseline and quarantine sustained outliers (psra-worker: requires -elastic; exit 6 when quarantines exceed the robust tolerance)")
	fs.IntVar(&c.QuarantineRounds, "quarantine-rounds", 0, "consecutive clean probes a quarantined rank needs for re-admission (0 = default 3)")
	fs.StringVar(&f.synth, "synth", "news20", "synthetic preset: news20 | webspam | url")
	fs.Float64Var(&f.scale, "scale", 0.002, "synthetic preset scale in (0,1]")
	fs.Int64Var(&f.seed, "seed", 1, "synthetic generation seed (must match across psra-worker ranks)")
	return f
}

// Preset resolves -synth, -scale and -seed to a synthetic dataset
// configuration, naming both flags when it refuses them.
func (f *Flags) Preset() (dataset.SynthConfig, error) {
	cfg, err := dataset.Preset(f.synth, f.scale, f.seed)
	if err != nil {
		return cfg, fmt.Errorf("-synth %s -scale %v: %w", f.synth, f.scale, err)
	}
	return cfg, nil
}
