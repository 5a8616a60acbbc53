// Package psrahgadmm is a Go implementation of PSRA-HGADMM — the
// communication-efficient distributed consensus ADMM of Qiu, Lei & Wang
// (ICPP 2023) — together with every substrate it needs and the baselines
// it is evaluated against.
//
// The library trains L1-regularized logistic regression across a cluster
// of workers using the global consensus ADMM recursion, with the paper's
// three stacked ideas:
//
//   - a decentralized rewrite of the z-update so consensus is a single
//     Allreduce of w_i = y_i + ρ·x_i per iteration;
//   - PSR-Allreduce, a parameter-server-flavoured Ring-Allreduce variant
//     whose sparse-data worst case is N× better than the ring's;
//   - the Worker-Leader-Group generator (WLG) hierarchy: intra-node BSP
//     reduction to an elected Leader, and dynamic arrival-ordered Leader
//     groups that keep fast nodes from idling behind stragglers.
//
// Two execution paths share the algorithm code:
//
//   - Train runs the deterministic experiment engine: real numerics and
//     real collective schedules under a simulated cluster clock
//     (bit-reproducible; used for all paper-figure experiments).
//   - The wlg runtime (see RunWorker/RunGG in internal/wlg, exercised by
//     cmd/psra-worker and the tcpcluster example) runs the same
//     algorithm as a genuine message-passing program over in-process
//     channels or a TCP mesh.
//
// Quickstart:
//
//	train, test, _ := psrahgadmm.Generate(psrahgadmm.News20Like(0.001, 42))
//	cfg := psrahgadmm.Config{
//		Algorithm: psrahgadmm.PSRAHGADMM,
//		Topo:      psrahgadmm.Topology{Nodes: 4, WorkersPerNode: 2},
//		Rho:       1, Lambda: 1, MaxIter: 50,
//	}
//	res, err := psrahgadmm.Train(cfg, train, psrahgadmm.RunOptions{Test: test})
package psrahgadmm

import (
	"psrahgadmm/internal/checkpoint"
	"psrahgadmm/internal/collective"
	"psrahgadmm/internal/core"
	"psrahgadmm/internal/dataset"
	"psrahgadmm/internal/exchange"
	"psrahgadmm/internal/simnet"
	"psrahgadmm/internal/watchdog"
)

// Core configuration and result types.
type (
	// Config parameterizes a training run; see internal/core for field
	// documentation.
	Config = core.Config
	// RunOptions carries optional evaluation inputs (test set, reference
	// optimum, progress callback).
	RunOptions = core.RunOptions
	// Result is a completed run: per-iteration history, final iterate,
	// virtual-time and byte totals.
	Result = core.Result
	// IterStat is one iteration's record.
	IterStat = core.IterStat
	// Algorithm names a registered consensus-ADMM variant.
	Algorithm = core.Algorithm
	// Variant is one registry entry: an algorithm name bound to a
	// (consensus, sync, codec) strategy triple.
	Variant = core.Variant
	// ConsensusKind names a consensus strategy (how W is aggregated and z
	// redistributed): star, ring, flat PSR, staged tree, or group-local.
	ConsensusKind = core.ConsensusKind
	// SyncKind names a synchronization model (when a round admits its
	// participants): BSP, SSP, or bounded-delay async.
	SyncKind = core.SyncKind
	// ExchangeKind names a wire codec (what travels): exact sparse,
	// quantized sparse, dense fp64, or dense fp32.
	ExchangeKind = exchange.Kind
	// Topology is the virtual cluster layout (nodes × workers/node).
	Topology = simnet.Topology
	// CostModel is the α/β virtual-time model.
	CostModel = simnet.CostModel
	// Stragglers injects deterministic slow nodes.
	Stragglers = simnet.Stragglers
	// Jitter injects deterministic per-worker compute variance.
	Jitter = simnet.Jitter
	// Dataset is a labeled sparse design matrix.
	Dataset = dataset.Dataset
	// SynthConfig parameterizes the synthetic dataset generator.
	SynthConfig = dataset.SynthConfig
	// CheckpointOptions enables periodic snapshots for Train (and resume
	// from the latest one); see RunOptions.Checkpoint.
	CheckpointOptions = core.CheckpointOptions
	// CheckpointStore persists snapshot blobs (directory-backed or
	// in-memory).
	CheckpointStore = checkpoint.Store
	// WatchdogConfig switches the divergence watchdog (Config.Watchdog):
	// NaN/Inf scanning over the iterates plus sliding-window explosion
	// detection on residuals and objective, with checkpoint auto-rollback
	// when RunOptions.Checkpoint is set. The watchdog's tuning is fixed;
	// Enabled is its only field.
	WatchdogConfig = watchdog.Config
	// RollbackEvent records one watchdog-triggered checkpoint rollback
	// (see Result.Rollbacks).
	RollbackEvent = core.RollbackEvent
	// ScreenConfig switches the contribution screen (Config.Screen):
	// per-rank outlier scoring of every contribution entering a consensus
	// reduce, with sustained outliers quarantined and re-admitted after
	// three consecutive clean probes. The screen's tuning is fixed;
	// Enabled is its only field.
	ScreenConfig = watchdog.ScreenConfig
	// QuarantineEvent records one screen-triggered membership transition
	// (see Result.Quarantines).
	QuarantineEvent = core.QuarantineEvent
)

// ErrDiverged is the sentinel every watchdog abort wraps: errors.Is
// distinguishes "training went numerically wrong and could not be rolled
// back" from infrastructure failures.
var ErrDiverged = watchdog.ErrDiverged

// ErrQuorumLost is the sentinel every "robust quorum unreachable" abort
// wraps: more ranks are quarantined than the robust aggregator tolerates
// (Config.TrimF for trimmed-mean, a minority for the median), so the
// remaining faulty minority could dominate the trim.
var ErrQuorumLost = watchdog.ErrQuorumLost

// The consensus reduce statistics (Config.Aggregator).
const (
	// AggregatorMean is the exact sum-then-divide consensus every paper
	// algorithm specifies — the default, bit-identical to runs predating
	// the Aggregator axis.
	AggregatorMean = collective.AggMeanName
	// AggregatorTrimmedMean drops the Config.TrimF largest and smallest
	// contributions per coordinate before averaging — robust to TrimF
	// Byzantine ranks.
	AggregatorTrimmedMean = collective.AggTrimmedMeanName
	// AggregatorMedian takes the coordinate-wise median — robust to any
	// faulty minority.
	AggregatorMedian = collective.AggMedianName
)

// The implemented algorithms.
const (
	// PSRAHGADMM is the paper's contribution: hierarchical grouping
	// consensus ADMM with PSR-Allreduce.
	PSRAHGADMM = core.PSRAHGADMM
	// PSRAADMM is the flat variant: one cluster-wide PSR-Allreduce.
	PSRAADMM = core.PSRAADMM
	// GRADMM is the static-grouping Ring-Allreduce predecessor (paper
	// ref. [9]).
	GRADMM = core.GRADMM
	// ADMMLib is the hierarchical Ring-Allreduce + SSP baseline.
	ADMMLib = core.ADMMLib
	// ADADMM is the asynchronous master-worker baseline.
	ADADMM = core.ADADMM
	// GCADMM is classic synchronous master-worker consensus ADMM.
	GCADMM = core.GCADMM
	// PSRAHGADMMGroup is the group-local reading of Algorithms 1–3: each
	// WLG group computes z from its own members only.
	PSRAHGADMMGroup = core.PSRAHGADMMGroup
	// PSRAHGADMMSSPQ8 composes the staged aggregation tree with SSP
	// admission and an 8-bit quantized sparse exchange — a combination the
	// pre-registry engine could not express.
	PSRAHGADMMSSPQ8 = core.PSRAHGADMMSSPQ8
	// PSRAADMMAsync drives the flat PSR-Allreduce asynchronously.
	PSRAADMMAsync = core.PSRAADMMAsync
	// GRADMMSSP runs GR-ADMM's sparse Leader ring under SSP.
	GRADMMSSP = core.GRADMMSSP
	// PSRAHGADMMSharded is the staged aggregation tree with block-sharded
	// consensus state: no rank holds the full model (see Config.ShardedState
	// for the same bit on other variants).
	PSRAHGADMMSharded = core.PSRAHGADMMSharded
	// PSRAHGADMMShardedSSP composes block-sharded state with node-granular
	// SSP: stale nodes' cached contributions keep feeding their blocks for
	// up to Max_delay rounds while the fresh quorum advances.
	PSRAHGADMMShardedSSP = core.PSRAHGADMMShardedSSP
	// PSRAHGADMMShardedAsync drives the block-sharded aggregation tree
	// asynchronously (quorum of one, bounded delay).
	PSRAHGADMMShardedAsync = core.PSRAHGADMMShardedAsync
	// PSRAADMMRobust is the flat PSR-Allreduce with a trimmed-mean robust
	// consensus reduce: convergence within the robust consensus bias under
	// up to TrimF Byzantine ranks.
	PSRAADMMRobust = core.PSRAADMMRobust
	// PSRAHGADMMRobust is the staged aggregation tree forced to a single
	// combine point with a trimmed-mean reduce (robust statistics are
	// non-associative, so the tree's merges collapse into one).
	PSRAHGADMMRobust = core.PSRAHGADMMRobust
	// GCADMMMedian is classic master-worker consensus ADMM with a
	// coordinate-median reduce at the master.
	GCADMMMedian = core.GCADMMMedian
	// PSRAADMMShardedRobust composes block-sharded consensus state with the
	// trimmed-mean reduce: each shard owner trims its own blocks.
	PSRAADMMShardedRobust = core.PSRAADMMShardedRobust
)

// Train runs L1-regularized logistic regression with the configured
// algorithm over the virtual cluster and returns the per-iteration
// history. Runs are deterministic: equal inputs give bit-identical
// histories.
func Train(cfg Config, train *Dataset, opts RunOptions) (*Result, error) {
	return core.Run(cfg, train, opts)
}

// Algorithms lists every registered variant name in registration order
// (the paper's six first, then the named strategy compositions).
func Algorithms() []Algorithm { return core.Algorithms() }

// Variants lists every registered variant with its strategy triple and
// description, in registration order.
func Variants() []Variant { return core.Variants() }

// ReferenceOptimum computes a tight approximation of the global optimum
// f* (the denominator of the paper's relative-error metric, eq. 18).
func ReferenceOptimum(train *Dataset, rho, lambda float64, iters int) (float64, []float64, error) {
	return core.ReferenceOptimum(train, rho, lambda, iters)
}

// NewDirCheckpointStore returns a crash-safe file-backed checkpoint store
// (one atomically-replaced snapshot file inside dir) for
// CheckpointOptions.Store.
func NewDirCheckpointStore(dir string) (CheckpointStore, error) {
	return checkpoint.NewDirStore(dir, "")
}

// Generate builds a synthetic dataset (train and test splits)
// deterministically from cfg.Seed.
func Generate(cfg SynthConfig) (train, test *Dataset, err error) {
	return dataset.Generate(cfg)
}

// Dataset presets mirroring the paper's Table 1 corpora shapes at a given
// scale in (0, 1]; Preset looks one up by name and refuses any other scale.
var (
	Preset      = dataset.Preset
	News20Like  = dataset.News20Like
	WebspamLike = dataset.WebspamLike
	URLLike     = dataset.URLLike
)

// Tianhe2Like returns the virtual cluster cost model shaped after the
// paper's platform.
func Tianhe2Like() CostModel { return simnet.Tianhe2Like() }
