package core

import (
	"fmt"

	"psrahgadmm/internal/collective"
	"psrahgadmm/internal/exchange"
)

// The algorithm registry: every runnable variant is a named binding of the
// three strategy axes. The paper's six algorithms are just entries here —
// GADMM-style topology changes, Zhu-style synchronization changes, and
// lossy-exchange changes are one Register call each, not a new engine.

// Variant binds an algorithm name to a (consensus, sync, codec) triple.
type Variant struct {
	Name      Algorithm
	Consensus ConsensusKind
	Sync      SyncKind
	// Codec is the variant's exchange codec; Config.Codec overrides it per
	// run.
	Codec exchange.Kind
	// Sharded runs the variant with block-sharded consensus state: the
	// model dimension is block-partitioned, every rank holds only the
	// blocks its data touches, and the z-update averages each block over
	// its live subscribers. Config.ShardedState sets the same bit per run.
	Sharded bool
	// Aggregator is the variant's default consensus reduce statistic (a
	// collective.Agg*Name); empty means "mean", the exact sum-then-divide
	// the paper's algorithms use. Config.Aggregator overrides it per run.
	Aggregator string
	// Description is the one-line summary the CLIs print when enumerating
	// the registry.
	Description string
}

var registry = struct {
	order  []Algorithm
	byName map[Algorithm]Variant
}{byName: map[Algorithm]Variant{}}

// Register adds a variant to the registry. It panics on a duplicate name
// or a combination checkComposition rejects, since registrations are
// package-init-time programming errors, not runtime conditions.
func Register(v Variant) {
	if v.Name == "" {
		panic("core: Register: empty algorithm name")
	}
	if _, dup := registry.byName[v.Name]; dup {
		panic(fmt.Sprintf("core: Register: duplicate algorithm %q", v.Name))
	}
	if _, err := exchange.For(v.Codec); err != nil {
		panic(fmt.Sprintf("core: Register(%s): %v", v.Name, err))
	}
	switch v.Consensus {
	case ConsensusStar, ConsensusRing, ConsensusFlat, ConsensusTree, ConsensusGroupLocal:
	default:
		panic(fmt.Sprintf("core: Register(%s): unknown consensus %q", v.Name, v.Consensus))
	}
	switch v.Sync {
	case SyncBSP, SyncSSP, SyncAsync:
	default:
		panic(fmt.Sprintf("core: Register(%s): unknown sync %q", v.Name, v.Sync))
	}
	agg, err := collective.ParseAgg(v.Aggregator)
	if err == nil {
		err = checkComposition(v.Consensus, v.Codec, v.Sharded, agg)
	}
	if err != nil {
		panic(fmt.Sprintf("core: Register(%s): %v", v.Name, err))
	}
	registry.byName[v.Name] = v
	registry.order = append(registry.order, v.Name)
}

// checkComposition is the one statement of which axis values combine.
// Register applies it to a variant's registered axes, Config.Validate to
// the axes a run resolves to.
func checkComposition(ck ConsensusKind, codec exchange.Kind, sharded bool, agg collective.Agg) error {
	// The hierarchical sparse strategies have no dense wire format.
	sparseOnly := ck == ConsensusFlat || ck == ConsensusTree || ck == ConsensusGroupLocal
	if sparseOnly && (codec == exchange.Dense || codec == exchange.DenseF32) {
		return fmt.Errorf("%s consensus requires a sparse codec, not %s", ck, codec)
	}
	// Sharded state composes with every sync model (the StateStore layer
	// scales each block by its live subscribers regardless of admission
	// order); only the consensus axis is constrained — the ring hierarchy
	// and group-local consensus assume a full-width aggregate.
	fullWidth := ck == ConsensusFlat || ck == ConsensusStar || ck == ConsensusTree
	if sharded && !fullWidth {
		return fmt.Errorf("sharded state supports flat-psr, star, and tree consensus, not %s", ck)
	}
	// Robust aggregators are non-associative: every contribution must meet
	// at one combine point (a PSR owner, the star master, a single tree
	// merge). The pairwise ring and the group-local split have no such
	// point, and sharded robustness needs flat's per-block contributor
	// sets.
	if agg != collective.AggMean {
		if !fullWidth {
			return fmt.Errorf("aggregator %q needs a single combine point; %s consensus reduces pairwise", agg, ck)
		}
		if sharded && ck != ConsensusFlat {
			return fmt.Errorf("aggregator %q over sharded state requires flat-psr consensus (per-block contributor sets), not %s", agg, ck)
		}
	}
	return nil
}

// Lookup returns the registered variant for name.
func Lookup(name Algorithm) (Variant, bool) {
	v, ok := registry.byName[name]
	return v, ok
}

// Variants lists every registered variant in registration order.
func Variants() []Variant {
	out := make([]Variant, len(registry.order))
	for i, name := range registry.order {
		out[i] = registry.byName[name]
	}
	return out
}

// Algorithms lists every registered algorithm name in registration order.
func Algorithms() []Algorithm {
	return append([]Algorithm(nil), registry.order...)
}

func init() {
	// The paper's six variants. Registration order is presentation order:
	// the contribution first, then the ablations, then the baselines.
	Register(Variant{
		Name: PSRAHGADMM, Consensus: ConsensusTree, Sync: SyncBSP, Codec: exchange.Sparse,
		Description: "the contribution: WLG-grouped hierarchical consensus ADMM, staged PSR aggregation tree (BSP, sparse exchange)",
	})
	Register(Variant{
		Name: PSRAADMM, Consensus: ConsensusFlat, Sync: SyncBSP, Codec: exchange.Sparse,
		Description: "flat ablation: one cluster-wide sparse PSR-Allreduce, no hierarchy (§4.2 before WLG)",
	})
	Register(Variant{
		Name: GRADMM, Consensus: ConsensusRing, Sync: SyncBSP, Codec: exchange.Sparse,
		Description: "baseline (ref. [9]): same BSP hierarchy, sparse Ring-Allreduce among all Leaders, no grouping",
	})
	Register(Variant{
		Name: ADMMLib, Consensus: ConsensusRing, Sync: SyncSSP, Codec: exchange.DenseF32,
		Description: "baseline (Xie & Lei): hierarchical dense fp32 Ring-Allreduce under node-granular SSP",
	})
	Register(Variant{
		Name: ADADMM, Consensus: ConsensusStar, Sync: SyncSSP, Codec: exchange.Dense,
		Description: "baseline (Zhang & Kwok): asynchronous master-worker consensus ADMM, partial barrier + bounded delay",
	})
	Register(Variant{
		Name: GCADMM, Consensus: ConsensusStar, Sync: SyncBSP, Codec: exchange.Dense,
		Description: "baseline: classic fully synchronous master-worker global consensus ADMM",
	})

	// The group-local reading of the paper's Algorithms 1-3.
	Register(Variant{
		Name: PSRAHGADMMGroup, Consensus: ConsensusGroupLocal, Sync: SyncBSP, Codec: exchange.Sparse,
		Description: "group-local reading of Algorithms 1-3: each WLG group computes z from its own members only",
	})

	// Compositions the monolithic switch could not express.
	Register(Variant{
		Name: PSRAHGADMMSSPQ8, Consensus: ConsensusTree, Sync: SyncSSP, Codec: exchange.SparseQ8,
		Description: "new composition: quantized (8-bit) hierarchical staged-tree aggregation under node-granular SSP",
	})
	Register(Variant{
		Name: PSRAADMMAsync, Consensus: ConsensusFlat, Sync: SyncAsync, Codec: exchange.Sparse,
		Description: "new composition: flat sparse PSR-Allreduce driven asynchronously (quorum of one, bounded delay)",
	})
	Register(Variant{
		Name: GRADMMSSP, Consensus: ConsensusRing, Sync: SyncSSP, Codec: exchange.Sparse,
		Description: "new composition: GR-ADMM's sparse Leader ring under ADMMLib's SSP barrier",
	})

	// Top-k error-feedback compositions: only the k largest-magnitude
	// coordinates of each contribution travel; dropped mass (and, for -q8,
	// quantization error) carries into the next round's contribution via
	// the per-rank exchange.State residual.
	Register(Variant{
		Name: PSRAHGADMMTopK, Consensus: ConsensusTree, Sync: SyncBSP, Codec: exchange.TopK,
		Description: "new composition: staged aggregation tree with top-k error-feedback sparsification (adaptive k)",
	})
	Register(Variant{
		Name: PSRAHGADMMTopKQ8, Consensus: ConsensusTree, Sync: SyncBSP, Codec: exchange.TopKQ8,
		Description: "new composition: top-k error-feedback selection composed with 8-bit quantized survivors",
	})
	Register(Variant{
		Name: PSRAADMMTopK, Consensus: ConsensusFlat, Sync: SyncBSP, Codec: exchange.TopK,
		Description: "new composition: flat sparse PSR-Allreduce over top-k error-feedback contributions",
	})

	// Block-sharded consensus state: no rank holds the full model. The
	// dimension is block-partitioned (ShardBlocks, default world size),
	// every rank stores only the blocks its shard's active columns touch,
	// and the z-update averages each block over its live subscribers.
	Register(Variant{
		Name: PSRAHGADMMSharded, Consensus: ConsensusTree, Sync: SyncBSP, Codec: exchange.Sparse, Sharded: true,
		Description: "block-sharded state: staged aggregation tree with per-block subscriber z-averaging; no rank holds the full model",
	})

	// Sharded state composed with the relaxed barriers — the compositions
	// the StateStore refactor unlocked: stale ranks' cached contributions
	// keep feeding their blocks' sums under the Max_delay bound, and each
	// block still averages over its live subscribers.
	Register(Variant{
		Name: PSRAHGADMMShardedSSP, Consensus: ConsensusTree, Sync: SyncSSP, Codec: exchange.Sparse, Sharded: true,
		Description: "new composition: block-sharded staged aggregation tree under node-granular SSP (partial barrier, bounded staleness)",
	})
	Register(Variant{
		Name: PSRAHGADMMShardedAsync, Consensus: ConsensusTree, Sync: SyncAsync, Codec: exchange.Sparse, Sharded: true,
		Description: "new composition: block-sharded staged aggregation tree driven asynchronously (quorum of one, bounded delay)",
	})

	// Byzantine-tolerant compositions: the Aggregator axis swaps the
	// consensus reduce statistic while everything else — codec, sync,
	// placement — stays the variant's. Mean-aggregator entries above are
	// untouched and bit-identical to their goldens.
	Register(Variant{
		Name: PSRAADMMRobust, Consensus: ConsensusFlat, Sync: SyncBSP, Codec: exchange.Sparse,
		Aggregator:  collective.AggTrimmedMeanName,
		Description: "robust composition: flat sparse PSR-Allreduce with per-coordinate trimmed-mean (tolerates TrimF Byzantine workers)",
	})
	Register(Variant{
		Name: PSRAHGADMMRobust, Consensus: ConsensusTree, Sync: SyncBSP, Codec: exchange.Sparse,
		Aggregator:  collective.AggTrimmedMeanName,
		Description: "robust composition: aggregation tree forced to a single merge, trimmed-mean over node partials (node-granular tolerance)",
	})
	Register(Variant{
		Name: GCADMMMedian, Consensus: ConsensusStar, Sync: SyncBSP, Codec: exchange.Dense,
		Aggregator:  collective.AggMedianName,
		Description: "robust baseline: master-worker star with coordinate-median aggregation",
	})
	Register(Variant{
		Name: PSRAADMMShardedRobust, Consensus: ConsensusFlat, Sync: SyncBSP, Codec: exchange.Sparse, Sharded: true,
		Aggregator:  collective.AggTrimmedMeanName,
		Description: "robust composition: block-sharded flat PSR with trimmed-mean over each block's live subscribers",
	})
}
