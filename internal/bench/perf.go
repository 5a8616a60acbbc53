package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"psrahgadmm/internal/collective"
	"psrahgadmm/internal/core"
	"psrahgadmm/internal/dataset"
	"psrahgadmm/internal/exchange"
	"psrahgadmm/internal/simnet"
	"psrahgadmm/internal/solver"
	"psrahgadmm/internal/sparse"
	"psrahgadmm/internal/transport"
	"psrahgadmm/internal/vec"
	"psrahgadmm/internal/wire"
)

// PerfEntry records one benchmark of the steady-state perf suite.
type PerfEntry struct {
	Name        string  `json:"name"`
	Iters       int     `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// PerfReport is the schema of BENCH_psra.json: one entry per layer of the
// hot path that could allocate (sparse reduce, codec, collective, full
// engine iteration — the vec kernels cannot, and benchmark/kernels.go times
// them), recorded on one machine as a comparison point — absolute
// numbers are machine-dependent; allocs/op is the portable column and the
// one the alloc-budget tests enforce. ShardScale adds the sharded-state
// comparison at simnet scale: per-rank resident bytes and total wire
// bytes, dense vs block-sharded, at 64 and 256 ranks (both columns are
// deterministic and machine-independent; only the timing column drifts).
type PerfReport struct {
	Schema     int               `json:"schema"`
	GoVersion  string            `json:"go_version"`
	GOOS       string            `json:"goos"`
	GOARCH     string            `json:"goarch"`
	MaxProcs   int               `json:"gomaxprocs"`
	Benchmarks []PerfEntry       `json:"benchmarks"`
	ShardScale []ShardScaleEntry `json:"shard_scale,omitempty"`
}

// ShardScaleEntry records one dense-vs-sharded engine comparison: the same
// flat BSP run twice, replicated z and block-sharded z, on a sparse
// synthetic problem wide enough that subscriptions are genuinely partial.
// Resident bytes are the max over live ranks of the consensus-state
// footprint at the final iteration (IterStat.ResidentBytes); wire bytes
// are the run totals. Both are bit-deterministic, so the perf gate
// compares them exactly; ns/iter is informational.
type ShardScaleEntry struct {
	Name               string  `json:"name"`
	Ranks              int     `json:"ranks"`
	Blocks             int     `json:"blocks"`
	MaxProcs           int     `json:"gomaxprocs"`
	Iters              int     `json:"iters"`
	DenseNsPerIter     float64 `json:"dense_ns_per_iter"`
	ShardNsPerIter     float64 `json:"sharded_ns_per_iter"`
	DenseResidentBytes int64   `json:"dense_resident_bytes"`
	ShardResidentBytes int64   `json:"sharded_resident_bytes"`
	MemoryReduction    float64 `json:"memory_reduction"`
	DenseWireBytes     int64   `json:"dense_wire_bytes"`
	ShardWireBytes     int64   `json:"sharded_wire_bytes"`
}

func perfEntry(name string, r testing.BenchmarkResult) PerfEntry {
	return PerfEntry{
		Name:        name,
		Iters:       r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

func perfSparse(r *rand.Rand, dim int, density float64) *sparse.Vector {
	v := sparse.NewVector(dim, 0)
	for i := 0; i < dim; i++ {
		if r.Float64() < density {
			v.Index = append(v.Index, int32(i))
			v.Value = append(v.Value, r.NormFloat64())
		}
	}
	return v
}

// Perf runs the per-layer steady-state suite and returns the report.
// Each layer is measured through testing.Benchmark, so the CLI records
// exactly what `go test -bench` would.
func Perf(seed int64) (*PerfReport, error) {
	rep := &PerfReport{
		Schema:    1,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		MaxProcs:  runtime.GOMAXPROCS(0),
	}
	add := func(name string, fn func(b *testing.B)) {
		rep.Benchmarks = append(rep.Benchmarks, perfEntry(name, testing.Benchmark(fn)))
	}

	// Layer 0: the x-update as benchmark/mesh.go calls it (psra-worker runs
	// core.Rank) — solver.TRON on a full-dimension
	// objective over one rank's shard (1/8 of the benchmark's news20-like
	// problem, ~5% of the columns touched), warm-started from two ADMM rounds
	// and re-solved from that fixed state. The restriction to the shard's
	// support owns its scratch, so the row gates 0 allocs/op for every caller
	// that lets TRON make a fresh Workspace.
	{
		train, _, err := dataset.Generate(dataset.News20Like(0.02, seed+6))
		if err != nil {
			return nil, err
		}
		const (
			ranks       = 8
			rho, lambda = 1.0, 1.0
		)
		opts := solver.TronOptions{MaxIter: 10, MaxCG: 20}
		dim := train.Dim()
		z, w, bigW := make([]float64, dim), make([]float64, dim), make([]float64, dim)
		xs, ys := make([][]float64, ranks), make([][]float64, ranks)
		objs := make([]*solver.LogisticProx, ranks)
		for r, sh := range train.Shard(ranks) {
			xs[r], ys[r] = make([]float64, dim), make([]float64, dim)
			objs[r] = solver.NewLogisticProx(sh.X, sh.Labels, rho, ys[r], z)
		}
		for round := 0; round < 2; round++ {
			vec.Zero(bigW)
			for r, obj := range objs {
				solver.TRON(obj, xs[r], opts)
				solver.WLocal(w, ys[r], xs[r], rho)
				vec.AddInto(bigW, w)
			}
			solver.ZUpdateL1(z, bigW, lambda, rho, ranks)
			for r := range objs {
				solver.DualUpdate(ys[r], xs[r], z, rho)
			}
		}
		x := make([]float64, dim)
		add("solver/tron-shard-fulldim", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(x, xs[0])
				solver.TRON(objs[0], x, opts)
			}
		})
	}

	// Layer 1: sparse reduce (the accumulator behind every aggregation).
	{
		r := rand.New(rand.NewSource(seed + 1))
		const dim = 1 << 16
		vs := make([]*sparse.Vector, 8)
		for i := range vs {
			vs[i] = perfSparse(r, dim, 0.02)
		}
		acc := sparse.NewAccumulator(dim)
		out := new(sparse.Vector)
		add("sparse/reduce-8x", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				acc.Reset(dim)
				for _, v := range vs {
					acc.Add(v)
				}
				out = acc.SumInto(out)
			}
		})
	}

	// Layer 1b: the robust reduce at the same scale as the plain sum above
	// — 8 sparse contributors through the trimmed-mean combine, scratch and
	// destination recycled across ops like the reducer's steady state.
	{
		r := rand.New(rand.NewSource(seed + 1))
		const dim = 1 << 16
		vs := make([]*sparse.Vector, 8)
		for i := range vs {
			vs[i] = perfSparse(r, dim, 0.02)
		}
		spec := collective.AggSpec{Kind: collective.AggTrimmedMean, TrimF: 1}
		ws := new(collective.Workspace)
		out := new(sparse.Vector)
		out = ws.CombineSparse(spec, dim, vs, out) // warm scratch once
		add("collective/robust-combine-8x", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out = ws.CombineSparse(spec, dim, vs, out)
			}
		})
	}

	// Layer 2: codec encode (exact passthrough vs 8-bit quantization).
	for _, kind := range []exchange.Kind{exchange.Sparse, exchange.SparseQ8} {
		codec, err := exchange.For(kind)
		if err != nil {
			return nil, err
		}
		v := perfSparse(rand.New(rand.NewSource(seed+2)), 1<<16, 0.05)
		add(fmt.Sprintf("exchange/encode-%s", kind), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				codec.EncodeSparse(v)
			}
		})
	}

	// Layer 2b: the stateful top-k error-feedback encode — merge the
	// residual, select k survivors, carry the dropped mass — at the same
	// density as the plain codec benchmarks.
	{
		r := rand.New(rand.NewSource(seed + 2))
		v := perfSparse(r, 1<<16, 0.05)
		st := exchange.NewState(exchange.TopK, 0)
		// Pin k below the vector's nnz so every encode runs a real
		// selection, not just the merge.
		st.K, st.KMin = 1024, 1024
		work := sparse.NewVector(v.Dim, v.NNZ())
		for i := 0; i < 8; i++ { // saturate residual support and scratch
			work.ReuseFrom(v)
			st.Encode(work)
		}
		add("exchange/encode-topk-ef", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				work.ReuseFrom(v)
				st.Encode(work)
			}
		})
	}

	// Layer 3: the sparse PSR-Allreduce with persistent workspaces — the
	// engine crew's exact steady state, on the zero-copy fabric the engine
	// runs on — across a 4-member world, and across the 64-member one where
	// a round is 8 064 small messages and the fabric, not the reduce, is
	// the cost.
	for _, n := range []int{4, 64} {
		fab := transport.NewChanFabricZeroCopy(n)
		defer fab.Close()
		g := collective.WorldGroup(n)
		r := rand.New(rand.NewSource(seed + 3))
		wss := make([]collective.Workspace, n)
		ins := make([]*sparse.Vector, n)
		outs := make([]*sparse.Vector, n)
		eps := make([]transport.Endpoint, n)
		for i := 0; i < n; i++ {
			ins[i] = perfSparse(r, 1<<14, 0.05)
			outs[i] = new(sparse.Vector)
			eps[i] = fab.Endpoint(i)
		}
		add(fmt.Sprintf("collective/psr-allreduce-sparse-%d", n), func(b *testing.B) {
			// Persistent member goroutines signalled per op: spawning the
			// goroutines inside the measured loop would charge the harness's
			// own allocations to the collective.
			starts := make([]chan struct{}, n)
			var wg sync.WaitGroup
			for m := 0; m < n; m++ {
				starts[m] = make(chan struct{}, 1)
				go func(m int) {
					for range starts[m] {
						if _, err := wss[m].PSRAllreduceSparse(eps[m], g, 64, ins[m], outs[m]); err != nil {
							b.Error(err)
						}
						wg.Done()
					}
				}(m)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				wg.Add(n)
				for m := 0; m < n; m++ {
					starts[m] <- struct{}{}
				}
				wg.Wait()
			}
			b.StopTimer()
			for m := 0; m < n; m++ {
				close(starts[m])
			}
		})
	}

	// Layer 3b: the in-process mailbox alone, in the shape one member of
	// that 64-rank round sees it — 63 peers each deliver one small frame,
	// then the owner receives them all from anyone.
	{
		const n = 64
		fab := transport.NewChanFabricZeroCopy(n)
		defer fab.Close()
		msg := wire.SparseMsg(7, perfSparse(rand.New(rand.NewSource(seed+7)), 256, 0.05))
		add("transport/chan-fanin-64", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for s := 1; s < n; s++ {
					if err := fab.Endpoint(s).Send(0, msg); err != nil {
						b.Fatal(err)
					}
				}
				for s := 1; s < n; s++ {
					if _, err := fab.Endpoint(0).Recv(transport.AnySource, 7); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}

	// Layer 3c: what a TCP connection reader does per received sparse frame
	// — header, CRC32C and payload decoded into the vector it took from the
	// pool — on a frame the size of a mesh-tcp-8 contribution. The frame
	// scratch and the vector are reused across ops, as the reader reuses
	// them across frames.
	{
		msg := wire.SparseMsg(7, perfSparse(rand.New(rand.NewSource(seed+8)), 27103, 0.66))
		frame, err := wire.AppendMessage(nil, msg)
		if err != nil {
			return nil, err
		}
		rd := bytes.NewReader(frame)
		var scratch []byte
		reuse := new(sparse.Vector)
		add("wire/decode-into-sparse", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rd.Reset(frame)
				var err error
				if _, scratch, err = wire.DecodeInto(rd, scratch, reuse); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	// Layer 4: one full engine iteration (flat PSR / BSP / sparse — the
	// alloc-budget composition), MaxIter = b.N so setup amortizes away.
	{
		train, _, err := dataset.Generate(dataset.SynthConfig{
			Name: "perf", Dim: 200, TrainRows: 160, TestRows: 40, RowNNZ: 10,
			ZipfS: 1.3, SignalNNZ: 30, NoiseFlip: 0.02, Seed: seed + 4,
		})
		if err != nil {
			return nil, err
		}
		var runErr error
		add("core/bsp-iteration", func(b *testing.B) {
			cfg := core.Config{
				Algorithm: core.PSRAADMM,
				Topo:      simnet.Topology{Nodes: 3, WorkersPerNode: 2},
				Rho:       1.0,
				Lambda:    0.5,
				MaxIter:   b.N,
				EvalEvery: 1 << 20,
			}
			b.ReportAllocs()
			if _, err := core.Run(cfg, train, core.RunOptions{}); err != nil {
				runErr = err
			}
		})
		if runErr != nil {
			return nil, runErr
		}
	}

	// Layer 5: sharded state at simnet scale — 64 and 256 ranks, plus the
	// 64-rank config re-run with GOMAXPROCS > 1 to exercise the crew
	// executor's real parallelism (the engine's numerics are scheduling-
	// independent, so only the timing column moves).
	for _, sc := range shardScaleConfigs() {
		entry, err := runShardScale(sc, seed)
		if err != nil {
			return nil, err
		}
		rep.ShardScale = append(rep.ShardScale, entry)
	}
	return rep, nil
}

// shardScaleConfig parameterizes one dense-vs-sharded scale point. The
// algorithm fields default to the original pairing — psra-admm dense vs
// the same strategy with ShardedState flipped on — so the long-standing
// entries keep producing bit-identical snapshot rows; a config may
// instead name an explicit pair, which is how the SSP composition the
// StateStore layer unlocked enters the gate.
type shardScaleConfig struct {
	name     string
	nodes    int
	wpn      int
	blocks   int
	iters    int
	rows     int
	maxProcs int            // 0 keeps the ambient GOMAXPROCS
	denseAlg core.Algorithm // reference run ("" = psra-admm)
	shardAlg core.Algorithm // sharded run ("" = denseAlg + ShardedState)
}

func shardScaleConfigs() []shardScaleConfig {
	return []shardScaleConfig{
		{name: "core/shard-scale-64", nodes: 16, wpn: 4, blocks: 256, iters: 8, rows: 512},
		{name: "core/shard-scale-256", nodes: 32, wpn: 8, blocks: 512, iters: 4, rows: 1024},
		{name: "core/shard-scale-64-mp4", nodes: 16, wpn: 4, blocks: 256, iters: 8, rows: 512, maxProcs: 4},
		// Sharding under a relaxed barrier: the dense tree-BSP reference
		// against the block-sharded SSP variant, gating that the per-rank
		// resident footprint of the composition stays where the BSP
		// pairing put it.
		{name: "core/shard-scale-64-ssp", nodes: 16, wpn: 4, blocks: 256, iters: 8, rows: 512,
			denseAlg: core.PSRAHGADMM, shardAlg: core.PSRAHGADMMShardedSSP},
	}
}

// runShardScale runs one scale point twice — replicated, then sharded —
// and reports the per-rank memory and wire-byte comparison.
func runShardScale(sc shardScaleConfig, seed int64) (ShardScaleEntry, error) {
	train, _, err := dataset.Generate(dataset.SynthConfig{
		Name: "shard-scale", Dim: 16000, TrainRows: sc.rows, TestRows: 8, RowNNZ: 6,
		ZipfS: 1.4, SignalNNZ: 60, NoiseFlip: 0.02, Seed: seed + 5,
	})
	if err != nil {
		return ShardScaleEntry{}, err
	}
	if sc.maxProcs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(sc.maxProcs))
	}
	denseAlg := sc.denseAlg
	if denseAlg == "" {
		denseAlg = core.PSRAADMM
	}
	cfg := core.Config{
		Algorithm: denseAlg,
		Topo:      simnet.Topology{Nodes: sc.nodes, WorkersPerNode: sc.wpn},
		Rho:       1.0,
		Lambda:    0.5,
		MaxIter:   sc.iters,
		EvalEvery: sc.iters,
	}
	timed := func(cfg core.Config) (*core.Result, float64, error) {
		start := time.Now()
		res, err := core.Run(cfg, train, core.RunOptions{})
		if err != nil {
			return nil, 0, err
		}
		return res, float64(time.Since(start).Nanoseconds()) / float64(sc.iters), nil
	}
	dense, denseNs, err := timed(cfg)
	if err != nil {
		return ShardScaleEntry{}, err
	}
	if sc.shardAlg != "" {
		cfg.Algorithm = sc.shardAlg
	} else {
		cfg.ShardedState = true
	}
	cfg.ShardBlocks = sc.blocks
	sharded, shardNs, err := timed(cfg)
	if err != nil {
		return ShardScaleEntry{}, err
	}
	dRB := dense.History[len(dense.History)-1].ResidentBytes
	sRB := sharded.History[len(sharded.History)-1].ResidentBytes
	entry := ShardScaleEntry{
		Name:               sc.name,
		Ranks:              sc.nodes * sc.wpn,
		Blocks:             sc.blocks,
		MaxProcs:           runtime.GOMAXPROCS(0),
		Iters:              sc.iters,
		DenseNsPerIter:     denseNs,
		ShardNsPerIter:     shardNs,
		DenseResidentBytes: dRB,
		ShardResidentBytes: sRB,
		DenseWireBytes:     dense.TotalBytes,
		ShardWireBytes:     sharded.TotalBytes,
	}
	if sRB > 0 {
		entry.MemoryReduction = float64(dRB) / float64(sRB)
	}
	return entry, nil
}

// WritePerfReport runs the perf suite and writes the JSON report to path
// (the committed BENCH_psra.json), echoing a human-readable table to out.
func WritePerfReport(path string, out io.Writer, seed int64) error {
	rep, err := Perf(seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%-36s %14s %12s %12s\n", "benchmark", "ns/op", "B/op", "allocs/op")
	for _, e := range rep.Benchmarks {
		fmt.Fprintf(out, "%-36s %14.1f %12d %12d\n", e.Name, e.NsPerOp, e.BytesPerOp, e.AllocsPerOp)
	}
	if len(rep.ShardScale) > 0 {
		fmt.Fprintf(out, "\n%-26s %6s %13s %13s %7s %13s %13s\n",
			"shard scale", "ranks", "dense res B", "shard res B", "mem ×", "dense wire B", "shard wire B")
		for _, e := range rep.ShardScale {
			fmt.Fprintf(out, "%-26s %6d %13d %13d %7.2f %13d %13d\n",
				e.Name, e.Ranks, e.DenseResidentBytes, e.ShardResidentBytes,
				e.MemoryReduction, e.DenseWireBytes, e.ShardWireBytes)
		}
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// CheckPerfReport re-runs the perf suite and gates it against the
// committed snapshot at path: any allocs/op increase fails. ns/op is
// printed next to the snapshot's but never compared: only the alloc column
// is machine-independent (the benchmark/ harness times end to end). A
// benchmark present on one side only also fails — a stale snapshot must be
// regenerated with -perf, not silently ignored.
func CheckPerfReport(path string, out io.Writer, seed int64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("bench: read snapshot: %w", err)
	}
	var want PerfReport
	if err := json.Unmarshal(data, &want); err != nil {
		return fmt.Errorf("bench: parse snapshot %s: %w", path, err)
	}
	rep, err := Perf(seed)
	if err != nil {
		return err
	}
	wantBy := make(map[string]PerfEntry, len(want.Benchmarks))
	for _, e := range want.Benchmarks {
		wantBy[e.Name] = e
	}
	var failures []string
	for _, e := range rep.Benchmarks {
		w, ok := wantBy[e.Name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: not in snapshot (regenerate with -perf)", e.Name))
			continue
		}
		delete(wantBy, e.Name)
		status := "ok"
		if e.AllocsPerOp > w.AllocsPerOp {
			failures = append(failures, fmt.Sprintf("%s: allocs/op %d > snapshot %d", e.Name, e.AllocsPerOp, w.AllocsPerOp))
			status = "FAIL"
		}
		fmt.Fprintf(out, "%-4s %-36s allocs %d (snapshot %d)  ns/op %.1f (snapshot %.1f)\n",
			status, e.Name, e.AllocsPerOp, w.AllocsPerOp, e.NsPerOp, w.NsPerOp)
	}
	leftover := make([]string, 0, len(wantBy))
	for name := range wantBy {
		leftover = append(leftover, name)
	}
	sort.Strings(leftover)
	for _, name := range leftover {
		failures = append(failures, fmt.Sprintf("%s: in snapshot but not produced by this run", name))
	}

	// Shard-scale entries gate on the deterministic columns: per-rank
	// resident bytes and run wire bytes are bit-reproducible across
	// machines, so any change means the partitioning or the collective's
	// accounting changed — regenerate with -perf if intentional. Timing is
	// never compared here.
	wantSS := make(map[string]ShardScaleEntry, len(want.ShardScale))
	for _, e := range want.ShardScale {
		wantSS[e.Name] = e
	}
	for _, e := range rep.ShardScale {
		w, ok := wantSS[e.Name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: not in snapshot (regenerate with -perf)", e.Name))
			continue
		}
		delete(wantSS, e.Name)
		status := "ok"
		if e.ShardResidentBytes != w.ShardResidentBytes || e.DenseResidentBytes != w.DenseResidentBytes {
			failures = append(failures, fmt.Sprintf("%s: resident bytes dense %d / sharded %d, snapshot %d / %d",
				e.Name, e.DenseResidentBytes, e.ShardResidentBytes, w.DenseResidentBytes, w.ShardResidentBytes))
			status = "FAIL"
		}
		if e.ShardWireBytes != w.ShardWireBytes || e.DenseWireBytes != w.DenseWireBytes {
			failures = append(failures, fmt.Sprintf("%s: wire bytes dense %d / sharded %d, snapshot %d / %d",
				e.Name, e.DenseWireBytes, e.ShardWireBytes, w.DenseWireBytes, w.ShardWireBytes))
			status = "FAIL"
		}
		fmt.Fprintf(out, "%-4s %-36s mem reduction %.2fx (snapshot %.2fx)\n",
			status, e.Name, e.MemoryReduction, w.MemoryReduction)
	}
	leftoverSS := make([]string, 0, len(wantSS))
	for name := range wantSS {
		leftoverSS = append(leftoverSS, name)
	}
	sort.Strings(leftoverSS)
	for _, name := range leftoverSS {
		failures = append(failures, fmt.Sprintf("%s: in snapshot but not produced by this run", name))
	}
	if len(failures) > 0 {
		return fmt.Errorf("bench: perf regression gate failed:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}
