package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"psrahgadmm/internal/core"
	"psrahgadmm/internal/sparse"
)

// perLayerUnits lists every per-layer metric with its unit. A traced run
// emits all of them on every workload; a layer a workload bypasses reads 0.
// BENCHMARK.json names the same set, and README.md says which end-to-end
// metric each should move, on which workload.
var perLayerUnits = map[string]string{
	"solver.tron_ms_per_iter":             "ms",
	"solver.tron_cg_iters_per_iter":       "count",
	"solver.tron_fun_evals_per_iter":      "count",
	"solver.zupdate_ms_per_iter":          "ms",
	"sparse.csr_matvec_ns_per_nnz":        "ns",
	"sparse.csr_flops_per_byte":           "ratio",
	"sparse.from_dense_us_per_contrib":    "us",
	"sparse.reduce_ns_per_entry":          "ns",
	"sparse.contrib_nnz":                  "count",
	"vec.dot_ns_per_elem":                 "ns",
	"vec.axpy_ns_per_elem":                "ns",
	"vec.nrm2_ns_per_elem":                "ns",
	"exchange.encode_us_per_contrib":      "us",
	"exchange.selected_k":                 "count",
	"exchange.bytes_per_contrib":          "bytes",
	"collective.allreduce_ms_per_iter":    "ms",
	"collective.msgs_per_iter":            "count",
	"collective.trace_bytes_per_iter":     "bytes",
	"collective.robust_combine_us":        "us",
	"shard.plan_us":                       "us",
	"shard.subscribed_blocks_per_rank":    "count",
	"transport.chan_sendrecv_ns":          "ns",
	"transport.tcp_roundtrip_us":          "us",
	"transport.send_busy_ms_per_iter":     "ms",
	"transport.recv_wait_ms_per_iter":     "ms",
	"transport.bytes_sent_per_iter":       "bytes",
	"transport.frames_per_iter":           "count",
	"transport.heartbeats":                "count",
	"transport.corrupt_frames":            "count",
	"transport.decode_errors":             "count",
	"wire.encode_ns_per_byte":             "ns",
	"wire.decode_ns_per_byte":             "ns",
	"wire.frame_bytes":                    "bytes",
	"wlg.compute_ms_per_iter":             "ms",
	"wlg.apply_ms_per_iter":               "ms",
	"wlg.runtime_ms_per_iter":             "ms",
	"wlg.gg_wait_ms_per_iter":             "ms",
	"wlg.rank_skew_ms":                    "ms",
	"core.construct_ms":                   "ms",
	"core.cpu_util":                       "ratio",
	"core.overhead_cpu_ms_per_iter":       "ms",
	"core.layer_coverage":                 "ratio",
	"core.allocs_per_iter":                "count",
	"core.alloc_bytes_per_iter":           "bytes",
	"core.gc_cycles":                      "count",
	"core.gc_pause_ms_total":              "ms",
	"core.iter_ms_tail":                   "ms",
	"core.iter_ms_tail_pct":               "%",
	"core.iter_samples":                   "count",
	"core.virtual_system_time_s":          "s",
	"core.virtual_comm_share":             "ratio",
	"watchdog.scan_us_per_iter":           "us",
	"watchdog.screen_observe_us_per_iter": "us",
	"checkpoint.encode_ms":                "ms",
	"checkpoint.save_ms":                  "ms",
	"checkpoint.bytes":                    "bytes",
	"dataset.generate_ms":                 "ms",
	"dataset.shard_ms":                    "ms",
	"bench.reference_s":                   "s",
	"bench.calibrate_s":                   "s",
	"bench.calib_ns":                      "ns",
	"bench.trace_overhead_pct":            "%",
	"bench.mesh_retries":                  "count",
}

// layers collects a traced run's metrics; set rejects a name that is not
// in perLayerUnits, so the list above stays the single definition.
type layers map[string]metric

func newLayers() layers {
	l := make(layers, len(perLayerUnits))
	for name, unit := range perLayerUnits {
		l[name] = one(unit, 0)
	}
	return l
}

func (l layers) set(name string, v float64) {
	unit, ok := perLayerUnits[name]
	if !ok {
		panic("benchmark: unknown per-layer metric " + name)
	}
	l[name] = one(unit, v)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tracedMinReps is the fewest repetitions a traced run's passes hold; the
// budget is split between passes, so fewer than the measured run's.
const tracedMinReps = 3

// traced takes the per-layer numbers for one workload.
func traced(w workload, p *problem, tmp string, o runOptions) (*measured, map[string]metric, error) {
	l := newLayers()
	l.set("dataset.generate_ms", median(p.generateS)*1e3)
	l.set("dataset.shard_ms", median(p.shardS)*1e3)
	l.set("sparse.csr_flops_per_byte", csrFlopsPerByte)
	dot, axpy, nrm2 := vecKernels(p.train.Dim())
	l.set("vec.dot_ns_per_elem", dot)
	l.set("vec.axpy_ns_per_elem", axpy)
	l.set("vec.nrm2_ns_per_elem", nrm2)
	var m *measured
	var spans []span
	var err error
	if w.mesh {
		m, spans, err = tracedMesh(w, p, o, l)
	} else {
		m, spans, err = tracedEngine(w, p, tmp, o, l)
	}
	if err != nil {
		return nil, nil, err
	}
	if o.spans != nil {
		if err := writeJSONL(o.spans, w.name, spans); err != nil {
			return nil, nil, err
		}
	}
	return m, l, nil
}

// processCounters are the runtime's allocation and GC totals.
type processCounters struct {
	mallocs, bytes, pauseNs uint64
	gcs                     uint32
}

func readCounters() processCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return processCounters{ms.Mallocs, ms.TotalAlloc, ms.PauseTotalNs, ms.NumGC}
}

func (c processCounters) minus(d processCounters) processCounters {
	return processCounters{c.mallocs - d.mallocs, c.bytes - d.bytes, c.pauseNs - d.pauseNs, c.gcs - d.gcs}
}

func (c processCounters) plus(d processCounters) processCounters {
	return processCounters{c.mallocs + d.mallocs, c.bytes + d.bytes, c.pauseNs + d.pauseNs, c.gcs + d.gcs}
}

// coreMetrics fills the core.* numbers every workload has: how the timed
// repetitions used the CPU, the heap and the collector.
func coreMetrics(l layers, m *measured, spent processCounters) {
	var wall, cpu, gaps []float64
	for _, s := range m.samples {
		wall = append(wall, s.wallS)
		cpu = append(cpu, s.cpuS)
		gaps = append(gaps, s.gapsMs...)
	}
	iters := float64(m.attempted * m.kstar)
	l.set("core.cpu_util", ratio(sum(cpu), sum(wall)*float64(runtime.GOMAXPROCS(0))))
	l.set("core.allocs_per_iter", ratio(float64(spent.mallocs), iters))
	l.set("core.alloc_bytes_per_iter", ratio(float64(spent.bytes), iters))
	l.set("core.gc_cycles", float64(spent.gcs))
	l.set("core.gc_pause_ms_total", float64(spent.pauseNs)/1e6)
	pct, v := tail(gaps)
	l.set("core.iter_ms_tail", v)
	l.set("core.iter_ms_tail_pct", pct)
	l.set("core.iter_samples", float64(len(gaps)))
}

// layerSpans are the spans that are time inside a layer; their self times
// add up to the replay's busy time. The allreduce is left out: its members
// run in parallel, so its busy time is the CPU it burned, measured around
// it.
var layerSpans = []string{
	"solver.tron", "solver.wlocal", "solver.zupdate", "solver.dual",
	"sparse.from_dense", "sparse.to_dense", "sparse.accumulate",
	"exchange.encode", "watchdog.screen", "watchdog.scan",
	"checkpoint.encode", "checkpoint.save",
}

func tracedEngine(w workload, p *problem, tmp string, o runOptions, l layers) (*measured, []span, error) {
	b := &engineBench{w: w, p: p, tmp: tmp}
	m := &measured{}
	t0 := time.Now()
	k, err := b.calibrate()
	if err != nil {
		return nil, nil, err
	}
	m.kstar, m.calibrateS = k, time.Since(t0).Seconds()

	// Engine pass, tracing off: what the replay's layer times are shares of.
	var last *core.Result
	var counters processCounters
	timedLoop(m, nil, o.seconds/2, o.reps(tracedMinReps), func() (sample, error) {
		before := readCounters()
		s, res, err := b.rep(k)
		counters = counters.plus(readCounters().minus(before))
		if err == nil {
			last = res
		}
		return s, err
	})
	if last == nil {
		return m, nil, nil
	}
	coreMetrics(l, m, counters)
	var construct, cpu []float64
	for _, s := range m.samples {
		construct = append(construct, s.setupS*1e3)
		cpu = append(cpu, s.cpuS)
	}
	l.set("core.construct_ms", median(construct))
	l.set("core.virtual_system_time_s", last.SystemTime)
	l.set("core.virtual_comm_share", ratio(last.TotalCommTime, last.SystemTime))
	engineCPUms := median(cpu) * 1e3 / float64(k)

	// Shadow round.
	rec := newRecorder()
	sh, err := newShadow(w, p, tmp, rec)
	if err != nil {
		return nil, nil, err
	}
	defer sh.close()
	prevErr, err := sh.run(k)
	if err != nil {
		return nil, nil, err
	}
	m.attempted++
	v, _ := core.Lookup(w.cfg.Algorithm)
	if v.Sync == core.SyncBSP {
		if err := sh.fidelity(last, prevErr); err != nil {
			m.failures = append(m.failures, err.Error())
		}
	} else {
		fmt.Fprintf(o.log, "  note: %s schedules staleness on the engine's virtual clock, which the shadow round does not model; it replays the BSP round, so core.layer_coverage and core.overhead_cpu_ms_per_iter are approximate here (replay's relative error after K* iterations: %.4g)\n",
			w.cfg.Algorithm, p.relError(sh.z()))
	}

	spans := rec.snapshot()
	self := selfByName(spans)
	iters := float64(k)
	perIterMs := func(names ...string) float64 {
		var t float64
		for _, n := range names {
			t += self[n]
		}
		return t * 1e3 / iters
	}
	contribs := float64(sh.contribs)
	l.set("solver.tron_ms_per_iter", perIterMs("solver.tron"))
	l.set("solver.tron_cg_iters_per_iter", float64(sh.cgIters)/iters)
	l.set("solver.tron_fun_evals_per_iter", float64(sh.funEvals)/iters)
	l.set("solver.zupdate_ms_per_iter", perIterMs("solver.zupdate", "solver.dual", "solver.wlocal"))
	l.set("sparse.from_dense_us_per_contrib", ratio(self["sparse.from_dense"]*1e6, float64(sh.fromDenseCalls)))
	l.set("sparse.contrib_nnz", ratio(float64(sh.preEncodeNNZ), contribs))
	l.set("collective.allreduce_ms_per_iter", durByName(spans)["collective.allreduce"]*1e3/iters)
	l.set("collective.msgs_per_iter", float64(sh.collectiveMsgs)/iters)
	l.set("collective.trace_bytes_per_iter", float64(sh.traceBytes)/iters)
	if sh.ranks[0].state != nil {
		l.set("exchange.encode_us_per_contrib", ratio(self["exchange.encode"]*1e6, contribs))
		l.set("exchange.selected_k", ratio(float64(sh.encodedNNZ), contribs))
		l.set("exchange.bytes_per_contrib", float64(sh.ranks[0].state.WireBytes(int(sh.encodedNNZ/sh.contribs))))
	} else {
		l.set("exchange.bytes_per_contrib", float64(sh.codec.SparseMsgBytes(int(sh.encodedNNZ/sh.contribs))))
	}
	l.set("watchdog.scan_us_per_iter", perIterMs("watchdog.scan")*1e3)
	l.set("watchdog.screen_observe_us_per_iter", perIterMs("watchdog.screen")*1e3)
	if sh.ckptSaves > 0 {
		saves := float64(sh.ckptSaves)
		l.set("checkpoint.encode_ms", self["checkpoint.encode"]*1e3/saves)
		l.set("checkpoint.save_ms", self["checkpoint.save"]*1e3/saves)
		l.set("checkpoint.bytes", float64(sh.ckptBytes)/saves)
	}
	// The budget: each layer's busy time per iteration, and their sum beside
	// the engine's CPU per iteration.
	budget := map[string]float64{"collective": sh.collectiveCPU * 1e3 / iters}
	for _, n := range layerSpans {
		layer, _, _ := strings.Cut(n, ".")
		budget[layer] += self[n] * 1e3 / iters
	}
	var busyMs float64
	fmt.Fprintf(o.log, "  layer budget, ms of CPU per iteration:")
	for _, layer := range []string{"solver", "sparse", "exchange", "collective", "watchdog", "checkpoint"} {
		busyMs += budget[layer]
		fmt.Fprintf(o.log, " %s %.3f,", layer, budget[layer])
	}
	fmt.Fprintf(o.log, " sum %.3f of the engine's %.3f\n", busyMs, engineCPUms)
	l.set("core.layer_coverage", ratio(busyMs, engineCPUms))
	l.set("core.overhead_cpu_ms_per_iter", engineCPUms-busyMs)
	if busyMs < 0.7*engineCPUms {
		fmt.Fprintf(o.log, "  note: the layers account for %.0f%% of the engine's %.3g ms CPU per iteration; the rest is the engine's own: compute-pool and crew dispatch, residuals and z̄ assembly, virtual-clock accounting%s\n",
			100*busyMs/engineCPUms, engineCPUms, map[bool]string{true: ", elastic latch polling and snapshot assembly", false: ""}[w.cfg.Elastic])
	}

	// Kernels at this workload's sizes, on the last iteration's inputs.
	inputs := make([]*sparse.Vector, 0, 8)
	for _, r := range sh.ranks[:min(8, len(sh.ranks))] {
		inputs = append(inputs, r.contrib)
	}
	l.set("sparse.csr_matvec_ns_per_nnz", csrKernel(sh.ranks[0].obj.Data))
	l.set("sparse.reduce_ns_per_entry", reduceKernel(sh.dim, inputs))
	l.set("collective.robust_combine_us", robustCombineKernel(sh.dim, inputs))
	chanNs, err := chanKernel(inputs[0])
	if err != nil {
		return nil, nil, err
	}
	l.set("transport.chan_sendrecv_ns", chanNs)
	if sh.smap != nil {
		l.set("shard.plan_us", shardPlanKernel(sh.smap))
		blocks := 0
		for _, subs := range sh.smap.Subs {
			blocks += len(subs)
		}
		l.set("shard.subscribed_blocks_per_rank", float64(blocks)/float64(len(sh.smap.Subs)))
	}
	return m, spans, nil
}

func tracedMesh(w workload, p *problem, o runOptions, l layers) (*measured, []span, error) {
	b := newMeshBench(w, p, nil)
	m := &measured{}
	t0 := time.Now()
	k, retries, err := b.calibrate()
	if err != nil {
		return nil, nil, err
	}
	m.kstar, m.calibrateS, m.meshRetries = k, time.Since(t0).Seconds(), retries

	// Untraced and traced repetitions alternate, so that drift in the box's
	// speed lands on both sides of the tracing-overhead comparison. Heap
	// counters are read around the untraced ones only. The last good traced
	// repetition's spans are the ones reported and written out.
	plain := &measured{kstar: k}
	var counters processCounters
	var spans []span
	var out meshOutcome
	var plainGaps, tracedGaps []float64
	timedLoop(m, nil, o.seconds*2/3, 2*o.reps(tracedMinReps), func() (sample, error) {
		if m.attempted%2 == 0 {
			before := readCounters()
			s, _, retries, err := b.rep(k, nil)
			counters = counters.plus(readCounters().minus(before))
			m.meshRetries += retries
			plain.attempted++
			if err == nil {
				plain.samples = append(plain.samples, s)
				plainGaps = append(plainGaps, s.gapsMs...)
			}
			return s, err
		}
		rec := newRecorder()
		s, oc, retries, err := b.rep(k, rec)
		m.meshRetries += retries
		if err == nil {
			spans, out = rec.snapshot(), oc
			tracedGaps = append(tracedGaps, s.gapsMs...)
		}
		return s, err
	})
	if spans == nil || len(plain.samples) == 0 {
		return m, nil, nil
	}
	coreMetrics(l, plain, counters)
	l.set("bench.trace_overhead_pct", 100*ratio(median(tracedGaps)-median(plainGaps), median(plainGaps)))

	iters := float64(k)
	n := w.cfg.Topo.Size()
	dur := durByName(spans)
	total := func(name string) float64 { return dur[name] * 1e3 } // ms
	// perIter[name][iter] holds, per rank, that span's duration (ms) and end.
	type cell struct{ durMs, endMs float64 }
	grid := func(name string) [][]cell {
		g := make([][]cell, k)
		for i := range g {
			g[i] = make([]cell, n)
		}
		for _, s := range spans {
			if s.Name == name && s.Iter < k && s.Rank < n {
				g[s.Iter][s.Rank] = cell{float64(s.dur()) / 1e6, float64(s.End) / 1e6}
			}
		}
		return g
	}
	compute, apply, runtimeG, ggWait := grid("wlg.compute"), grid("wlg.apply"), grid("wlg.runtime"), grid("wlg.gg_wait")
	var computeMax, applyMax, runtime0, ggMax, skew []float64
	for i := 0; i < k; i++ {
		var cMax, aMax, gMax, first, lastEnd float64
		for r := 0; r < n; r++ {
			cMax, aMax, gMax = max(cMax, compute[i][r].durMs), max(aMax, apply[i][r].durMs), max(gMax, ggWait[i][r].durMs)
			if e := compute[i][r].endMs; r == 0 || e < first {
				first = e
			}
			lastEnd = max(lastEnd, compute[i][r].endMs)
		}
		computeMax, applyMax, ggMax = append(computeMax, cMax), append(applyMax, aMax), append(ggMax, gMax)
		runtime0 = append(runtime0, runtimeG[i][0].durMs)
		skew = append(skew, lastEnd-first)
	}
	l.set("wlg.compute_ms_per_iter", median(computeMax))
	l.set("wlg.apply_ms_per_iter", median(applyMax))
	l.set("wlg.runtime_ms_per_iter", median(runtime0))
	l.set("wlg.gg_wait_ms_per_iter", median(ggMax))
	l.set("wlg.rank_skew_ms", median(skew))
	l.set("solver.tron_ms_per_iter", total("solver.tron")/iters)
	l.set("solver.tron_cg_iters_per_iter", float64(out.cgIters)/iters)
	l.set("solver.tron_fun_evals_per_iter", float64(out.funEvals)/iters)
	l.set("solver.zupdate_ms_per_iter", (total("solver.zupdate")+total("solver.dual")+total("solver.wlocal"))/iters)
	l.set("transport.send_busy_ms_per_iter", total("transport.send")/iters)
	l.set("transport.recv_wait_ms_per_iter", total("transport.recv")/iters)
	var bytes, frames, beats, corrupt, decode int64
	for _, st := range out.stats {
		bytes += st.BytesSent
		frames += st.MsgsSent
		beats += st.HeartbeatsSent
		corrupt += st.FramesCorrupt
		decode += st.RecvErrors
	}
	l.set("transport.bytes_sent_per_iter", float64(bytes)/iters)
	l.set("transport.frames_per_iter", float64(frames)/iters)
	l.set("transport.heartbeats", float64(beats))
	l.set("transport.corrupt_frames", float64(corrupt))
	l.set("transport.decode_errors", float64(decode))
	l.set("exchange.bytes_per_contrib", float64(4+8*p.train.Dim()))

	dim := p.train.Dim()
	enc, dec, frame, err := wireKernels(dim)
	if err != nil {
		return nil, nil, err
	}
	l.set("wire.encode_ns_per_byte", enc)
	l.set("wire.decode_ns_per_byte", dec)
	l.set("wire.frame_bytes", float64(frame))
	rtt, err := tcpRoundTripKernel(dim)
	if err != nil {
		return nil, nil, err
	}
	l.set("transport.tcp_roundtrip_us", rtt)
	l.set("sparse.csr_matvec_ns_per_nnz", csrKernel(b.shards[0].X))
	return m, spans, nil
}
