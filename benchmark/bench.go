package main

import (
	"fmt"
	"io"
)

// runOptions are one workload run's inputs.
type runOptions struct {
	seed    int64
	draw    int64
	seconds float64
	trace   bool
	toy     bool
	// minReps overrides the fewest repetitions a window holds (0: the
	// default). The smoke test runs one.
	minReps int
	spans   io.Writer // traced runs write their spans here as JSON lines
	log     io.Writer // human-readable progress and the metric table
}

func (o runOptions) reps(def int) int {
	if o.minReps > 0 {
		return o.minReps
	}
	return def
}

// runWorkload generates the workload's inputs from the seed, calibrates
// K*, and then either fills a timed window (tracing off, end-to-end
// metrics) or takes the per-layer numbers (tracing on).
func runWorkload(name string, o runOptions) (*result, error) {
	w, err := findWorkload(name, o.toy)
	if err != nil {
		return nil, err
	}
	r := &result{Workload: w.name, Seed: o.seed, Draw: o.draw, Traced: o.trace, Machine: readMachineFacts()}
	p, err := newProblem(w, o.draw, o.seed)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	tmp, cleanup, err := benchTmp()
	if err != nil {
		return nil, err
	}
	defer cleanup()
	fmt.Fprintf(o.log, "%s: dim %d, %d rows, %d ranks, f* %.6g (seed %d, draw %d)\n",
		w.name, p.train.Dim(), p.train.Rows(), p.ranks, p.fstar, o.seed, o.draw)

	var m *measured
	if o.trace {
		m, r.Metrics, err = traced(w, p, tmp, o)
	} else {
		var ref *reference
		if ref, err = newReference(); err != nil {
			return nil, err
		}
		defer ref.close()
		if w.mesh {
			m, err = newMeshBench(w, p, ref).measure(o.seconds, o.reps(measuredMinReps))
		} else {
			m, err = (&engineBench{w: w, p: p, tmp: tmp, ref: ref}).measure(o.seconds, o.reps(measuredMinReps))
		}
		if err == nil {
			m.setupS, err = measureSetups(w, o, ref, tmp)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	r.KStar, r.Attempted, r.Failed, r.Failures = m.kstar, m.attempted, m.failed(), m.failures
	r.Correct = m.failed() == 0 && len(m.samples) > 0
	harness := make(map[string]metric)
	for name, v := range map[string]float64{
		"bench.reference_s":  p.referenceS,
		"bench.calibrate_s":  m.calibrateS,
		"bench.calib_ns":     r.Machine.CalibNs,
		"bench.mesh_retries": float64(m.meshRetries),
	} {
		harness[name] = one(perLayerUnits[name], v)
	}
	if o.trace {
		for n, v := range harness {
			r.Metrics[n] = v
		}
		printMetrics(o.log, "per-layer metrics (traced run)", r.Metrics)
	} else {
		// At toy size the executable is the test binary, which must not be
		// re-run: the smoke test reads this process's own peak instead.
		peak := peakRSSMiB()
		if !o.toy {
			if peak, err = measurePeakRSS(w.name, o.seed, o.draw, m.kstar); err != nil {
				return nil, fmt.Errorf("%s: %w", w.name, err)
			}
		}
		r.Metrics, r.Harness = endToEnd(m, peak), harness
		var speed, rawWall []float64
		for _, s := range m.samples {
			speed = append(speed, s.speed)
			rawWall = append(rawWall, s.wallS)
		}
		harness["bench.speed_factor"] = with("ratio", speed)
		harness["bench.raw_time_to_target_s"] = with("s", rawWall)
		printMetrics(o.log, fmt.Sprintf("end-to-end metrics (K* = %d, %d repetitions, %d failed)", m.kstar, m.attempted, m.failed()), r.Metrics)
		printMetrics(o.log, "harness costs", harness)
	}
	for _, f := range m.failures {
		fmt.Fprintf(o.log, "  FAILED repetition: %s\n", f)
	}
	return r, nil
}
