package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"psrahgadmm/internal/checkpoint"
	"psrahgadmm/internal/core"
)

// evalOff pushes the engine's objective evaluation out of the timed
// window. The engine still evaluates at iteration 0 and at the last one;
// from outside that cannot be switched off.
const evalOff = 1 << 30

// sample is one timed repetition that passed every check. Its times are as
// measured; speed is what the end-to-end metrics divide them by.
type sample struct {
	wallS, cpuS float64
	speed       float64   // how much slower than the quiet box the reference ran around it
	gapsMs      []float64 // gaps between consecutive iteration hooks, first iteration dropped
	setupS      float64   // engine construction, or mesh establishment
	wireBytes   int64
	resident    int64
}

// measured is a workload's timed window.
type measured struct {
	kstar      int
	calibrateS float64
	samples    []sample
	// setupS holds one value per set-up probe: everything a user pays
	// before training is under way, dataset generation included.
	setupS      []float64
	attempted   int
	failures    []string // one line per failed repetition
	meshRetries int
}

func (m *measured) failed() int { return len(m.failures) }

// measuredMinReps is the fewest timed repetitions a measured window holds.
const measuredMinReps = 5

// timedLoop repeats rep back to back — one client, closed loop — until the
// window has lasted seconds and holds minReps repetitions. A repetition
// that returns an error is counted as failed and contributes no sample.
// Three failures with no success end the window: the system is broken, not
// noisy.
//
// The heap is collected before each repetition, outside its clock: a
// training run starts on a clean heap, and without this a repetition's
// time and the process's peak RSS depend on how much garbage its
// predecessors happened to leave.
func timedLoop(m *measured, ref *reference, seconds float64, minReps int, rep func() (sample, error)) {
	start := time.Now()
	for {
		runtime.GC()
		var s sample
		var err error
		speed := ref.around(func() { s, err = rep() })
		s.speed = speed
		m.attempted++
		if err != nil {
			m.failures = append(m.failures, err.Error())
			if len(m.samples) == 0 && len(m.failures) >= 3 {
				return
			}
		} else {
			m.samples = append(m.samples, s)
		}
		if time.Since(start).Seconds() >= seconds && m.attempted >= minReps {
			return
		}
	}
}

// engineBench drives core.Run for one engine workload.
type engineBench struct {
	w      workload
	p      *problem
	ref    *reference
	tmp    string // directory for checkpoint files
	first  *core.Result
	ckptID int
}

func (b *engineBench) config(maxIter, evalEvery int) core.Config {
	cfg := b.w.cfg
	cfg.MaxIter = maxIter
	cfg.EvalEvery = evalEvery
	return cfg
}

func (b *engineBench) options(hook func(core.IterStat)) (core.RunOptions, error) {
	opts := core.RunOptions{OnIteration: hook}
	if b.w.checkpoint {
		b.ckptID++
		store, err := checkpoint.NewDirStore(filepath.Join(b.tmp, fmt.Sprintf("ckpt-%d", b.ckptID)), "engine.psck")
		if err != nil {
			return opts, err
		}
		opts.Checkpoint = &core.CheckpointOptions{Store: store, Every: 10}
	}
	return opts, nil
}

// calibrate finds K*, the first iteration whose relative error meets the
// target, with evaluation on and nothing timed. The engine is
// bit-deterministic, so K* is a count, not a sample.
func (b *engineBench) calibrate() (int, error) {
	if b.w.pinK > 0 {
		return b.w.pinK, nil
	}
	for horizon := b.w.horizon; horizon <= 1<<15; horizon *= 2 {
		opts, err := b.options(nil)
		if err != nil {
			return 0, err
		}
		opts.FStar, opts.HaveFStar = b.p.fstar, true
		res, err := core.Run(b.config(horizon, 1), b.p.train, opts)
		if err != nil {
			return 0, fmt.Errorf("calibration run: %w", err)
		}
		for i, h := range res.History {
			if h.RelError <= target {
				return i + 1, nil
			}
		}
	}
	return 0, fmt.Errorf("relative error %g not reached in %d iterations", target, 1<<15)
}

// train is one unchecked, untimed training run of k iterations.
func (b *engineBench) train(k int, hook func(core.IterStat)) (*core.Result, error) {
	opts, err := b.options(hook)
	if err != nil {
		return nil, err
	}
	return core.Run(b.config(k, evalOff), b.p.train, opts)
}

// rep runs exactly k iterations with evaluation off and a hook that only
// takes timestamps, then checks the result.
func (b *engineBench) rep(k int) (sample, *core.Result, error) {
	stamps := make([]time.Time, 0, k)
	opts, err := b.options(func(core.IterStat) { stamps = append(stamps, time.Now()) })
	if err != nil {
		return sample{}, nil, err
	}
	cfg := b.config(k, evalOff)
	cpu0, t0 := cpuSeconds(), time.Now()
	res, err := core.Run(cfg, b.p.train, opts)
	wall, cpu := time.Since(t0).Seconds(), cpuSeconds()-cpu0
	if err != nil {
		return sample{}, nil, fmt.Errorf("core.Run: %w", err)
	}
	if err := b.check(res, k); err != nil {
		return sample{}, res, err
	}
	s := sample{wallS: wall, cpuS: cpu, wireBytes: res.TotalBytes, resident: res.History[k-1].ResidentBytes}
	for i := 1; i < len(stamps); i++ {
		s.gapsMs = append(s.gapsMs, stamps[i].Sub(stamps[i-1]).Seconds()*1e3)
	}
	// Construction is what precedes the first iteration: Run call to first
	// hook, less one median iteration.
	s.setupS = stamps[0].Sub(t0).Seconds() - median(s.gapsMs)/1e3
	if s.setupS < 0 {
		s.setupS = 0
	}
	return s, res, nil
}

// check is the definition of a failed engine repetition.
func (b *engineBench) check(res *core.Result, k int) error {
	switch {
	case len(res.History) != k:
		return fmt.Errorf("history has %d iterations, want %d", len(res.History), k)
	case res.Degraded:
		return fmt.Errorf("run finished degraded (%d live workers) on clean data", res.LiveWorkers)
	case len(res.Rollbacks) > 0:
		return fmt.Errorf("%d watchdog rollbacks on clean data", len(res.Rollbacks))
	case len(res.Quarantines) > 0:
		return fmt.Errorf("%d quarantines on clean data", len(res.Quarantines))
	}
	if e := b.p.relError(res.Z); !(e <= b.w.errorBound()) {
		return fmt.Errorf("relative error %.4g at the final iterate exceeds %g", e, b.w.errorBound())
	}
	if b.first == nil {
		b.first = res
		return nil
	}
	if res.TotalBytes != b.first.TotalBytes {
		return fmt.Errorf("wire bytes %d differ from the first repetition's %d", res.TotalBytes, b.first.TotalBytes)
	}
	for i, v := range res.Z {
		if math.Float64bits(v) != math.Float64bits(b.first.Z[i]) {
			return fmt.Errorf("final z differs bit-wise from the first repetition's at coordinate %d", i)
		}
	}
	return nil
}

// setUp is one whole engine set-up as a user pays it: draw and arrange the
// dataset, then core.Run as far as the hook of its first iteration. From
// outside, construction cannot be cut off from that first iteration; taking
// a median iteration off, as rep does for core.construct_ms, leaves a
// difference of two like numbers that scatters by half its size on
// engine-wide-64, so the end-to-end metric keeps the iteration in.
func (b *engineBench) setUp() (float64, error) {
	var first time.Time
	opts, err := b.options(func(core.IterStat) { first = time.Now() })
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	train, err := generate(b.w, b.p.draw, b.p.seed)
	if err != nil {
		return 0, err
	}
	if _, err := core.Run(b.config(1, evalOff), train, opts); err != nil {
		return 0, fmt.Errorf("core.Run: %w", err)
	}
	return first.Sub(t0).Seconds(), nil
}

// measure calibrates, then fills a timed window of the given length.
func (b *engineBench) measure(seconds float64, minReps int) (*measured, error) {
	m := &measured{}
	t0 := time.Now()
	k, err := b.calibrate()
	if err != nil {
		return nil, err
	}
	m.kstar, m.calibrateS = k, time.Since(t0).Seconds()
	timedLoop(m, b.ref, seconds, minReps, func() (sample, error) {
		s, _, err := b.rep(k)
		return s, err
	})
	return m, nil
}

// benchTmp makes the scratch directory checkpoints are written under: in
// the working directory, so a run never writes outside its checkout.
func benchTmp() (string, func(), error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return "", nil, err
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}
