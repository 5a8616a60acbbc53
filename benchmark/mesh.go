package main

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"psrahgadmm/internal/dataset"
	"psrahgadmm/internal/simnet"
	"psrahgadmm/internal/solver"
	"psrahgadmm/internal/transport"
	"psrahgadmm/internal/vec"
	"psrahgadmm/internal/wlg"
)

// meshEstablishTries bounds how often establishment is retried with fresh
// ports before the repetition is given up as failed.
const meshEstablishTries = 5

// establishMesh reserves one loopback port per rank the way
// examples/tcpcluster does — listen on :0, note the address, close — and
// brings up the full mesh concurrently. Between the close and the
// endpoint's own listen another process can take a port; that race is the
// harness's problem, not the system's, so establishment is retried with
// fresh ports and the retries are counted, not failed.
func establishMesh(world int) (eps []transport.Endpoint, retries int, err error) {
	for try := 0; try < meshEstablishTries; try++ {
		var addrs []string
		if addrs, err = reservePorts(world); err == nil {
			eps, err = establishAt(addrs)
		}
		if err == nil {
			return eps, try, nil
		}
	}
	return nil, meshEstablishTries, fmt.Errorf("mesh establishment: %w", err)
}

// meshDialBudget bounds one establishment attempt. On loopback a healthy
// mesh is up in milliseconds; a rank that lost its port must not hold the
// others for the transport's default 30 s.
const meshDialBudget = 2 * time.Second

// reservePorts picks one free loopback port per rank.
func reservePorts(world int) ([]string, error) {
	addrs := make([]string, world)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs, nil
}

// establishAt brings up the full mesh on the given addresses, every rank
// concurrently, and returns only when every rank has: with all endpoints,
// or with an error and nothing left open.
func establishAt(addrs []string) ([]transport.Endpoint, error) {
	world := len(addrs)
	eps := make([]transport.Endpoint, world)
	errs := make([]error, world)
	done := make(chan int, world) // one send per rank
	for i := range eps {
		go func(i int) {
			eps[i], errs[i] = transport.NewTCPEndpoint(i, addrs, transport.TCPOptions{DialTimeout: meshDialBudget})
			done <- i
		}(i)
	}
	// A rank whose port was taken fails at once, but the ranks below it sit
	// in an Accept that has no deadline and would wait for it forever. Once
	// one rank has failed (or the budget is spent) the attempt is lost, so
	// the rest are released by connecting to them and hanging up: their
	// handshake read fails and they return an error too.
	overdue := time.NewTimer(meshDialBudget + time.Second)
	defer overdue.Stop()
	var release chan struct{}
	lose := func() {
		if release == nil {
			release = make(chan struct{})
			go hangUpOn(addrs, release)
		}
	}
	for pending := world; pending > 0; {
		select {
		case i := <-done:
			pending--
			if errs[i] != nil {
				lose()
			}
		case <-overdue.C:
			lose()
		}
	}
	if release != nil {
		close(release)
		closeAll(eps)
		if err := errors.Join(errs...); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("not established within %v", meshDialBudget+time.Second)
	}
	return eps, nil
}

// hangUpOn keeps connecting to every address and closing the connection
// at once, until stop is closed.
func hangUpOn(addrs []string, stop <-chan struct{}) {
	for {
		for _, a := range addrs {
			if c, err := net.DialTimeout("tcp", a, 100*time.Millisecond); err == nil {
				c.Close()
			}
		}
		select {
		case <-stop:
			return
		case <-time.After(20 * time.Millisecond):
		}
	}
}

func closeAll(eps []transport.Endpoint) {
	for _, ep := range eps {
		if ep != nil {
			ep.Close()
		}
	}
}

// meshBench drives the WLG runtime for the mesh workload: workers + GG,
// one goroutine per rank, the process boundary collapsed exactly as
// examples/tcpcluster does.
type meshBench struct {
	w      workload
	p      *problem
	ref    *reference
	topo   simnet.Topology
	shards []*dataset.Dataset
	first  int64 // wire bytes of the first good repetition, -1 before it
}

func newMeshBench(w workload, p *problem, ref *reference) *meshBench {
	return &meshBench{w: w, p: p, ref: ref, topo: w.cfg.Topo, shards: p.train.Shard(w.cfg.Topo.Size()), first: -1}
}

// meshOutcome is what one mesh run leaves behind beyond its sample.
type meshOutcome struct {
	z        [][]float64 // every rank's final iterate
	hooks    int         // iterations rank 0 applied
	stats    []transport.Stats
	cgIters  int64
	funEvals int64
}

// train establishes a fresh mesh (outside the timed window), releases all
// ranks into the runtime at once, waits for every one of them, and always
// tears the mesh down. rec, when non-nil, receives a span around every
// callback phase and every Send/Recv. onApply, when non-nil, sees rank 0's
// iterate after each ApplyW (calibration only). The result is unchecked.
func (b *meshBench) train(k int, rec *recorder, onApply func(iter int, z []float64)) (sample, meshOutcome, int, error) {
	world := wlg.WorldSize(b.topo)
	gg := wlg.GGRank(b.topo)
	t0 := time.Now()
	raw, retries, err := establishMesh(world)
	if err != nil {
		return sample{}, meshOutcome{}, retries, err
	}
	s := sample{setupS: time.Since(t0).Seconds()}
	var abort sync.Once
	teardown := func() { abort.Do(func() { closeAll(raw) }) }
	defer teardown()

	eps := raw
	var timed []*timedEndpoint
	if rec != nil {
		eps = make([]transport.Endpoint, world)
		timed = make([]*timedEndpoint, world)
		for i, ep := range raw {
			timed[i] = newTimedEndpoint(ep, rec, gg)
			eps[i] = timed[i]
		}
	}

	cfg := wlg.Config{Topo: b.topo, MaxIter: k, GroupThreshold: 0}
	dim := b.p.train.Dim()
	n := b.topo.Size()
	finalZ := make([][]float64, n)
	errs := make([]error, world)
	tron := make([]solver.TronResult, n) // per-rank totals over the run
	stamps := make([]time.Time, 0, k)
	start := make(chan struct{})
	var wg sync.WaitGroup
	fail := func(rank int, err error) {
		errs[rank] = err
		teardown() // unblock everyone else; one failure must not hang the run
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		if err := wlg.RunGG(eps[gg], cfg); err != nil {
			fail(gg, err)
		}
	}()
	for rank := 0; rank < n; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			// The callbacks are cmd/psra-worker's, plus timestamps.
			x, y := make([]float64, dim), make([]float64, dim)
			z, w := make([]float64, dim), make([]float64, dim)
			obj := solver.NewLogisticProx(b.shards[rank].X, b.shards[rank].Labels, b.p.rho, y, z)
			iterSpan, runtimeSpan := -1, -1
			funcs := wlg.WorkerFuncs{
				ComputeW: func(iter int) []float64 {
					iterSpan = rec.begin("wlg.iteration", -1, rank, iter)
					compute := rec.begin("wlg.compute", iterSpan, rank, iter)
					sp := rec.begin("solver.tron", compute, rank, iter)
					res := solver.TRON(obj, x, solver.TronOptions{MaxIter: 10, MaxCG: 20})
					rec.end(sp)
					tron[rank].CGIters += res.CGIters
					tron[rank].FunEvals += res.FunEvals
					sp = rec.begin("solver.wlocal", compute, rank, iter)
					solver.WLocal(w, y, x, b.p.rho)
					rec.end(sp)
					rec.end(compute)
					runtimeSpan = rec.begin("wlg.runtime", iterSpan, rank, iter)
					if timed != nil {
						timed[rank].enter(runtimeSpan, iter)
					}
					return w
				},
				ApplyW: func(iter int, bigW []float64, contributors int) {
					rec.end(runtimeSpan)
					apply := rec.begin("wlg.apply", iterSpan, rank, iter)
					sp := rec.begin("solver.zupdate", apply, rank, iter)
					solver.ZUpdateL1(z, bigW, b.p.lambda, b.p.rho, contributors)
					rec.end(sp)
					sp = rec.begin("solver.dual", apply, rank, iter)
					solver.DualUpdate(y, x, z, b.p.rho)
					rec.end(sp)
					rec.end(apply)
					rec.end(iterSpan)
					if rank == 0 {
						stamps = append(stamps, time.Now())
						if onApply != nil {
							onApply(iter, z)
						}
					}
				},
			}
			<-start
			if err := wlg.RunWorker(eps[rank], cfg, funcs); err != nil {
				fail(rank, err)
				return
			}
			finalZ[rank] = z
		}(rank)
	}

	cpu0, t0 := cpuSeconds(), time.Now()
	close(start)
	wg.Wait()
	s.wallS, s.cpuS = time.Since(t0).Seconds(), cpuSeconds()-cpu0

	out := meshOutcome{stats: make([]transport.Stats, world)}
	for i, ep := range raw {
		out.stats[i] = ep.Stats()
		s.wireBytes += out.stats[i].BytesSent
	}
	for _, t := range tron {
		out.cgIters += int64(t.CGIters)
		out.funEvals += int64(t.FunEvals)
	}
	teardown()
	if err := firstCause(errs); err != nil {
		return s, out, retries, err
	}
	out.z, out.hooks = finalZ, len(stamps)
	for i := 1; i < len(stamps); i++ {
		s.gapsMs = append(s.gapsMs, stamps[i].Sub(stamps[i-1]).Seconds()*1e3)
	}
	// Computed, not measured: the callbacks hold x, y, z and w, dense.
	s.resident = 8 * 4 * int64(dim)
	return s, out, retries, nil
}

// firstCause picks the error that started a failed run: anything but the
// ErrClosed noise the teardown itself produces, if there is one.
func firstCause(errs []error) error {
	var fallback error
	for rank, err := range errs {
		if err == nil {
			continue
		}
		err = fmt.Errorf("rank %d: %w", rank, err)
		if !errors.Is(err, transport.ErrClosed) {
			return err
		}
		if fallback == nil {
			fallback = err
		}
	}
	return fallback
}

// check is the definition of a failed mesh repetition (beyond a rank
// returning an error).
func (b *meshBench) check(k int, out meshOutcome) error {
	finalZ, stats := out.z, out.stats
	if out.hooks != k {
		return fmt.Errorf("rank 0 applied %d iterations, want %d", out.hooks, k)
	}
	for rank := 1; rank < len(finalZ); rank++ {
		if !vec.WithinTol(finalZ[rank], finalZ[0], 1e-9) {
			return fmt.Errorf("rank %d's final z differs from rank 0's by more than 1e-9", rank)
		}
	}
	for rank, st := range stats {
		if st.FramesCorrupt > 0 || st.RecvErrors > 0 {
			return fmt.Errorf("rank %d saw %d corrupt frames and %d decode errors on loopback", rank, st.FramesCorrupt, st.RecvErrors)
		}
	}
	if e := b.p.relError(finalZ[0]); !(e <= b.w.errorBound()) {
		return fmt.Errorf("relative error %.4g at the final iterate exceeds %g", e, b.w.errorBound())
	}
	return nil
}

// rep is one timed repetition; it also holds wire bytes to the first
// repetition's count.
func (b *meshBench) rep(k int, rec *recorder) (sample, meshOutcome, int, error) {
	s, out, retries, err := b.train(k, rec, nil)
	if err == nil {
		err = b.check(k, out)
	}
	if err != nil {
		return s, out, retries, err
	}
	if b.first < 0 {
		b.first = s.wireBytes
	} else if s.wireBytes != b.first {
		return s, out, retries, fmt.Errorf("wire bytes %d differ from the first repetition's %d", s.wireBytes, b.first)
	}
	return s, out, retries, nil
}

// calibrate finds K* on the mesh itself: an untimed run in which rank 0's
// hook evaluates the objective after every iteration. With one global
// group the mesh computes the same sums in every run, so K* is a count.
func (b *meshBench) calibrate() (int, int, error) {
	if b.w.pinK > 0 {
		return b.w.pinK, 0, nil
	}
	retriesTotal := 0
	for horizon := b.w.horizon; horizon <= 1<<12; horizon *= 2 {
		kstar := 0
		_, out, retries, err := b.train(horizon, nil, func(iter int, z []float64) {
			if kstar == 0 && b.p.relError(z) <= target {
				kstar = iter + 1
			}
		})
		retriesTotal += retries
		if err == nil {
			err = b.check(horizon, out)
		}
		if err != nil {
			return 0, retriesTotal, fmt.Errorf("calibration run: %w", err)
		}
		if kstar > 0 {
			return kstar, retriesTotal, nil
		}
	}
	return 0, retriesTotal, fmt.Errorf("relative error %g not reached in %d iterations", target, 1<<12)
}

func (b *meshBench) measure(seconds float64, minReps int) (*measured, error) {
	m := &measured{}
	t0 := time.Now()
	k, retries, err := b.calibrate()
	if err != nil {
		return nil, err
	}
	m.kstar, m.calibrateS, m.meshRetries = k, time.Since(t0).Seconds(), retries
	timedLoop(m, b.ref, seconds, minReps, func() (sample, error) {
		s, _, retries, err := b.rep(k, nil)
		m.meshRetries += retries
		return s, err
	})
	return m, nil
}
