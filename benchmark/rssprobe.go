package main

import (
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"psrahgadmm/internal/wlg"
)

// Peak RSS is taken in a child process that does what a user's training run
// does and nothing else: generate the data, train once to K*, exit. The
// harness's own process has also held the reference optimum, the
// calibration run and the reference buffers, and its high-water mark
// depends on when the collector happened to run during those — on
// engine-wide-64 it lands on 50 or on 73 MiB from one run to the next. One
// child per run: children of the same inputs read within 5 % of each other
// (engine-guarded-16: 35 or 40 MiB), and each costs a whole training run of
// the time the driver allows.

// rssProbe is the child's side: one training run, then its own peak RSS on
// standard output.
func rssProbe(name string, seed, draw int64, k int) error {
	w, err := findWorkload(name, false)
	if err != nil {
		return err
	}
	train, err := generate(w, draw, seed)
	if err != nil {
		return err
	}
	p := &problem{train: train, ranks: w.cfg.Topo.Size(), rho: w.cfg.Rho, lambda: w.cfg.Lambda}
	tmp, cleanup, err := benchTmp()
	if err != nil {
		return err
	}
	defer cleanup()
	if w.mesh {
		_, _, _, err = newMeshBench(w, p, nil).train(k, nil, nil)
	} else {
		_, err = (&engineBench{w: w, p: p, tmp: tmp}).train(k, nil)
	}
	if err != nil {
		return err
	}
	fmt.Println(peakRSSMiB())
	return nil
}

// probeChild re-executes this program with one of the internal probe flags
// and returns the number it prints.
func probeChild(name string, seed, draw int64, flag string, arg int) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	out, err := exec.Command(self, "--workload", name, "--seed", fmt.Sprint(seed), "--draw", fmt.Sprint(draw), flag, fmt.Sprint(arg)).Output()
	if err != nil {
		return 0, fmt.Errorf("%s child: %w", flag, err)
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
	if err != nil {
		return 0, fmt.Errorf("%s child printed %q", flag, out)
	}
	return v, nil
}

// measurePeakRSS runs the probe child and returns its peak RSS in MiB.
func measurePeakRSS(name string, seed, draw int64, k int) (float64, error) {
	return probeChild(name, seed, draw, "--rss-probe", k)
}

// Set-up, too, is taken in child processes, one per sample: a user's run
// sets up once, in a fresh process, on a heap nobody has used. Repeated
// inside the harness's own process the same 20 ms of work reads anything
// from 18 to 36 ms, depending on how much of the previous round's garbage
// the runtime has handed back to the kernel in the meantime.

// setupProbes is how many set-ups a measured run samples.
const setupProbes = 15

// setUpOnce is one whole set-up as a user pays it, in seconds: draw and
// arrange the dataset, then core.Run as far as the hook of its first
// iteration (engine), or shard it and establish the mesh (mesh).
func setUpOnce(w workload, seed, draw int64, tmp string) (float64, error) {
	if !w.mesh {
		return (&engineBench{w: w, p: &problem{draw: draw, seed: seed}, tmp: tmp}).setUp()
	}
	t0 := time.Now()
	train, err := generate(w, draw, seed)
	if err != nil {
		return 0, err
	}
	train.Shard(w.cfg.Topo.Size())
	eps, _, err := establishMesh(wlg.WorldSize(w.cfg.Topo))
	s := time.Since(t0).Seconds()
	closeAll(eps)
	return s, err
}

// setupProbe is the child's side: one set-up, its length on standard output.
func setupProbe(name string, seed, draw int64) error {
	w, err := findWorkload(name, false)
	if err != nil {
		return err
	}
	tmp, cleanup, err := benchTmp()
	if err != nil {
		return err
	}
	defer cleanup()
	s, err := setUpOnce(w, seed, draw, tmp)
	if err != nil {
		return err
	}
	fmt.Println(s)
	return nil
}

// measureSetups samples setupProbes set-ups, each between two bursts of the
// reference and divided by the speed factor they give. At toy size the
// executable is the test binary, which must not be re-run: the set-ups
// then happen in this process.
func measureSetups(w workload, o runOptions, ref *reference, tmp string) ([]float64, error) {
	var out []float64
	for i := 0; i < setupProbes; i++ {
		var s float64
		var err error
		speed := ref.around(func() {
			if o.toy {
				s, err = setUpOnce(w, o.seed, o.draw, tmp)
			} else {
				s, err = probeChild(w.name, o.seed, o.draw, "--setup-probe", 1)
			}
		})
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		out = append(out, s/speed)
	}
	return out, nil
}
