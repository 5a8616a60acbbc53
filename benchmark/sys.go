package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuSeconds is the user+system CPU this process has consumed so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMiB is this process's resident-set high-water mark in MiB: VmHWM
// from /proc/self/status, which starts afresh at exec. ru_maxrss does not —
// a freshly exec'd child inherits the high-water mark of the process that
// forked it — so it is only the fallback where /proc is unreadable.
func peakRSSMiB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if f := strings.Fields(rest); len(f) > 0 {
					if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// pinProcs runs the program on one P unless the environment sets
// GOMAXPROCS. The sandbox this benchmark is checked on is a 2-vCPU guest of
// a shared host: a run that keeps both vCPUs busy waits, every iteration,
// for whichever of them the host is slowing down at the moment, and the
// same code then reads 12-45 % apart from one 10 s window to the next. On
// one P the spread is a half to a third of that, and the other vCPU is left
// to the kernel and to whoever started the run. The price: the second core
// is worth 20-30 % of wall time on the two 8-rank solver-bound engine
// workloads and 45 % on the mesh (nothing on the other three), and a change
// that only spreads work over more cores no longer shows. Set GOMAXPROCS to
// measure that on a quiet box with cores to spare; every result records the
// value it ran with.
func pinProcs() {
	if os.Getenv("GOMAXPROCS") == "" {
		runtime.GOMAXPROCS(1)
	}
}

// machineFacts are recorded beside every result set so numbers from
// different boxes are never compared by accident.
type machineFacts struct {
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUQuota   string  `json:"cgroup_cpu_quota"`
	CalibNs    float64 `json:"calib_ns"`
}

func readMachineFacts() machineFacts {
	return machineFacts{
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUQuota:   cgroupCPUQuota(),
		CalibNs:    calibrationKernelNs(),
	}
}

// cgroupCPUQuota returns the CFS quota as the kernel prints it (cgroup v2
// "max 100000", v1 "-1"), or "unreadable".
func cgroupCPUQuota() string {
	for _, p := range []string{"/sys/fs/cgroup/cpu.max", "/sys/fs/cgroup/cpu/cpu.cfs_quota_us"} {
		if b, err := os.ReadFile(p); err == nil {
			return strings.TrimSpace(string(b))
		}
	}
	return "unreadable"
}

var calibSink float64

// calibrationKernelNs times a fixed cache-resident multiply-add loop (best
// of five), a yardstick for how fast this box was when the numbers beside
// it were taken.
func calibrationKernelNs() float64 {
	buf := make([]float64, 1024)
	for i := range buf {
		buf[i] = float64(i%7) + 0.5
	}
	best := 0.0
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		acc := 0.0
		for pass := 0; pass < 2048; pass++ {
			for _, v := range buf {
				acc = acc*0.999 + v
			}
		}
		ns := float64(time.Since(t0).Nanoseconds())
		calibSink += acc
		if rep == 0 || ns < best {
			best = ns
		}
	}
	return best
}
