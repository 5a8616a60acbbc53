package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// The box this benchmark is checked on is a small guest of a shared host,
// and the host is not steady: for minutes at a stretch everything that
// leaves the L2 cache runs 1.2 to 1.8 times slower, in CPU time as much as
// in wall time, with nobody touching the code, and now and then the guest
// is also time-sliced. A ten-second window sits inside one such phase, so
// no statistic over its repetitions removes it, and ten runs of the same
// code then read 20 to 100 % apart.
//
// The harness therefore carries a yardstick of its own: a fixed burst of
// memory work that shares no code with the program under test. It is timed
// right before and right after every repetition (and every set-up), and
// each time the end-to-end metrics report is the measured time divided by
// how much slower than referenceQuietS the faster of the two bursts ran. On a quiet
// box the factor is 1 and the numbers are plain seconds; in a slow phase
// they are what the quiet box would have read, to within the match between
// the burst and the workload (README, "Speed normalisation", has the
// measurements). A change to the program cannot move the yardstick, so a
// regression moves the normalised time exactly as it moves the raw one.

const (
	referenceStreamBytes = 32 << 20 // swept once: memory bandwidth
	referenceTableBytes  = 4 << 20  // gathered from at random: cache and memory latency
	referenceGathers     = 1 << 18

	// referenceQuietS is what the faster of two bursts takes on the box the
	// baseline was recorded on when its host is quiet.
	referenceQuietS = 5.9e-3
)

// reference is the yardstick. Its buffers are mapped outside the Go heap:
// 38 MB of live heap would move the collector's trigger and with it the
// number of collections inside a repetition.
type reference struct {
	mapped [][]byte
	stream []float64
	table  []float64
	index  []int32
	sink   float64
}

func mapAnon(n int) ([]byte, error) {
	return syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
}

func newReference() (*reference, error) {
	r := &reference{}
	for _, size := range []int{referenceStreamBytes, referenceTableBytes, 4 * referenceGathers} {
		b, err := mapAnon(size)
		if err != nil {
			r.close()
			return nil, fmt.Errorf("mapping the reference buffers: %w", err)
		}
		r.mapped = append(r.mapped, b)
	}
	r.stream = unsafe.Slice((*float64)(unsafe.Pointer(&r.mapped[0][0])), referenceStreamBytes/8)
	r.table = unsafe.Slice((*float64)(unsafe.Pointer(&r.mapped[1][0])), referenceTableBytes/8)
	r.index = unsafe.Slice((*int32)(unsafe.Pointer(&r.mapped[2][0])), referenceGathers)
	for i := range r.stream {
		r.stream[i] = 1
	}
	for i := range r.table {
		r.table[i] = float64(i%3) + 0.5
	}
	s := uint32(12345) // fixed: the yardstick never depends on the run seed
	for i := range r.index {
		s = s*1664525 + 1013904223
		r.index[i] = int32(s >> 13) // 19 bits: the whole table
	}
	r.burst() // first touch of every page
	return r, nil
}

func (r *reference) close() {
	for _, b := range r.mapped {
		syscall.Munmap(b) // on exit; nothing to do about an error
	}
	r.mapped, r.stream, r.table, r.index = nil, nil, nil, nil
}

// burst does the fixed work once and returns how long it took, in seconds.
func (r *reference) burst() float64 {
	t0 := time.Now()
	acc := 0.0
	for _, v := range r.stream {
		acc += v
	}
	for _, j := range r.index {
		acc += r.table[j]
	}
	r.sink += acc
	return time.Since(t0).Seconds()
}

// around runs f between two bursts and returns how much slower than the
// quiet box the faster of the two ran: the factor f's times are divided by.
// The faster, not the mean: a slow phase of the host lasts minutes and
// slows both, while a burst that is merely interrupted reads long on its
// own, and only ever long (on engine-wide-64 the mean put a 2.3 s
// repetition of steady raw length at 1.5 s because one 6 ms burst beside it
// had been held up). A nil reference measures nothing and returns 1: the
// traced run reports its per-layer times as measured.
func (r *reference) around(f func()) float64 {
	if r == nil {
		f()
		return 1
	}
	before := r.burst()
	f()
	return min(before, r.burst()) / referenceQuietS
}
