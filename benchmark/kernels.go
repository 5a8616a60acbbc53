package main

import (
	"bytes"
	"fmt"
	"time"

	"psrahgadmm/internal/collective"
	"psrahgadmm/internal/shard"
	"psrahgadmm/internal/sparse"
	"psrahgadmm/internal/transport"
	"psrahgadmm/internal/vec"
	"psrahgadmm/internal/wire"
)

// Micro-kernels: single public calls into one layer, timed in isolation at
// the workload's own sizes. They say what a layer's primitive costs here;
// the spans say how often the run pays it.

var kernelSink float64

// nsPerCall times f: batches of at least 2 ms each, median of five.
func nsPerCall(f func()) float64 {
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		if d := time.Since(t0); d >= 2*time.Millisecond || n >= 1<<20 {
			break
		}
		n *= 2
	}
	batches := make([]float64, 5)
	for b := range batches {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		batches[b] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(batches)
}

// vecKernels times dot, axpy and nrm2 at dimension dim, per element.
func vecKernels(dim int) (dot, axpy, nrm2 float64) {
	x, y := make([]float64, dim), make([]float64, dim)
	for i := range x {
		x[i], y[i] = float64(i%13)*0.25, float64(i%7)-3
	}
	d := float64(dim)
	dot = nsPerCall(func() { kernelSink += vec.Dot(x, y) }) / d
	axpy = nsPerCall(func() { vec.Axpy(1e-9, x, y) }) / d
	nrm2 = nsPerCall(func() { kernelSink += vec.Nrm2(x) }) / d
	return dot, axpy, nrm2
}

// csrFlopsPerByte is computed, not measured: per stored nonzero a mat-vec
// does one multiply and one add, and moves the value (8 bytes), its column
// index (4) and one gathered or scattered vector element (8).
const csrFlopsPerByte = 2.0 / (8 + 4 + 8)

// csrKernel times MulVec + MulTransVec on m, per stored nonzero.
func csrKernel(m *sparse.CSR) float64 {
	if m.NNZ() == 0 {
		return 0
	}
	x, y := make([]float64, m.NCols), make([]float64, m.NRows)
	for i := range x {
		x[i] = float64(i%5) - 2
	}
	ns := nsPerCall(func() {
		m.MulVec(y, x)
		m.MulTransVec(x, y)
	})
	return ns / float64(2*m.NNZ())
}

// reduceKernel times Accumulator Add of every input plus SumInto, per
// input entry.
func reduceKernel(dim int, inputs []*sparse.Vector) float64 {
	entries := 0
	for _, v := range inputs {
		entries += v.NNZ()
	}
	if entries == 0 {
		return 0
	}
	acc := sparse.NewAccumulator(dim)
	var out *sparse.Vector
	ns := nsPerCall(func() {
		for _, v := range inputs {
			acc.Add(v)
		}
		out = acc.SumInto(out)
	})
	return ns / float64(entries)
}

// robustCombineKernel times one trimmed-mean combine of the inputs, in µs.
func robustCombineKernel(dim int, inputs []*sparse.Vector) float64 {
	var ws collective.Workspace
	var out *sparse.Vector
	spec := collective.AggSpec{Kind: collective.AggTrimmedMean, TrimF: 1}
	return nsPerCall(func() { out = ws.CombineSparse(spec, dim, inputs, out) }) / 1e3
}

// chanKernel times a send/receive pair of v over the zero-copy channel
// fabric, in ns.
func chanKernel(v *sparse.Vector) (float64, error) {
	fab := transport.NewChanFabricZeroCopy(2)
	defer fab.Close()
	a, b := fab.Endpoint(0), fab.Endpoint(1)
	var err error
	ns := nsPerCall(func() {
		if e := a.Send(1, wire.SparseMsg(7, v)); e != nil {
			err = e
		}
		if _, e := b.Recv(0, 7); e != nil {
			err = e
		}
	})
	return ns, err
}

// shardPlanKernel times building the collective plan for the full world,
// in µs.
func shardPlanKernel(m *shard.Map) float64 {
	ranks := make([]int, m.World)
	for i := range ranks {
		ranks[i] = i
	}
	return nsPerCall(func() { m.Plan(ranks) }) / 1e3
}

// wireKernels times framing a dense vector of dimension dim: encode
// (AppendMessage, CRC32C included) and decode (DecodeFrom), per frame
// byte.
func wireKernels(dim int) (encode, decode float64, frameBytes int, err error) {
	x := make([]float64, dim)
	for i := range x {
		x[i] = float64(i) * 0.5
	}
	msg := wire.DenseMsg(9, x)
	frame, err := wire.AppendMessage(nil, msg)
	if err != nil {
		return 0, 0, 0, err
	}
	frameBytes = len(frame)
	buf := make([]byte, 0, frameBytes)
	encode = nsPerCall(func() { buf, _ = wire.AppendMessage(buf[:0], msg) }) / float64(frameBytes)
	var scratch []byte
	rd := bytes.NewReader(frame)
	decode = nsPerCall(func() {
		rd.Reset(frame)
		if _, scratch, err = wire.DecodeFrom(rd, scratch); err != nil {
			return
		}
	}) / float64(frameBytes)
	return encode, decode, frameBytes, err
}

// tcpRoundTripKernel ping-pongs a dense frame of dimension dim between two
// loopback endpoints and returns the median round trip in µs.
func tcpRoundTripKernel(dim int) (float64, error) {
	eps, _, err := establishMesh(2)
	if err != nil {
		return 0, err
	}
	defer closeAll(eps)
	const rounds = 40
	x := make([]float64, dim)
	echoErr := make(chan error, 1)
	go func() {
		for i := 0; i < rounds; i++ {
			m, err := eps[1].Recv(0, 11)
			if err == nil {
				err = eps[1].Send(0, wire.DenseMsg(12, m.Dense))
			}
			if err != nil {
				echoErr <- err
				return
			}
		}
		echoErr <- nil
	}()
	trips := make([]float64, 0, rounds)
	for i := 0; i < rounds; i++ {
		t0 := time.Now()
		if err := eps[0].Send(1, wire.DenseMsg(11, x)); err != nil {
			return 0, fmt.Errorf("tcp round trip: %w", err)
		}
		if _, err := eps[0].Recv(1, 12); err != nil {
			return 0, fmt.Errorf("tcp round trip: %w", err)
		}
		trips = append(trips, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	if err := <-echoErr; err != nil {
		return 0, fmt.Errorf("tcp round trip echo: %w", err)
	}
	return median(trips), nil
}
