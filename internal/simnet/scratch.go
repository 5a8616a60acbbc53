package simnet

import (
	"fmt"

	"psrahgadmm/internal/collective"
)

// TimeScratch holds the per-call state TraceTimeScratch needs — per-(step,
// endpoint) send/receive loads — as flat reusable slices. One scratch per
// engine amortizes cost-model evaluation to zero allocation; it is resized
// on demand, so an elastic regroup that changes the world size needs no
// explicit invalidation.
//
// Bit-reproducibility: loads accumulate in event order, trace by trace,
// and the per-step maximum is order-independent, so the time is a pure
// function of the traces' concatenation (the golden-history tests pin
// this, and simnet's tests hold it to a map-based oracle).
type TimeScratch struct {
	out, in []float64 // indexed step*world + rank
	touched []int32   // touched flat keys, first-touch order
	times   []float64
	// node[r] is rank r's node under topo (world = len(node)), built when
	// the topology changes, so the per-event intra/inter test divides
	// nothing.
	node []int32
	topo Topology
}

// grow ensures capacity for steps×world load cells and the node table of
// topo. Cells are kept clean between calls via the touched list, so growth
// only zero-fills new storage.
func (ts *TimeScratch) grow(steps int, topo Topology) {
	world := topo.Size()
	if topo != ts.topo {
		ts.node = ts.node[:0]
		for r := 0; r < world; r++ {
			ts.node = append(ts.node, int32(topo.NodeOf(r)))
		}
		ts.topo = topo
	}
	n := steps * world
	if cap(ts.out) < n {
		ts.out = make([]float64, n)
		ts.in = make([]float64, n)
	}
	ts.out = ts.out[:n]
	ts.in = ts.in[:n]
	if cap(ts.times) < steps {
		ts.times = make([]float64, steps)
	}
	ts.times = ts.times[:steps]
	clear(ts.times)
}

// load adds events' send and receive costs to ts's per-(step, endpoint)
// cells, in slice order.
func (c CostModel) load(ts *TimeScratch, steps int, events []collective.Event) {
	world := len(ts.node)
	for _, e := range events {
		if e.Step < 0 || e.Step >= steps {
			panic(fmt.Sprintf("simnet: event step %d out of [0,%d)", e.Step, steps))
		}
		alpha, beta := c.InterAlpha, c.InterBeta
		if ts.node[e.From] == ts.node[e.To] {
			alpha, beta = c.IntraAlpha, c.IntraBeta
		}
		cost := alpha + beta*float64(e.Bytes)
		kf := int32(e.Step*world + e.From)
		kt := int32(e.Step*world + e.To)
		if ts.out[kf] == 0 && ts.in[kf] == 0 {
			ts.touched = append(ts.touched, kf)
		}
		ts.out[kf] += cost
		if ts.in[kt] == 0 && ts.out[kt] == 0 {
			ts.touched = append(ts.touched, kt)
		}
		ts.in[kt] += cost
	}
}

// fold turns the loaded cells into per-step times, each the step's busiest
// endpoint, and leaves the cells clean for the next call.
func (ts *TimeScratch) fold() []float64 {
	for _, k := range ts.touched {
		s := int(k) / len(ts.node)
		if ts.out[k] > ts.times[s] {
			ts.times[s] = ts.out[k]
		}
		if ts.in[k] > ts.times[s] {
			ts.times[s] = ts.in[k]
		}
		ts.out[k] = 0
		ts.in[k] = 0
	}
	ts.touched = ts.touched[:0]
	return ts.times
}

// TraceTimeScratch returns the virtual seconds of a collective whose
// members logged the given traces, computing through ts. Within a step,
// messages are concurrent across the cluster but serialize through each
// endpoint: a rank sending k messages in one step pays the sum of their
// costs, and likewise on the receive side; the step lasts as long as its
// busiest endpoint. The traces are loaded where they lie, bit for bit
// their concatenation's time.
func (c CostModel) TraceTimeScratch(ts *TimeScratch, topo Topology, traces ...collective.Trace) float64 {
	steps := 0
	for _, tr := range traces {
		steps = max(steps, tr.Steps)
	}
	if steps == 0 {
		return 0
	}
	ts.grow(steps, topo)
	for _, tr := range traces {
		c.load(ts, steps, tr.Events)
	}
	var total float64
	for _, t := range ts.fold() {
		total += t
	}
	return total
}

// TraceTime returns the total elapsed virtual seconds of a collective
// whose members contributed the given local traces. It is TraceTimeScratch
// over a scratch of its own; a caller that charges round after round keeps
// one TimeScratch and calls TraceTimeScratch.
func (c CostModel) TraceTime(topo Topology, traces ...collective.Trace) float64 {
	var ts TimeScratch
	return c.TraceTimeScratch(&ts, topo, traces...)
}
