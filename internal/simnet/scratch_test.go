package simnet

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"psrahgadmm/internal/collective"
)

func randTrace(rng *rand.Rand, world, steps, events int) collective.Trace {
	tr := collective.Trace{Steps: steps}
	for i := 0; i < events; i++ {
		tr.Events = append(tr.Events, collective.Event{
			Step:  rng.Intn(steps),
			From:  rng.Intn(world),
			To:    rng.Intn(world),
			Bytes: rng.Intn(4096),
		})
	}
	return tr
}

// stepTimes is the map-based evaluator the scratch path replaced, kept as
// the oracle TraceTime and TraceTimeScratch are held to. It folds a merged
// set of collective events (the union of every participating rank's local
// trace) into per-step durations. Within a step, messages are concurrent
// across the cluster but serialize through each endpoint's interface: a
// rank sending k messages in one step pays the sum of their costs, and
// likewise on the receive side. The step lasts as long as its busiest
// endpoint.
func stepTimes(c CostModel, topo Topology, steps int, events []collective.Event) []float64 {
	if steps == 0 {
		return nil
	}
	type load struct{ out, in float64 }
	times := make([]float64, steps)
	perStep := make(map[int]map[int]*load)
	for _, e := range events {
		if e.Step < 0 || e.Step >= steps {
			panic(fmt.Sprintf("simnet: event step %d out of [0,%d)", e.Step, steps))
		}
		alpha, beta := c.InterAlpha, c.InterBeta
		if topo.NodeOf(e.From) == topo.NodeOf(e.To) {
			alpha, beta = c.IntraAlpha, c.IntraBeta
		}
		cost := alpha + beta*float64(e.Bytes)
		m := perStep[e.Step]
		if m == nil {
			m = make(map[int]*load)
			perStep[e.Step] = m
		}
		for _, end := range []int{e.From, e.To} {
			if m[end] == nil {
				m[end] = &load{}
			}
		}
		m[e.From].out += cost
		m[e.To].in += cost
	}
	for s, m := range perStep {
		var worst float64
		for _, l := range m {
			if l.out > worst {
				worst = l.out
			}
			if l.in > worst {
				worst = l.in
			}
		}
		times[s] = worst
	}
	return times
}

// oracleTraceTime merges the members' local traces into one event slice
// and sums stepTimes over it.
func oracleTraceTime(c CostModel, topo Topology, traces ...collective.Trace) float64 {
	steps := 0
	var events []collective.Event
	for _, tr := range traces {
		if tr.Steps > steps {
			steps = tr.Steps
		}
		events = append(events, tr.Events...)
	}
	var total float64
	for _, t := range stepTimes(c, topo, steps, events) {
		total += t
	}
	return total
}

// TestScratchMatchesAllocating pins TraceTime and TraceTimeScratch, bit for
// bit, to the map-based oracle over the members' merged traces, for the
// whole collective and step by step. One scratch serves every round while
// the topology changes under it, twice at an unchanged world size, so its
// node table must follow the layout, not the rank count.
func TestScratchMatchesAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	topos := []Topology{{Nodes: 4, WorkersPerNode: 3}, {Nodes: 3, WorkersPerNode: 4}, {Nodes: 2, WorkersPerNode: 6}}
	c := Tianhe2Like()
	var ts TimeScratch
	for round := 0; round < 100; round++ {
		topo := topos[round/10%len(topos)]
		steps := 1 + rng.Intn(6)
		tr1 := randTrace(rng, topo.Size(), steps, rng.Intn(40))
		tr2 := randTrace(rng, topo.Size(), 1+rng.Intn(steps), rng.Intn(40))

		want := oracleTraceTime(c, topo, tr1, tr2)
		if got := c.TraceTimeScratch(&ts, topo, tr1, tr2); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("round %d: TraceTimeScratch %v != oracle %v", round, got, want)
		}
		if got := c.TraceTime(topo, tr1, tr2); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("round %d: TraceTime %v != oracle %v", round, got, want)
		}

		wantSteps := stepTimes(c, topo, steps, tr1.Events)
		ts.grow(steps, topo)
		c.load(&ts, steps, tr1.Events)
		gotSteps := ts.fold()
		if len(wantSteps) != len(gotSteps) {
			t.Fatalf("round %d: step count %d != %d", round, len(gotSteps), len(wantSteps))
		}
		for s := range wantSteps {
			if wantSteps[s] != gotSteps[s] {
				t.Fatalf("round %d step %d: %v != %v", round, s, gotSteps[s], wantSteps[s])
			}
		}
	}
}

func TestScratchZeroCostEvents(t *testing.T) {
	topo := Topology{Nodes: 1, WorkersPerNode: 3}
	c := CostModel{} // all-zero model: every event costs 0
	var ts TimeScratch
	tr := collective.Trace{Steps: 1, Events: []collective.Event{
		{Step: 0, From: 0, To: 1, Bytes: 100},
		{Step: 0, From: 0, To: 1, Bytes: 100},
	}}
	if got := c.TraceTimeScratch(&ts, topo, tr); got != 0 {
		t.Fatalf("zero-cost trace time = %v", got)
	}
	// Scratch must be clean afterwards even for zero-cost touches.
	if len(ts.touched) != 0 {
		t.Fatalf("touched not drained: %d", len(ts.touched))
	}
}

func TestScratchSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	topo := Topology{Nodes: 4, WorkersPerNode: 2}
	c := Tianhe2Like()
	var ts TimeScratch
	tr := randTrace(rng, topo.Size(), 4, 64)
	c.TraceTimeScratch(&ts, topo, tr) // warm
	avg := testing.AllocsPerRun(100, func() {
		c.TraceTimeScratch(&ts, topo, tr)
	})
	if avg > 0 {
		t.Errorf("warmed TraceTimeScratch allocates %.1f times, want 0", avg)
	}
}
