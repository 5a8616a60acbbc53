package simnet

import (
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

// TestScratchMatchesAllocating pins the bit-identity contract between the
// scratch timing path and the original map-based one, for the whole
// collective and step by step.
func TestScratchMatchesAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	topo := Topology{Nodes: 4, WorkersPerNode: 3}
	c := Tianhe2Like()
	var ts TimeScratch
	for round := 0; round < 100; round++ {
		steps := 1 + rng.Intn(6)
		tr1 := randTrace(rng, topo.Size(), steps, rng.Intn(40))
		tr2 := randTrace(rng, topo.Size(), 1+rng.Intn(steps), rng.Intn(40))

		want := c.TraceTime(topo, tr1, tr2)
		got := c.TraceTimeScratch(&ts, topo, tr1, tr2)
		if want != got {
			t.Fatalf("round %d: TraceTimeScratch %v != TraceTime %v", round, got, want)
		}

		wantSteps := c.StepTimes(topo, steps, tr1.Events)
		ts.grow(steps, topo.Size())
		c.load(&ts, topo, steps, tr1.Events)
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
