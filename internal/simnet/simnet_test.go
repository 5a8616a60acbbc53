package simnet

import (
	"math"
	"testing"

	"psrahgadmm/internal/collective"
)

func TestTopology(t *testing.T) {
	topo := Topology{Nodes: 3, WorkersPerNode: 4}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	if topo.Size() != 12 {
		t.Fatalf("Size = %d", topo.Size())
	}
	if topo.NodeOf(0) != 0 || topo.NodeOf(3) != 0 || topo.NodeOf(4) != 1 || topo.NodeOf(11) != 2 {
		t.Fatal("NodeOf wrong")
	}
	w := topo.WorkersOf(1)
	if len(w) != 4 || w[0] != 4 || w[3] != 7 {
		t.Fatalf("WorkersOf = %v", w)
	}
	if !topo.SameNode(4, 7) || topo.SameNode(3, 4) {
		t.Fatal("SameNode wrong")
	}
	if (Topology{Nodes: 0, WorkersPerNode: 1}).Validate() == nil {
		t.Fatal("invalid topology accepted")
	}
}

func TestLinkClassSelection(t *testing.T) {
	topo := Topology{Nodes: 2, WorkersPerNode: 2}
	c := CostModel{IntraAlpha: 1, IntraBeta: 0, InterAlpha: 100, InterBeta: 0}
	intra := []collective.Event{{Step: 0, From: 0, To: 1, Bytes: 10}}
	inter := []collective.Event{{Step: 0, From: 0, To: 2, Bytes: 10}}
	if got := c.StepTimes(topo, 1, intra)[0]; got != 1 {
		t.Fatalf("intra cost = %v", got)
	}
	if got := c.StepTimes(topo, 1, inter)[0]; got != 100 {
		t.Fatalf("inter cost = %v", got)
	}
}

func TestStepSerializationThroughEndpoint(t *testing.T) {
	// One sender pushing to 3 receivers in a single step serializes: step
	// time = 3 messages' cost, not 1.
	topo := Topology{Nodes: 4, WorkersPerNode: 1}
	c := CostModel{InterAlpha: 1, InterBeta: 1}
	events := []collective.Event{
		{Step: 0, From: 0, To: 1, Bytes: 10},
		{Step: 0, From: 0, To: 2, Bytes: 10},
		{Step: 0, From: 0, To: 3, Bytes: 10},
	}
	got := c.StepTimes(topo, 1, events)[0]
	want := 3 * (1 + 10.0)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("serialized cost = %v, want %v", got, want)
	}
	// The same bytes spread over 3 senders to 3 receivers are concurrent.
	events = []collective.Event{
		{Step: 0, From: 0, To: 1, Bytes: 10},
		{Step: 0, From: 2, To: 3, Bytes: 10},
	}
	got = c.StepTimes(topo, 1, events)[0]
	if math.Abs(got-11) > 1e-12 {
		t.Fatalf("concurrent cost = %v, want 11", got)
	}
}

func TestReceiverBottleneck(t *testing.T) {
	// Fan-in: 3 senders to one receiver — the receiver's in-side
	// serializes.
	topo := Topology{Nodes: 4, WorkersPerNode: 1}
	c := CostModel{InterAlpha: 0, InterBeta: 1}
	events := []collective.Event{
		{Step: 0, From: 1, To: 0, Bytes: 5},
		{Step: 0, From: 2, To: 0, Bytes: 5},
		{Step: 0, From: 3, To: 0, Bytes: 5},
	}
	got := c.StepTimes(topo, 1, events)[0]
	if math.Abs(got-15) > 1e-12 {
		t.Fatalf("fan-in cost = %v, want 15", got)
	}
}

func TestStepsSumAndEmptySteps(t *testing.T) {
	topo := Topology{Nodes: 2, WorkersPerNode: 1}
	c := CostModel{InterAlpha: 1, InterBeta: 0}
	tr := collective.Trace{Steps: 3, Events: []collective.Event{
		{Step: 0, From: 0, To: 1, Bytes: 1},
		{Step: 2, From: 1, To: 0, Bytes: 1},
	}}
	// Step 1 has no events: zero duration.
	times := c.StepTimes(topo, tr.Steps, tr.Events)
	if len(times) != 3 || times[1] != 0 {
		t.Fatalf("times = %v", times)
	}
	if got := c.TraceTime(topo, tr); math.Abs(got-2) > 1e-12 {
		t.Fatalf("TraceTime = %v", got)
	}
}

func TestTraceTimeMergesLocalTraces(t *testing.T) {
	topo := Topology{Nodes: 2, WorkersPerNode: 1}
	c := CostModel{InterAlpha: 1, InterBeta: 0}
	a := collective.Trace{Steps: 2, Events: []collective.Event{{Step: 0, From: 0, To: 1, Bytes: 1}}}
	b := collective.Trace{Steps: 2, Events: []collective.Event{{Step: 1, From: 1, To: 0, Bytes: 1}}}
	if got := c.TraceTime(topo, a, b); math.Abs(got-2) > 1e-12 {
		t.Fatalf("merged TraceTime = %v", got)
	}
}

func TestStepOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c := Tianhe2Like()
	c.StepTimes(Topology{Nodes: 1, WorkersPerNode: 2}, 1, []collective.Event{{Step: 5, From: 0, To: 1}})
}

func TestTianhe2LikeShape(t *testing.T) {
	c := Tianhe2Like()
	if c.IntraBeta >= c.InterBeta {
		t.Fatal("bus must be faster than interconnect")
	}
	if c.IntraAlpha >= c.InterAlpha {
		t.Fatal("bus latency must be below interconnect latency")
	}
	if c.ComputePerUnit <= 0 {
		t.Fatal("compute rate missing")
	}
}

func TestWorkUnitsAndComputeTime(t *testing.T) {
	u := WorkUnits(10, 5, 1000, 50)
	want := float64(15)*2*1000 + 6*50
	if u != want {
		t.Fatalf("WorkUnits = %v, want %v", u, want)
	}
	c := CostModel{ComputePerUnit: 2}
	if got := c.ComputeTime(3); got != 6 {
		t.Fatalf("ComputeTime = %v", got)
	}
}

func TestStragglerDeterminism(t *testing.T) {
	s := Default(7)
	for iter := 0; iter < 5; iter++ {
		for node := 0; node < 8; node++ {
			a := s.NodeFactor(iter, node)
			b := s.NodeFactor(iter, node)
			if a != b {
				t.Fatal("NodeFactor not deterministic")
			}
			if a != 1 && a != s.Slowdown {
				t.Fatalf("factor = %v", a)
			}
		}
	}
}

func TestStragglerRate(t *testing.T) {
	s := Stragglers{Seed: 3, Prob: 0.25, Slowdown: 4}
	slow := 0
	total := 0
	for iter := 0; iter < 200; iter++ {
		for node := 0; node < 32; node++ {
			total++
			if s.NodeFactor(iter, node) > 1 {
				slow++
			}
		}
	}
	rate := float64(slow) / float64(total)
	if rate < 0.18 || rate > 0.32 {
		t.Fatalf("observed straggler rate %v, want ≈0.25", rate)
	}
}

func TestStragglerDisabled(t *testing.T) {
	var s Stragglers
	if s.Enabled() {
		t.Fatal("the zero Stragglers is enabled")
	}
	if s.NodeFactor(0, 0) != 1 {
		t.Fatal("disabled injector altered factor")
	}
}

func TestStragglerSeedsDiffer(t *testing.T) {
	a := Default(1)
	b := Default(2)
	same := true
	for iter := 0; iter < 20 && same; iter++ {
		for node := 0; node < 16; node++ {
			if a.NodeFactor(iter, node) != b.NodeFactor(iter, node) {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds gave identical straggler patterns")
	}
}
