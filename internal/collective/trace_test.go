package collective

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"psrahgadmm/internal/sparse"
	"psrahgadmm/internal/transport"
	"psrahgadmm/internal/vec"
	"psrahgadmm/internal/wire"
)

// collectTraces runs a sparse allreduce on n members and returns all local
// traces.
func collectTraces(t *testing.T, ring bool, inputs []*sparse.Vector) []Trace {
	t.Helper()
	n := len(inputs)
	f := transport.NewChanFabric(n)
	defer f.Close()
	g := WorldGroup(n)
	traces := make([]Trace, n)
	var wg sync.WaitGroup
	errCh := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ar := (*Workspace).PSRAllreduceSparse
			if ring {
				ar = (*Workspace).RingAllreduceSparse
			}
			var err error
			traces[i], err = ar(new(Workspace), f.Endpoint(i), g, 1, inputs[i], new(sparse.Vector))
			if err != nil {
				errCh <- fmt.Errorf("rank %d: %w", i, err)
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	return traces
}

func sparseInputsFor(r *rand.Rand, n, dim int, density float64) []*sparse.Vector {
	out := make([]*sparse.Vector, n)
	for i := range out {
		v := sparse.NewVector(dim, 0)
		for j := 0; j < dim; j++ {
			if r.Float64() < density {
				v.Append(int32(j), r.NormFloat64())
			}
		}
		out[i] = v
	}
	return out
}

func TestStepCounts(t *testing.T) {
	r := rand.New(rand.NewSource(60))
	for _, n := range []int{2, 3, 5, 8} {
		inputs := sparseInputsFor(r, n, 200, 0.2)
		for _, tr := range collectTraces(t, true, inputs) {
			if tr.Steps != 2*(n-1) {
				t.Fatalf("ring steps = %d for n=%d, want %d", tr.Steps, n, 2*(n-1))
			}
		}
		for _, tr := range collectTraces(t, false, inputs) {
			if tr.Steps != 2 {
				t.Fatalf("psr steps = %d for n=%d, want 2", tr.Steps, n)
			}
		}
	}
}

func TestRingMessageCountPerMember(t *testing.T) {
	// Ring: every member sends exactly one message per step.
	r := rand.New(rand.NewSource(61))
	n := 6
	inputs := sparseInputsFor(r, n, 300, 0.2)
	for i, tr := range collectTraces(t, true, inputs) {
		if len(tr.Events) != 2*(n-1) {
			t.Fatalf("ring member %d sent %d messages, want %d", i, len(tr.Events), 2*(n-1))
		}
		// All messages go to the successor.
		for _, e := range tr.Events {
			if e.To != (i+1)%n {
				t.Fatalf("ring member %d sent to %d, want %d", i, e.To, (i+1)%n)
			}
		}
	}
}

func TestPSRMessageCountPerMember(t *testing.T) {
	// PSR: every member sends N−1 scatter messages (step 0) and N−1
	// gather messages (step 1).
	r := rand.New(rand.NewSource(62))
	n := 5
	inputs := sparseInputsFor(r, n, 300, 0.2)
	for i, tr := range collectTraces(t, false, inputs) {
		per := map[int]int{}
		for _, e := range tr.Events {
			per[e.Step]++
			if e.From != i {
				t.Fatalf("member %d logged someone else's send", i)
			}
		}
		if per[0] != n-1 || per[1] != n-1 {
			t.Fatalf("psr member %d step histogram %v", i, per)
		}
	}
}

func TestPSRScatterBytesBounded(t *testing.T) {
	// Paper eq. (14): in the Scatter-Reduce stage every member transmits
	// at most its own c nonzeros — regardless of placement.
	r := rand.New(rand.NewSource(63))
	n, dim := 6, 1200
	inputs := sparseInputsFor(r, n, dim, 0.3)
	traces := collectTraces(t, false, inputs)
	for i, tr := range traces {
		c := inputs[i].NNZ()
		scatterPayload := 0
		for _, e := range tr.Events {
			if e.Step == 0 {
				scatterPayload += e.Bytes
			}
		}
		// Allow per-message headers (8 bytes each, N−1 messages).
		maxBytes := c*wire.SparseEntryBytes + (n-1)*8
		if scatterPayload > maxBytes {
			t.Fatalf("member %d scatter bytes %d exceed eq.14 bound %d", i, scatterPayload, maxBytes)
		}
	}
}

func TestRingWorstCaseGrowsPSRBounded(t *testing.T) {
	// With every member's nonzeros concentrated in block 0 (ring's
	// pathological case, eq. 13), ring total bytes must exceed PSR total
	// bytes (eq. 16) by a growing factor as N grows.
	ratioAt := func(n int) float64 {
		r := rand.New(rand.NewSource(64))
		dim := 1 << 14
		c := 256
		chunks := vec.Split(dim, n)
		inputs := make([]*sparse.Vector, n)
		for m := range inputs {
			pos := map[int32]float64{}
			for len(pos) < c {
				pos[int32(chunks[0].Lo+r.Intn(chunks[0].Hi-chunks[0].Lo))] = r.NormFloat64()
			}
			inputs[m] = sparse.FromMap(dim, pos)
		}
		sum := func(traces []Trace) float64 {
			total := 0
			for _, tr := range traces {
				total += tr.TotalBytes()
			}
			return float64(total)
		}
		ring := sum(collectTraces(t, true, inputs))
		psr := sum(collectTraces(t, false, inputs))
		return ring / psr
	}
	r4 := ratioAt(4)
	r12 := ratioAt(12)
	if r4 <= 1 {
		t.Fatalf("ring/psr byte ratio at n=4 is %v, want > 1", r4)
	}
	if r12 <= r4 {
		t.Fatalf("ring/psr ratio should grow with n: %v (n=4) vs %v (n=12)", r4, r12)
	}
}
