package collective

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"psrahgadmm/internal/sparse"
	"psrahgadmm/internal/transport"
	"psrahgadmm/internal/vec"
	"psrahgadmm/internal/wire"
)

// runRanks executes fn concurrently for every rank on a fresh chan fabric,
// failing the test on any returned error.
func runRanks(t *testing.T, n int, fn func(ep transport.Endpoint) error) {
	t.Helper()
	f := transport.NewChanFabric(n)
	defer f.Close()
	runFabric(t, f, fn)
}

// runFabric executes fn concurrently for every rank of f, failing the test
// on any returned error.
func runFabric(t *testing.T, f transport.Fabric, fn func(ep transport.Endpoint) error) {
	t.Helper()
	n := f.Size()
	var wg sync.WaitGroup
	errCh := make(chan error, n)
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			if err := fn(f.Endpoint(r)); err != nil {
				errCh <- fmt.Errorf("rank %d: %w", r, err)
			}
		}(r)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

func denseInputs(r *rand.Rand, n, dim int) ([][]float64, []float64) {
	xs := make([][]float64, n)
	want := make([]float64, dim)
	for i := range xs {
		xs[i] = make([]float64, dim)
		for j := range xs[i] {
			xs[i][j] = r.NormFloat64()
		}
		vec.Axpy(1, xs[i], want)
	}
	return xs, want
}

func sparseInputs(r *rand.Rand, n, dim int, density float64) ([]*sparse.Vector, []float64) {
	vs := make([]*sparse.Vector, n)
	want := make([]float64, dim)
	for i := range vs {
		vs[i] = sparse.NewVector(dim, 0)
		for j := 0; j < dim; j++ {
			if r.Float64() < density {
				vs[i].Append(int32(j), r.NormFloat64())
			}
		}
		vec.Axpy(1, vs[i].ToDense(), want)
	}
	return vs, want
}

// The tests call the collectives as method expressions on a Workspace of
// their own, so a result or trace they keep is never rewritten by a later
// call.
type denseAllreduce func(*Workspace, transport.Endpoint, Group, int32, []float64) (Trace, error)

type sparseAllreduce func(ws *Workspace, ep transport.Endpoint, g Group, tag int32, v, out *sparse.Vector) (Trace, error)

func sparseAllreduces() map[string]sparseAllreduce {
	return map[string]sparseAllreduce{
		"ring": (*Workspace).RingAllreduceSparse,
		"psr":  (*Workspace).PSRAllreduceSparse,
	}
}

// denseAllreduces lists the ways a dense-valued vector is summed across a
// group. No schedule has a dense wire form: every one carries dense values
// the way both runtimes do — sparsify, run the sparse collective, densify.
func denseAllreduces() map[string]denseAllreduce {
	viaSparse := func(ar sparseAllreduce) denseAllreduce {
		return func(ws *Workspace, ep transport.Endpoint, g Group, tag int32, x []float64) (Trace, error) {
			sum := new(sparse.Vector)
			tr, err := ar(ws, ep, g, tag, sparse.FromDense(x), sum)
			if err == nil {
				sum.ToDenseInto(x)
			}
			return tr, err
		}
	}
	return map[string]denseAllreduce{
		"ring": viaSparse((*Workspace).RingAllreduceSparse),
		"psr":  viaSparse((*Workspace).PSRAllreduceSparse),
		"star": func(ws *Workspace, ep transport.Endpoint, g Group, tag int32, x []float64) (Trace, error) {
			return reduceBroadcastDenseValued(ws, ep, g, tag, 0, x)
		},
	}
}

// reduceBroadcastDenseValued sums dense-valued x at member rootIdx over
// sparse frames and broadcasts the sum back into every member's x.
func reduceBroadcastDenseValued(ws *Workspace, ep transport.Endpoint, g Group, tag int32, rootIdx int, x []float64) (Trace, error) {
	sum, got := new(sparse.Vector), new(sparse.Vector)
	tr, err := ws.ReduceSparse(ep, g, tag, rootIdx, sparse.FromDense(x), sum)
	if err != nil {
		return tr, err
	}
	// tr's events alias ws storage the broadcast is about to reuse.
	tr.Events = append([]Event(nil), tr.Events...)
	tr2, err := ws.BroadcastSparse(ep, g, tag+1, rootIdx, sum, got, len(x))
	for _, e := range tr2.Events { // the broadcast's steps follow the reduce's
		e.Step += tr.Steps
		tr.Events = append(tr.Events, e)
	}
	tr.Steps += tr2.Steps
	if err != nil {
		return tr, err
	}
	if g.IndexOf(ep.Rank()) == rootIdx {
		got = sum
	}
	got.ToDenseInto(x)
	return tr, nil
}

func TestDenseAllreduceCorrectness(t *testing.T) {
	for name, ar := range denseAllreduces() {
		for _, n := range []int{1, 2, 3, 5, 8} {
			for _, dim := range []int{1, 3, 17, 256} {
				t.Run(fmt.Sprintf("%s/n=%d/dim=%d", name, n, dim), func(t *testing.T) {
					r := rand.New(rand.NewSource(int64(n*1000 + dim)))
					xs, want := denseInputs(r, n, dim)
					g := WorldGroup(n)
					var mu sync.Mutex
					results := make([][]float64, n)
					runRanks(t, n, func(ep transport.Endpoint) error {
						x := vec.Clone(xs[ep.Rank()])
						if _, err := ar(new(Workspace), ep, g, 100, x); err != nil {
							return err
						}
						mu.Lock()
						results[ep.Rank()] = x
						mu.Unlock()
						return nil
					})
					for rk, got := range results {
						if !vec.WithinTol(got, want, 1e-9) {
							t.Fatalf("rank %d result wrong", rk)
						}
					}
				})
			}
		}
	}
}

func TestDenseAllreduceSubgroup(t *testing.T) {
	// Only ranks {1,3,4} of a 6-rank world participate; the rest idle.
	n := 6
	g := NewGroup(1, 3, 4)
	r := rand.New(rand.NewSource(7))
	xs, _ := denseInputs(r, n, 40)
	want := make([]float64, 40)
	for _, m := range g.Ranks {
		vec.Axpy(1, xs[m], want)
	}
	for name, ar := range denseAllreduces() {
		t.Run(name, func(t *testing.T) {
			var mu sync.Mutex
			results := map[int][]float64{}
			runRanks(t, n, func(ep transport.Endpoint) error {
				if g.IndexOf(ep.Rank()) < 0 {
					return nil
				}
				x := vec.Clone(xs[ep.Rank()])
				if _, err := ar(new(Workspace), ep, g, 10, x); err != nil {
					return err
				}
				mu.Lock()
				results[ep.Rank()] = x
				mu.Unlock()
				return nil
			})
			for rk, got := range results {
				if !vec.WithinTol(got, want, 1e-9) {
					t.Fatalf("rank %d subgroup result wrong", rk)
				}
			}
		})
	}
}

func TestSparseAllreduceCorrectness(t *testing.T) {
	for name, ar := range sparseAllreduces() {
		for _, n := range []int{1, 2, 4, 7} {
			for _, dim := range []int{5, 64, 301} {
				t.Run(fmt.Sprintf("%s/n=%d/dim=%d", name, n, dim), func(t *testing.T) {
					r := rand.New(rand.NewSource(int64(n*31 + dim)))
					vs, want := sparseInputs(r, n, dim, 0.25)
					g := WorldGroup(n)
					var mu sync.Mutex
					results := make([]*sparse.Vector, n)
					runRanks(t, n, func(ep transport.Endpoint) error {
						out := new(sparse.Vector)
						if _, err := ar(new(Workspace), ep, g, 50, vs[ep.Rank()], out); err != nil {
							return err
						}
						mu.Lock()
						results[ep.Rank()] = out
						mu.Unlock()
						return nil
					})
					for rk, got := range results {
						if err := got.Check(); err != nil {
							t.Fatalf("rank %d invariant: %v", rk, err)
						}
						if !vec.WithinTol(got.ToDense(), want, 1e-9) {
							t.Fatalf("rank %d sparse result wrong", rk)
						}
					}
				})
			}
		}
	}
}

func TestSparseAllreduceAllRanksAgreeExactly(t *testing.T) {
	// Beyond tolerance: every rank must get the *identical* result, since
	// reduction order per block is deterministic up to float association
	// on the owner. Ring circulates one partial per block; PSR reduces at
	// a single owner; either way the finished block bytes are identical
	// on every rank.
	n, dim := 5, 97
	r := rand.New(rand.NewSource(99))
	vs, _ := sparseInputs(r, n, dim, 0.3)
	for name, ar := range sparseAllreduces() {
		t.Run(name, func(t *testing.T) {
			var mu sync.Mutex
			results := make([]*sparse.Vector, n)
			runRanks(t, n, func(ep transport.Endpoint) error {
				out := new(sparse.Vector)
				if _, err := ar(new(Workspace), ep, WorldGroup(n), 1, vs[ep.Rank()], out); err != nil {
					return err
				}
				mu.Lock()
				results[ep.Rank()] = out
				mu.Unlock()
				return nil
			})
			ref := results[0].ToDense()
			for rk := 1; rk < n; rk++ {
				if !vec.Equal(results[rk].ToDense(), ref) {
					t.Fatalf("rank %d differs bitwise from rank 0", rk)
				}
			}
		})
	}
}

func TestReduceBroadcastDense(t *testing.T) {
	n, dim := 5, 33
	r := rand.New(rand.NewSource(3))
	xs, want := denseInputs(r, n, dim)
	root := 2
	var mu sync.Mutex
	results := make([][]float64, n)
	runRanks(t, n, func(ep transport.Endpoint) error {
		g := WorldGroup(n)
		x := vec.Clone(xs[ep.Rank()])
		if _, err := reduceBroadcastDenseValued(new(Workspace), ep, g, 10, root, x); err != nil {
			return err
		}
		mu.Lock()
		results[ep.Rank()] = x
		mu.Unlock()
		return nil
	})
	for rk, got := range results {
		if !vec.WithinTol(got, want, 1e-9) {
			t.Fatalf("rank %d reduce+broadcast wrong", rk)
		}
	}
}

func TestReduceBroadcastSparse(t *testing.T) {
	n, dim := 4, 50
	r := rand.New(rand.NewSource(4))
	vs, want := sparseInputs(r, n, dim, 0.3)
	root := 1
	var mu sync.Mutex
	results := make([]*sparse.Vector, n)
	runRanks(t, n, func(ep transport.Endpoint) error {
		g := WorldGroup(n)
		var ws Workspace
		// A sentinel entry shows whether the reduce wrote sum.
		sum := sparse.NewVector(dim+1, 1)
		sum.Append(int32(dim), 1)
		if _, err := ws.ReduceSparse(ep, g, 20, root, vs[ep.Rank()], sum); err != nil {
			return err
		}
		out := sum
		if ep.Rank() == g.Ranks[root] {
			if err := sum.Check(); err != nil {
				return err
			}
		} else {
			if sum.Dim != dim+1 || sum.NNZ() != 1 {
				return fmt.Errorf("non-root reduce result was written")
			}
			out = new(sparse.Vector)
		}
		if _, err := ws.BroadcastSparse(ep, g, 22, root, sum, out, dim); err != nil {
			return err
		}
		mu.Lock()
		results[ep.Rank()] = out
		mu.Unlock()
		return nil
	})
	for rk, got := range results {
		if !vec.WithinTol(got.ToDense(), want, 1e-9) {
			t.Fatalf("rank %d sparse reduce+broadcast wrong", rk)
		}
	}
}

func TestGroupValidation(t *testing.T) {
	f := transport.NewChanFabric(3)
	defer f.Close()
	ep := f.Endpoint(0)
	v, out := sparse.FromDense([]float64{1}), new(sparse.Vector)
	var ws Workspace
	if _, err := ws.RingAllreduceSparse(ep, NewGroup(), 1, v, out); err == nil {
		t.Fatal("empty group accepted")
	}
	if _, err := ws.RingAllreduceSparse(ep, NewGroup(1, 2), 1, v, out); err == nil {
		t.Fatal("non-member rank accepted")
	}
	if _, err := ws.RingAllreduceSparse(ep, NewGroup(0, 0), 1, v, out); err == nil {
		t.Fatal("duplicate rank accepted")
	}
	if _, err := ws.RingAllreduceSparse(ep, NewGroup(0, 7), 1, v, out); err == nil {
		t.Fatal("out-of-world rank accepted")
	}
	if _, err := ws.ReduceSparse(ep, NewGroup(0), 1, 5, v, out); err == nil {
		t.Fatal("out-of-range root accepted")
	}
}

func TestGroupIndexOf(t *testing.T) {
	g := NewGroup(4, 2, 9)
	if g.IndexOf(2) != 1 || g.IndexOf(9) != 2 || g.IndexOf(3) != -1 {
		t.Fatal("IndexOf wrong")
	}
	if g.IndexOf(4) < 0 || g.IndexOf(0) >= 0 {
		t.Fatal("membership wrong")
	}
}

// TestMemberIndexMatchesIndexOf: the table validateGroup stamps answers
// Group.IndexOf for the validated group — and only for it: a rank of an
// earlier call's group, a non-member and an out-of-world sender are all −1
// — without clearing or allocating between calls.
func TestMemberIndexMatchesIndexOf(t *testing.T) {
	const world = 9
	f := transport.NewChanFabric(world)
	defer f.Close()
	ep := f.Endpoint(2)
	var ws Workspace
	for _, g := range []Group{NewGroup(5, 2, 7), NewGroup(2, 3), WorldGroup(world), NewGroup(8, 2)} {
		if _, err := ws.validateGroup(ep, g); err != nil {
			t.Fatal(err)
		}
		for from := int32(-2); from < world+3; from++ {
			if got, want := ws.memberIndex(from), g.IndexOf(int(from)); got != want {
				t.Fatalf("group %v: memberIndex(%d) = %d, IndexOf = %d", g.Ranks, from, got, want)
			}
		}
	}
	// A rejected group leaves no stamp a later call could mistake for its own.
	if _, err := ws.validateGroup(ep, NewGroup(2, 4, 4)); err == nil {
		t.Fatal("duplicate rank accepted")
	}
	if _, err := ws.validateGroup(ep, NewGroup(2)); err != nil || ws.memberIndex(4) != -1 {
		t.Fatalf("after a rejected group: err %v, memberIndex(4) = %d, want -1", err, ws.memberIndex(4))
	}
	g := WorldGroup(world)
	if allocs := testing.AllocsPerRun(100, func() { ws.validateGroup(ep, g) }); allocs != 0 {
		t.Fatalf("validateGroup allocates %v objects per call, want 0", allocs)
	}

	// End to end: a frame on the collective's tag from outside the group is
	// refused, not indexed.
	if err := f.Endpoint(6).Send(2, wire.SparseMsg(40, sparse.FromDense([]float64{1}))); err != nil {
		t.Fatal(err)
	}
	v, out := sparse.FromDense([]float64{1}), new(sparse.Vector)
	if _, err := ws.ReduceSparse(ep, NewGroup(2, 3), 40, 0, v, out); err == nil || !strings.Contains(err.Error(), "unexpected sender 6") {
		t.Fatalf("frame from a non-member: %v, want unexpected sender 6", err)
	}
}

// TestSingleMemberGroupNoTraffic checks the degenerate group fast paths.
func TestSingleMemberGroupNoTraffic(t *testing.T) {
	runRanks(t, 1, func(ep transport.Endpoint) error {
		g := WorldGroup(1)
		x := []float64{1, 2}
		for name, ar := range sparseAllreduces() {
			v, out := sparse.FromDense(x), new(sparse.Vector)
			tr, err := ar(new(Workspace), ep, g, 5, v, out)
			if err != nil || len(tr.Events) != 0 || !vec.Equal(out.ToDense(), x) {
				return fmt.Errorf("%s: %v %v", name, tr, err)
			}
		}
		return nil
	})
}
