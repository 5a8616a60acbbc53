package collective

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"psrahgadmm/internal/raceflag"
	"psrahgadmm/internal/shard"
	"psrahgadmm/internal/sparse"
	"psrahgadmm/internal/transport"
	"psrahgadmm/internal/vec"
)

// refCenter is an independent brute-force reference for the robust center:
// sort a copy, then apply the statistic by its textbook definition. Kept
// deliberately naive so a bug in robustCenter cannot hide in a shared
// helper.
func refCenter(vals []float64, spec AggSpec) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	switch spec.Kind {
	case AggMedian:
		if n%2 == 1 {
			return s[n/2]
		}
		return (s[n/2-1] + s[n/2]) / 2
	case AggTrimmedMean:
		f := spec.TrimF
		if 2*f >= n {
			f = (n - 1) / 2
		}
		sum := 0.0
		for _, x := range s[f : n-f] {
			sum += x
		}
		return sum / float64(n-2*f)
	default:
		sum := 0.0
		for _, x := range s {
			sum += x
		}
		return sum / float64(n)
	}
}

// refRobustReduce computes the expected full-width robust allreduce output:
// per coordinate, center over every contributor's value (implicit zero for
// missing support) times the contributor count.
func refRobustReduce(vs []*sparse.Vector, dim int, spec AggSpec) []float64 {
	n := len(vs)
	dense := make([][]float64, n)
	for i, v := range vs {
		dense[i] = v.ToDense()
	}
	out := make([]float64, dim)
	col := make([]float64, n)
	for j := 0; j < dim; j++ {
		for i := range dense {
			col[i] = dense[i][j]
		}
		out[j] = refCenter(col, spec) * float64(n)
	}
	return out
}

func robustSpecs() map[string]AggSpec {
	return map[string]AggSpec{
		"trim1":  {Kind: AggTrimmedMean, TrimF: 1},
		"trim2":  {Kind: AggTrimmedMean, TrimF: 2},
		"median": {Kind: AggMedian},
	}
}

func TestRobustCenterMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	specs := robustSpecs()
	// Include the degenerate trims: 2f >= n must clamp so at least one
	// value survives.
	specs["trim-overshoot"] = AggSpec{Kind: AggTrimmedMean, TrimF: 50}
	for name, spec := range specs {
		for _, n := range []int{1, 2, 3, 4, 5, 8, 9} {
			vals := make([]float64, n)
			for i := range vals {
				vals[i] = r.NormFloat64() * 10
			}
			sorted := append([]float64(nil), vals...)
			sort.Float64s(sorted)
			got := robustCenter(sorted, spec)
			want := refCenter(vals, spec)
			if got != want {
				t.Fatalf("%s n=%d: robustCenter = %v, reference = %v", name, n, got, want)
			}
		}
	}
}

// sortPalette is what contributions are drawn from when the sort is held to
// slices.Sort: ties, both zeros, both infinities and three NaN payloads, so
// that any departure from slices.Sort's order of equal values shows in the
// bits.
var sortPalette = []float64{
	0, math.Copysign(0, -1), 1, -1, 2.5, -2.5, 1e300, -1e-300,
	math.Inf(1), math.Inf(-1), math.NaN(),
	math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff8000000000000),
}

// contributorsFrom maps each byte to a palette value (high bit set: a value
// of its own), one contribution a byte, at most 20.
func contributorsFrom(data []byte) []float64 {
	if len(data) > 20 {
		data = data[:20]
	}
	vals := make([]float64, len(data))
	for i, b := range data {
		if b >= 128 {
			vals[i] = float64(int(b) - 192)
		} else {
			vals[i] = sortPalette[int(b)%len(sortPalette)]
		}
	}
	return vals
}

// checkSortContributors fails unless sortContributors leaves vals in the
// order slices.Sort gives, Float64bits for Float64bits.
func checkSortContributors(t *testing.T, vals []float64) {
	t.Helper()
	got := slices.Clone(vals)
	want := slices.Clone(vals)
	sortContributors(got)
	slices.Sort(want)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("sort of %v:\n got %v\nwant %v (slot %d: %#x, want %#x)",
				vals, got, want, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// TestSortContributorsMatchesSlicesSort: the combine's small-n sort puts
// every contribution where slices.Sort did, including which zero and which
// NaN comes first, on both sides of the insertion-sort cutoff.
func TestSortContributorsMatchesSlicesSort(t *testing.T) {
	r := rand.New(rand.NewSource(34))
	for i := 0; i < 20000; i++ {
		data := make([]byte, r.Intn(21))
		r.Read(data)
		checkSortContributors(t, contributorsFrom(data))
	}
}

func FuzzSortContributorsMatchesSlicesSort(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 1, 0, 1, 0, 1})
	f.Add([]byte{10, 11, 12, 10, 11, 12, 8, 9})
	f.Add([]byte{200, 1, 0, 12, 130, 255, 1, 0, 10, 11, 12, 3, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSortContributors(t, contributorsFrom(data))
	})
}

// TestCombineSparseSuppressesOutlier pins the property the robust
// aggregators exist for: one sign-flipped contributor among n cannot move
// the trimmed mean or median beyond the honest value range.
func TestCombineSparseSuppressesOutlier(t *testing.T) {
	n, dim := 5, 11
	srcs := make([]*sparse.Vector, n)
	for i := range srcs {
		x := make([]float64, dim)
		for j := range x {
			x[j] = 1 + 0.01*float64(i)
			if i == n-1 {
				x[j] *= -1000 // Byzantine sign-flip, scaled
			}
		}
		srcs[i] = sparse.FromDense(x)
	}
	var ws Workspace
	for name, spec := range robustSpecs() {
		for j, v := range ws.CombineSparse(spec, dim, srcs, nil).ToDense() {
			center := v / float64(n)
			if center < 1 || center > 1.04 {
				t.Fatalf("%s coord %d: center %v escaped the honest range [1, 1.04]", name, j, center)
			}
		}
	}
	// The mean, by contrast, is dominated by the attacker — the contrast
	// the robust specs are measured against.
	mean := 0.0
	for _, s := range srcs {
		mean += s.Value[0] / float64(n)
	}
	if mean > 0 {
		t.Fatalf("mean center %v should be dragged negative by the attacker", mean)
	}
}

func TestCombineSparse(t *testing.T) {
	var ws Workspace
	dim := 9
	mk := func(pairs ...float64) *sparse.Vector {
		v := sparse.NewVector(dim, 0)
		for i := 0; i+1 < len(pairs); i += 2 {
			v.Append(int32(pairs[i]), pairs[i+1])
		}
		return v
	}
	spec := AggSpec{Kind: AggMedian}

	t.Run("nil-srcs-skipped", func(t *testing.T) {
		// nil entries model dead/quarantined ranks: n counts only the
		// non-nil contributors.
		srcs := []*sparse.Vector{mk(0, 3), nil, mk(0, 5), nil, mk(0, 7)}
		out := ws.CombineSparse(spec, dim, srcs, nil)
		want := make([]float64, dim)
		want[0] = 5 * 3 // median(3,5,7) × 3 contributors
		if !vec.Equal(out.ToDense(), want) {
			t.Fatalf("got %v want %v", out.ToDense(), want)
		}
	})

	t.Run("implicit-zeros-count", func(t *testing.T) {
		// A contributor with no entry at a coordinate still contributes a
		// zero to the statistic there: median(0, 0, 9) = 0.
		srcs := []*sparse.Vector{mk(2, 9), mk(), mk()}
		out := ws.CombineSparse(spec, dim, srcs, nil)
		if out.NNZ() != 0 {
			t.Fatalf("median over {9, 0, 0} should be 0 (unstored), got %v", out.ToDense())
		}
	})

	t.Run("all-nil", func(t *testing.T) {
		out := ws.CombineSparse(spec, dim, []*sparse.Vector{nil, nil}, nil)
		if out.Dim != dim || out.NNZ() != 0 {
			t.Fatalf("empty combine should yield an empty dim-%d vector, got dim=%d nnz=%d", dim, out.Dim, out.NNZ())
		}
	})

	t.Run("destination-reuse", func(t *testing.T) {
		srcs := []*sparse.Vector{mk(1, 2), mk(1, 4), mk(1, 6)}
		out := ws.CombineSparse(spec, dim, srcs, nil)
		again := ws.CombineSparse(spec, dim, srcs, out)
		if again != out {
			t.Fatal("CombineSparse dropped the caller's destination")
		}
		want := make([]float64, dim)
		want[1] = 4 * 3
		if !vec.Equal(again.ToDense(), want) {
			t.Fatalf("reused destination got %v want %v", again.ToDense(), want)
		}
	})

	t.Run("random-vs-reference", func(t *testing.T) {
		r := rand.New(rand.NewSource(5))
		for name, spec := range robustSpecs() {
			vs, _ := sparseInputs(r, 6, 43, 0.3)
			out := ws.CombineSparse(spec, 43, vs, nil)
			want := refRobustReduce(vs, 43, spec)
			if !vec.Equal(out.ToDense(), want) {
				t.Fatalf("%s: CombineSparse diverges from brute-force reference", name)
			}
		}
	})
}

// TestPSRAllreduceSparseAggMeanBitIdentical pins the bit-identity contract:
// with the mean spec the Agg entry point must return exactly what the
// original kernel returns — same bits, same traced bytes.
func TestPSRAllreduceSparseAggMeanBitIdentical(t *testing.T) {
	for _, n := range []int{1, 2, 4, 7} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(n)))
			vs, _ := sparseInputs(r, n, 73, 0.3)
			run := func(agg bool) ([][]float64, []int) {
				var mu sync.Mutex
				got := make([][]float64, n)
				bytes := make([]int, n)
				runRanks(t, n, func(ep transport.Endpoint) error {
					var ws Workspace
					out := new(sparse.Vector)
					var tr Trace
					var err error
					if agg {
						tr, err = ws.PSRAllreduceSparseAgg(ep, WorldGroup(n), 70, vs[ep.Rank()], out, AggSpec{Kind: AggMean}, -1)
					} else {
						tr, err = ws.PSRAllreduceSparse(ep, WorldGroup(n), 70, vs[ep.Rank()], out)
					}
					if err != nil {
						return err
					}
					mu.Lock()
					got[ep.Rank()] = out.ToDense()
					bytes[ep.Rank()] = tr.TotalBytes()
					mu.Unlock()
					return nil
				})
				return got, bytes
			}
			plain, plainBytes := run(false)
			mean, meanBytes := run(true)
			for rk := range plain {
				if !vec.Equal(plain[rk], mean[rk]) {
					t.Fatalf("rank %d: AggMean result diverges bitwise from the original kernel", rk)
				}
				if plainBytes[rk] != meanBytes[rk] {
					t.Fatalf("rank %d: AggMean traced %dB, original %dB", rk, meanBytes[rk], plainBytes[rk])
				}
			}
		})
	}
}

func TestPSRAllreduceSparseAggRobustMatchesReference(t *testing.T) {
	for name, spec := range robustSpecs() {
		for _, n := range []int{1, 2, 3, 5, 8} {
			for _, dim := range []int{7, 64, 301} {
				t.Run(fmt.Sprintf("%s/n=%d/dim=%d", name, n, dim), func(t *testing.T) {
					r := rand.New(rand.NewSource(int64(n*131 + dim)))
					vs, _ := sparseInputs(r, n, dim, 0.3)
					want := refRobustReduce(vs, dim, spec)
					var mu sync.Mutex
					results := make([]*sparse.Vector, n)
					runRanks(t, n, func(ep transport.Endpoint) error {
						var ws Workspace
						out := new(sparse.Vector)
						if _, err := ws.PSRAllreduceSparseAgg(ep, WorldGroup(n), 90, vs[ep.Rank()], out, spec, -1); err != nil {
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
						if !vec.Equal(got.ToDense(), want) {
							t.Fatalf("rank %d robust result diverges from brute-force reference", rk)
						}
					}
				})
			}
		}
	}
}

// shardedRobustWant mirrors shardedWant for the robust kinds: per block,
// center over the block's STATIC subscriber set (implicit zeros for
// subscribers without stored support) times the subscriber count.
func shardedRobustWant(plan *shard.Plan, vs []*sparse.Vector, spec AggSpec) [][]float64 {
	dim := plan.Part.Dim
	dense := make([][]float64, len(vs))
	for i, v := range vs {
		dense[i] = v.ToDense()
	}
	blockRed := make([]float64, dim)
	for b := 0; b < plan.Part.Blocks; b++ {
		c := plan.Part.Chunk(b)
		var subs []int
		for i := range vs {
			if subscribes(plan, i, b) {
				subs = append(subs, i)
			}
		}
		if len(subs) == 0 {
			continue
		}
		col := make([]float64, len(subs))
		for j := c.Lo; j < c.Hi; j++ {
			for k, i := range subs {
				col[k] = dense[i][j]
			}
			blockRed[j] = refCenter(col, spec) * float64(len(subs))
		}
	}
	want := make([][]float64, len(vs))
	for i := range vs {
		want[i] = make([]float64, dim)
		for _, b := range plan.Subs[i] {
			c := plan.Part.Chunk(int(b))
			copy(want[i][c.Lo:c.Hi], blockRed[c.Lo:c.Hi])
		}
	}
	return want
}

func TestShardAllreduceSparseAggRobustMatchesReference(t *testing.T) {
	for name, spec := range robustSpecs() {
		for _, tc := range []struct {
			p, dim, blocks int
			q              float64
		}{
			{2, 40, 2, 0.7},
			{3, 50, 7, 0.5},
			{5, 128, 16, 0.4},
		} {
			t.Run(fmt.Sprintf("%s/p=%d/B=%d", name, tc.p, tc.blocks), func(t *testing.T) {
				r := rand.New(rand.NewSource(int64(tc.p*77 + tc.blocks)))
				plan := randomPlan(r, tc.dim, tc.blocks, tc.p, tc.q)
				vs := shardedInputs(r, plan, 0.6)
				want := shardedRobustWant(plan, vs, spec)
				g := WorldGroup(tc.p)
				var mu sync.Mutex
				results := make([][]float64, tc.p)
				runRanks(t, tc.p, func(ep transport.Endpoint) error {
					var ws Workspace
					out := new(sparse.Vector)
					if _, err := ws.ShardAllreduceSparseAgg(ep, g, 400, plan, vs[ep.Rank()], out, spec); err != nil {
						return err
					}
					if err := out.Check(); err != nil {
						return err
					}
					mu.Lock()
					results[ep.Rank()] = out.ToDense()
					mu.Unlock()
					return nil
				})
				for rk, got := range results {
					if !vec.Equal(got, want[rk]) {
						t.Fatalf("rank %d sharded robust result diverges from reference", rk)
					}
				}
			})
		}
	}
}

// TestShardAllreduceSparseAggMeanBitIdentical: the sharded Agg entry point
// with the mean spec delegates to the original sharded kernel untouched.
func TestShardAllreduceSparseAggMeanBitIdentical(t *testing.T) {
	p, dim, blocks := 4, 64, 16
	r := rand.New(rand.NewSource(41))
	plan := randomPlan(r, dim, blocks, p, 0.4)
	vs := shardedInputs(r, plan, 0.6)
	g := WorldGroup(p)
	run := func(agg bool) [][]float64 {
		var mu sync.Mutex
		got := make([][]float64, p)
		runRanks(t, p, func(ep transport.Endpoint) error {
			var ws Workspace
			out := new(sparse.Vector)
			var err error
			if agg {
				_, err = ws.ShardAllreduceSparseAgg(ep, g, 500, plan, vs[ep.Rank()], out, AggSpec{Kind: AggMean})
			} else {
				_, err = ws.ShardAllreduceSparse(ep, g, 500, plan, vs[ep.Rank()], out)
			}
			if err != nil {
				return err
			}
			mu.Lock()
			got[ep.Rank()] = out.ToDense()
			mu.Unlock()
			return nil
		})
		return got
	}
	plain := run(false)
	mean := run(true)
	for rk := range plain {
		if !vec.Equal(plain[rk], mean[rk]) {
			t.Fatalf("rank %d: sharded AggMean diverges bitwise from the original kernel", rk)
		}
	}
}

// TestRobustScratchDimensionChange guards the reset path that re-maps rows
// onto different flat positions: stale cells from a wider block must not
// leak into a narrower one.
func TestRobustScratchDimensionChange(t *testing.T) {
	var ws Workspace
	spec := AggSpec{Kind: AggMedian}
	wide := sparse.NewVector(8, 0)
	for j := 0; j < 8; j++ {
		wide.Append(int32(j), 100)
	}
	ws.CombineSparse(spec, 8, []*sparse.Vector{wide, wide, wide}, nil)

	narrow := sparse.NewVector(3, 0)
	narrow.Append(0, 1)
	out := ws.CombineSparse(spec, 3, []*sparse.Vector{narrow, narrow}, nil)
	want := make([]float64, 3)
	want[0] = 1 * 2 // median(1,1) × 2; coords 1,2 untouched ⇒ 0
	if !vec.Equal(out.ToDense(), want) {
		t.Fatalf("stale scratch leaked across a dimension change: got %v want %v", out.ToDense(), want)
	}
}

// TestRobustScratchAbortedUse: a combine that panics after scattering some
// entries (a malformed contributor) leaves rows and marks behind; the next
// combine at the same dimensions must not see them.
func TestRobustScratchAbortedUse(t *testing.T) {
	var ws Workspace
	spec := AggSpec{Kind: AggMedian}
	good := sparse.NewVector(200, 0)
	for _, j := range []int32{0, 63, 64, 130, 199} {
		good.Append(j, 100)
	}
	bad := &sparse.Vector{Dim: 200, Index: []int32{7, 70, 500}, Value: []float64{9, 9, 9}}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("out-of-range contributor index did not panic")
			}
		}()
		ws.CombineSparse(spec, 200, []*sparse.Vector{good, good, bad}, nil)
	}()
	// Row 7 was left as [0 0 9]. One contributor now stores 1 there and two
	// store nothing: median(1, 0, 0) = 0, where a stale 9 would make it 1.
	one := sparse.NewVector(200, 0)
	one.Append(7, 1)
	none := sparse.NewVector(200, 0)
	if out := ws.CombineSparse(spec, 200, []*sparse.Vector{one, none, none}, nil); out.NNZ() != 0 {
		t.Fatalf("aborted combine leaked into the next one: got %v %v", out.Index, out.Value)
	}
}

func TestParseAgg(t *testing.T) {
	for name, want := range map[string]Agg{
		"":                 AggMean,
		AggMeanName:        AggMean,
		AggTrimmedMeanName: AggTrimmedMean,
		AggMedianName:      AggMedian,
	} {
		got, err := ParseAgg(name)
		if err != nil || got != want {
			t.Fatalf("ParseAgg(%q) = %v, %v; want %v", name, got, err, want)
		}
		if got.String() != name && name != "" {
			t.Fatalf("Agg(%v).String() = %q, want %q", got, got.String(), name)
		}
	}
	if _, err := ParseAgg("winsorized"); err == nil {
		t.Fatal("ParseAgg accepted an unknown aggregator")
	}
}

// TestCombineSparseMeanAllocBudget pins CombineSparse's mean form: the
// member-order accumulator sum, bit for bit (NOT robustCenter's
// sort-then-divide mean × n), and free of allocation on a warmed workspace.
// The trimmed mean the robust reducer runs, over 8 contributors, is held
// to the same zero.
func TestCombineSparseMeanAllocBudget(t *testing.T) {
	const n, dim = 6, 257
	r := rand.New(rand.NewSource(23))
	// density 0.4: supports overlap partially, so some coordinates sum two
	// values, some five, some one.
	vs, _ := sparseInputs(r, n, dim, 0.4)
	vs[2] = nil // a dead rank's slot

	acc := sparse.NewAccumulator(dim)
	for _, v := range vs {
		if v != nil {
			acc.Add(v)
		}
	}
	want := acc.Sum()

	var ws Workspace
	out := ws.CombineSparse(AggSpec{}, dim, vs, nil)
	if err := out.Check(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(out.Index, want.Index) || !vec.Equal(out.Value, want.Value) {
		t.Fatal("mean CombineSparse diverges bitwise from the accumulator sum")
	}
	if raceflag.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	if a := testing.AllocsPerRun(20, func() { out = ws.CombineSparse(AggSpec{}, dim, vs, out) }); a != 0 {
		t.Fatalf("warmed mean CombineSparse allocates %v objects per call, want 0", a)
	}

	trimmed := AggSpec{Kind: AggTrimmedMean, TrimF: 1}
	vs8, _ := sparseInputs(r, 8, 1<<12, 0.05)
	if a := testing.AllocsPerRun(20, func() { out = ws.CombineSparse(trimmed, 1<<12, vs8, out) }); a != 0 {
		t.Fatalf("warmed trimmed-mean CombineSparse allocates %v objects per call, want 0", a)
	}
}

// TestAggTraceParity pins that the aggregator is only a combine step: on
// both owner-keyed schedules a trimmed-mean run moves the same messages as
// a mean run — same Steps, same (step, from, to) multiset on every member.
// Bytes may differ (a robust center can be an exact zero where the sum is
// not), so they are not compared.
func TestAggTraceParity(t *testing.T) {
	type hop struct{ step, from, to int }
	for _, p := range []int{2, 3, 5, 8} {
		r := rand.New(rand.NewSource(int64(300 + p)))
		plan := randomPlan(r, 96, 2*p+1, p, 0.5)
		vs := shardedInputs(r, plan, 0.5)
		g := WorldGroup(p)
		schedules := map[string]func(*Workspace, transport.Endpoint, *sparse.Vector, AggSpec) (Trace, error){
			"psr": func(ws *Workspace, ep transport.Endpoint, out *sparse.Vector, spec AggSpec) (Trace, error) {
				return ws.PSRAllreduceSparseAgg(ep, g, 600, vs[ep.Rank()], out, spec, -1)
			},
			"shard": func(ws *Workspace, ep transport.Endpoint, out *sparse.Vector, spec AggSpec) (Trace, error) {
				return ws.ShardAllreduceSparseAgg(ep, g, 600, plan, vs[ep.Rank()], out, spec)
			},
		}
		for name, schedule := range schedules {
			t.Run(fmt.Sprintf("%s/p=%d", name, p), func(t *testing.T) {
				run := func(spec AggSpec) ([]int, []map[hop]int) {
					steps := make([]int, p)
					hops := make([]map[hop]int, p)
					runRanks(t, p, func(ep transport.Endpoint) error {
						tr, err := schedule(new(Workspace), ep, new(sparse.Vector), spec)
						if err != nil {
							return err
						}
						m := map[hop]int{}
						for _, e := range tr.Events {
							m[hop{e.Step, e.From, e.To}]++
						}
						steps[ep.Rank()], hops[ep.Rank()] = tr.Steps, m
						return nil
					})
					return steps, hops
				}
				meanSteps, meanHops := run(AggSpec{})
				trimSteps, trimHops := run(AggSpec{Kind: AggTrimmedMean, TrimF: 1})
				for rk := 0; rk < p; rk++ {
					if len(meanHops[rk]) == 0 {
						t.Fatalf("rank %d sent nothing; the comparison would be vacuous", rk)
					}
					if meanSteps[rk] != trimSteps[rk] || !maps.Equal(meanHops[rk], trimHops[rk]) {
						t.Fatalf("rank %d: trimmed-mean run moved different messages than the mean run\nmean: %d steps %v\ntrim: %d steps %v",
							rk, meanSteps[rk], meanHops[rk], trimSteps[rk], trimHops[rk])
					}
				}
			})
		}
	}
}
