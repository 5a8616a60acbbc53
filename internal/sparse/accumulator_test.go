package sparse

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// sortingAccumulator is the Accumulator as it stood before IndexSet: seen
// flags, a touched list in first-touch order, and a sort in sumInto. Add,
// AddRange and AddDense were all this one add; the golden histories were
// recorded with it, and the bitset walk must hand back what the sort did.
type sortingAccumulator struct {
	dim     int
	dense   []float64
	touched []int32
	seen    []bool
}

func newSortingAccumulator(dim int) *sortingAccumulator {
	return &sortingAccumulator{dim: dim, dense: make([]float64, dim), seen: make([]bool, dim)}
}

func (a *sortingAccumulator) add(i int32, val float64) {
	if !a.seen[i] {
		a.seen[i] = true
		a.touched = append(a.touched, i)
	}
	a.dense[i] += val
}

func (a *sortingAccumulator) sumInto(dst *Vector) *Vector {
	slices.Sort(a.touched)
	dst.Reset(a.dim)
	for _, i := range a.touched {
		if v := a.dense[i]; v != 0 {
			dst.Index = append(dst.Index, i)
			dst.Value = append(dst.Value, v)
		}
		a.dense[i] = 0
		a.seen[i] = false
	}
	a.touched = a.touched[:0]
	return dst
}

// reduceInputs draws a fan-in for dimension dim: three random vectors that
// overlap each other and sit on every word and summary-word boundary below
// dim, then a vector and its negation on coordinates nothing else touches
// (those with i%7 == 5), whose sums cancel to exactly zero.
func reduceInputs(r *rand.Rand, dim int) []*Vector {
	edges := []int{0, 1, 62, 63, 64, 65, 127, 128, 4094, 4095, 4096, 4097, 8191, 8192, dim - 2, dim - 1}
	var vs []*Vector
	for range 3 {
		m := make(map[int32]float64)
		for _, e := range edges {
			if e >= 0 && e < dim && r.Intn(3) > 0 {
				m[int32(e)] = r.NormFloat64()
			}
		}
		for range min(dim, 60) {
			m[int32(r.Intn(dim))] = r.NormFloat64()
		}
		// A run of neighbours, so whole words fill up.
		for i, n := r.Intn(dim), r.Intn(150); n > 0 && i < dim; i, n = i+1, n-1 {
			m[int32(i)] = r.NormFloat64()
		}
		for i := range m {
			if i%7 == 5 && int(i) != dim-1 {
				delete(m, i)
			}
		}
		vs = append(vs, FromMap(dim, m))
	}
	pos, neg := NewVector(dim, 0), NewVector(dim, 0)
	for i := 5; i < dim-1; i += 7 * (1 + r.Intn(1+dim/140)) {
		v := r.NormFloat64()
		pos.Append(int32(i), v)
		neg.Append(int32(i), -v)
	}
	return append(vs, pos, neg)
}

func sameVector(a, b *Vector) bool {
	return a.Dim == b.Dim && slices.Equal(a.Index, b.Index) && sameBits(a.Value, b.Value)
}

// requireClean fails unless acc is empty all the way out to its capacity:
// the state every Sum, SumInto and Reset must leave, and what lets Reset
// re-slice instead of clearing.
func requireClean(t *testing.T, acc *Accumulator, when string) {
	t.Helper()
	s := &acc.touched
	if len(acc.dense) != acc.dim || len(s.words) != (acc.dim+63)/64 || len(s.summary) != (len(s.words)+63)/64 {
		t.Fatalf("%s: dim %d but %d dense cells, %d words, %d summary words", when, acc.dim, len(acc.dense), len(s.words), len(s.summary))
	}
	for i, v := range acc.dense[:cap(acc.dense)] {
		if math.Float64bits(v) != 0 {
			t.Fatalf("%s: dense[%d] = %v left behind (dim %d)", when, i, v, acc.dim)
		}
	}
	for w, word := range s.words[:cap(s.words)] {
		if word != 0 {
			t.Fatalf("%s: words[%d] = %#x left behind (dim %d)", when, w, word, acc.dim)
		}
	}
	for w, word := range s.summary[:cap(s.summary)] {
		if word != 0 {
			t.Fatalf("%s: summary[%d] = %#x left behind (dim %d)", when, w, word, acc.dim)
		}
	}
}

// checkAgainstSorting drives acc, already at dimension dim, through Add,
// AddRange from a non-zero base and the allocating Sum, each
// against the sorting reference, bit for bit.
func checkAgainstSorting(t *testing.T, r *rand.Rand, acc *Accumulator, dim int) {
	t.Helper()
	ref := newSortingAccumulator(dim)
	got, want := new(Vector), new(Vector)
	compare := func(how string, got *Vector) {
		t.Helper()
		marked := len(ref.touched)
		if ref.sumInto(want); !sameVector(got, want) {
			t.Fatalf("dim %d, %s: sum differs from the sorting reference\ngot  %v %v\nwant %v %v",
				dim, how, got.Index, got.Value, want.Index, want.Value)
		}
		if err := got.Check(); err != nil {
			t.Fatalf("dim %d, %s: %v", dim, how, err)
		}
		if dim > 6 && want.NNZ() == marked {
			t.Fatalf("dim %d, %s: no sum cancelled to zero; the inputs do not test the drop", dim, how)
		}
		requireClean(t, acc, how)
	}

	ins := reduceInputs(r, dim)
	for _, v := range ins {
		acc.Add(v)
		for k, i := range v.Index {
			ref.add(i, v.Value[k])
		}
	}
	compare("Add", acc.SumInto(got))

	// The same block sitting at [base, base+dim) of a wider vector, with
	// entries on both sides that are not the block's.
	const base = 1000
	for _, v := range reduceInputs(r, dim) {
		g := NewVector(base+dim+10, 0)
		g.Append(3, 1)
		g.Append(base-1, 1)
		for k, i := range v.Index {
			g.Append(i+base, v.Value[k])
			ref.add(i, v.Value[k])
		}
		g.Append(int32(base+dim), 1)
		from, to := g.Range(base, base+dim)
		acc.AddRange(g, from, to, base)
	}
	compare("AddRange", acc.SumInto(got))

	// The allocating Sum sizes its result by the marked count exactly:
	// append growth here was enough garbage to move a 64-rank run's peak RSS.
	for _, v := range ins {
		acc.Add(v)
		for k, i := range v.Index {
			ref.add(i, v.Value[k])
		}
	}
	marked := len(ref.touched)
	sum := acc.Sum()
	if cap(sum.Index) != marked || cap(sum.Value) != marked {
		t.Fatalf("dim %d: Sum allocated %d/%d entries for %d marked coordinates", dim, cap(sum.Index), cap(sum.Value), marked)
	}
	compare("Sum", sum)
}

func TestAccumulatorMatchesSortingReference(t *testing.T) {
	r := rand.New(rand.NewSource(27))
	// One accumulator travels through every dimension by Reset — growing,
	// then shrinking and regrowing inside its capacity — beside a fresh one
	// per dimension.
	travelling := NewAccumulator(0)
	for _, dim := range []int{1, 63, 64, 65, 4095, 4096, 4097, 27103, 1 << 20, 4097, 65, 27103} {
		checkAgainstSorting(t, r, NewAccumulator(dim), dim)

		travelling.Reset(dim)
		requireClean(t, travelling, "Reset from the previous dimension")
		checkAgainstSorting(t, r, travelling, dim)

		// An aborted use: entries added, never extracted. The next Reset —
		// to the same, a smaller and a larger dimension inside the capacity —
		// must scrub them.
		for _, to := range []int{dim, dim/2 + 1, dim} {
			for _, v := range reduceInputs(r, travelling.dim) {
				travelling.Add(v)
			}
			travelling.Reset(to)
			requireClean(t, travelling, "Reset after an aborted use")
			checkAgainstSorting(t, r, travelling, to)
		}
	}
}

func TestIndexSet(t *testing.T) {
	r := rand.New(rand.NewSource(28))
	var s IndexSet
	for _, n := range []int{0, 1, 64, 65, 4096, 4097, 1 << 18, 300} {
		s.Reset(n)
		var want []int32
		for range min(n, 500) {
			i := int32(r.Intn(n))
			s.Mark(i)
			s.Mark(i) // marking twice is marking once
			want = append(want, i)
		}
		slices.Sort(want)
		want = slices.Compact(want)
		if s.Len() != len(want) {
			t.Fatalf("n %d: Len = %d, want %d", n, s.Len(), len(want))
		}
		var got []int32
		for w, word := s.TakeWord(0); w >= 0; w, word = s.TakeWord(w + 1) {
			for ; word != 0; word &= word - 1 {
				got = append(got, int32(w<<6+bits.TrailingZeros64(word)))
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("n %d: drained %v, want %v", n, got, want)
		}
		if s.Len() != 0 {
			t.Fatalf("n %d: %d members left after a full drain", n, s.Len())
		}
		for _, m := range want {
			s.Mark(m) // the same set again, drained into a slice
		}
		if got := s.Drain([]int32{-1}); !slices.Equal(got, append([]int32{-1}, want...)) || s.Len() != 0 {
			t.Fatalf("n %d: Drain appended %v and left %d members, want %v after -1 and none", n, got, s.Len(), want)
		}
	}

	// TakeWord starts at the word it is given, inside a summary word and
	// across one, and leaves earlier words alone.
	s.Reset(1 << 14)
	for _, w := range []int{0, 1, 63, 64, 130} {
		s.Mark(int32(w<<6 + w%7))
	}
	for _, c := range []struct{ from, want int }{{1, 1}, {2, 63}, {64, 64}, {66, 130}, {131, -1}, {1 << 20, -1}} {
		w, word := s.TakeWord(c.from)
		if w != c.want || (w >= 0 && word != 1<<(w%7)) {
			t.Fatalf("TakeWord(%d) = word %d (%#x), want word %d", c.from, w, word, c.want)
		}
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d after taking every word but the first", s.Len())
	}
	// Reset drops what is left, whatever the new size.
	s.Reset(10)
	if w, _ := s.TakeWord(0); w != -1 || s.Len() != 0 {
		t.Fatal("Reset left a member behind")
	}
}
