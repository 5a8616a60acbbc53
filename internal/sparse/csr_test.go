package sparse

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"psrahgadmm/internal/vec"
)

// denseOf expands a CSR into a [][]float64 for reference computations.
func denseOf(m *CSR) [][]float64 {
	out := make([][]float64, m.NRows)
	for r := 0; r < m.NRows; r++ {
		out[r] = make([]float64, m.NCols)
		cols, vals := m.Row(r)
		for k, c := range cols {
			out[r][c] = vals[k]
		}
	}
	return out
}

func randCSR(r *rand.Rand, rows, cols int, density float64) *CSR {
	m := NewCSR(0, cols, 0)
	m.NRows = 0
	for i := 0; i < rows; i++ {
		var cs []int32
		var vs []float64
		for c := 0; c < cols; c++ {
			if r.Float64() < density {
				cs = append(cs, int32(c))
				vs = append(vs, r.NormFloat64())
			}
		}
		m.AppendRow(cs, vs)
	}
	return m
}

func TestAppendRowAndCheck(t *testing.T) {
	m := NewCSR(0, 5, 0)
	m.AppendRow([]int32{0, 3}, []float64{1, 2})
	m.AppendRow(nil, nil)
	m.AppendRow([]int32{4}, []float64{-1})
	if m.NRows != 3 {
		t.Fatalf("NRows = %d", m.NRows)
	}
	if m.NNZ() != 3 {
		t.Fatalf("NNZ = %d", m.NNZ())
	}
	if err := m.Check(); err != nil {
		t.Fatal(err)
	}
	cols, vals := m.Row(2)
	if len(cols) != 1 || cols[0] != 4 || vals[0] != -1 {
		t.Fatalf("Row(2) = %v %v", cols, vals)
	}
	if m.RowNNZ(1) != 0 {
		t.Fatalf("RowNNZ(1) = %d", m.RowNNZ(1))
	}
}

func TestAppendRowRejectsBadColumns(t *testing.T) {
	m := NewCSR(0, 3, 0)
	for _, bad := range [][]int32{{1, 1}, {2, 0}, {5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for columns %v", bad)
				}
			}()
			vals := make([]float64, len(bad))
			m.AppendRow(bad, vals)
		}()
	}
}

func TestMulVecAgainstDense(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	for trial := 0; trial < 20; trial++ {
		rows, cols := r.Intn(20)+1, r.Intn(30)+1
		m := randCSR(r, rows, cols, 0.3)
		x := make([]float64, cols)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		got := make([]float64, rows)
		m.MulVec(got, x)
		ref := denseOf(m)
		for i := 0; i < rows; i++ {
			want := vec.Dot(ref[i], x)
			if d := got[i] - want; d > 1e-12 || d < -1e-12 {
				t.Fatalf("MulVec row %d: %v vs %v", i, got[i], want)
			}
			if d := m.RowDot(i, x) - want; d > 1e-12 || d < -1e-12 {
				t.Fatalf("RowDot row %d mismatch", i)
			}
		}
	}
}

func TestMulTransVecAgainstDense(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		rows, cols := r.Intn(20)+1, r.Intn(30)+1
		m := randCSR(r, rows, cols, 0.3)
		y := make([]float64, rows)
		for i := range y {
			y[i] = r.NormFloat64()
		}
		got := make([]float64, cols)
		m.MulTransVec(got, y)
		want := make([]float64, cols)
		ref := denseOf(m)
		for i := 0; i < rows; i++ {
			vec.Axpy(y[i], ref[i], want)
		}
		if !vec.WithinTol(got, want, 1e-10) {
			t.Fatal("MulTransVec mismatch")
		}
	}
}

func TestRowSlice(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	m := randCSR(r, 10, 8, 0.4)
	s := m.RowSlice(3, 7)
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
	if s.NRows != 4 || s.NCols != 8 {
		t.Fatalf("RowSlice shape = %dx%d", s.NRows, s.NCols)
	}
	for r2 := 0; r2 < 4; r2++ {
		gc, gv := s.Row(r2)
		wc, wv := m.Row(r2 + 3)
		if len(gc) != len(wc) {
			t.Fatalf("row %d nnz mismatch", r2)
		}
		for k := range gc {
			if gc[k] != wc[k] || gv[k] != wv[k] {
				t.Fatalf("row %d entry %d mismatch", r2, k)
			}
		}
	}
	// Mutating the slice must not affect the parent.
	if s.NNZ() > 0 {
		s.Val[0] += 100
		if err := m.Check(); err != nil {
			t.Fatal(err)
		}
		_, pv := m.Row(3)
		if len(pv) > 0 && pv[0] == s.Val[0] {
			t.Fatal("RowSlice shares storage with parent")
		}
	}
}

// mapCompact is core.worker.buildActive's compaction loop as it stood before
// CompactColumns replaced it (two map builds and a sort per rank), kept as
// the reference the goldens were recorded against.
func mapCompact(src *CSR) ([]int32, *CSR) {
	seen := make(map[int32]struct{})
	for _, c := range src.ColIdx {
		seen[c] = struct{}{}
	}
	active := make([]int32, 0, len(seen))
	for c := range seen {
		active = append(active, c)
	}
	sort.Slice(active, func(a, b int) bool { return active[a] < active[b] })
	remap := make(map[int32]int32, len(active))
	for i, c := range active {
		remap[c] = int32(i)
	}
	compact := &CSR{
		NRows:  src.NRows,
		NCols:  len(active),
		RowPtr: src.RowPtr,
		ColIdx: make([]int32, len(src.ColIdx)),
		Val:    src.Val,
	}
	for k, c := range src.ColIdx {
		compact.ColIdx[k] = remap[c]
	}
	return active, compact
}

func TestCompactColumnsMatchesMapLoop(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	// A rank's input is a RowSlice of the training matrix: wide, a few
	// percent of the columns touched, some rows empty.
	wide := randCSR(r, 64, 900, 0.01)
	cases := map[string]*CSR{
		"no rows":         NewCSR(0, 7, 0),
		"no columns":      randCSR(r, 3, 0, 0),
		"all rows empty":  randCSR(r, 5, 9, 0),
		"every column":    randCSR(r, 30, 6, 0.9),
		"first and last":  wide.RowSlice(0, 1),
		"trailing unused": randCSR(r, 8, 40, 0.05),
	}
	for i := 0; i < 8; i++ {
		cases["shard "+string(rune('0'+i))] = wide.RowSlice(8*i, 8*i+8)
	}
	for name, m := range cases {
		wantActive, want := mapCompact(m)
		active, compact := m.CompactColumns()
		if err := compact.Check(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !slices.Equal(active, wantActive) {
			t.Fatalf("%s: active = %v, want %v", name, active, wantActive)
		}
		if compact.NRows != want.NRows || compact.NCols != want.NCols ||
			!slices.Equal(compact.RowPtr, want.RowPtr) ||
			!slices.Equal(compact.ColIdx, want.ColIdx) ||
			!slices.Equal(compact.Val, want.Val) {
			t.Fatalf("%s: compact matrix differs from the map-built one", name)
		}
		if m.NNZ() > 0 && (&compact.Val[0] != &m.Val[0] || &compact.RowPtr[0] != &m.RowPtr[0]) {
			t.Fatalf("%s: compact does not share RowPtr/Val with the receiver", name)
		}
		if (compact == m) != (len(active) == m.NCols) {
			t.Fatalf("%s: receiver returned as compact = %v with %d of %d columns touched",
				name, compact == m, len(active), m.NCols)
		}
	}
}

// The three kernels as they stood before they were rebuilt (one running sum
// per row, indexed through m): the arithmetic every golden history was
// recorded with, and the reference the rebuilt kernels must equal bit for
// bit.

func refRowDot(m *CSR, r int, x []float64) float64 {
	var s float64
	for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
		s += m.Val[k] * x[m.ColIdx[k]]
	}
	return s
}

func refMulVec(m *CSR, dst, x []float64) {
	for r := 0; r < m.NRows; r++ {
		var s float64
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			s += m.Val[k] * x[m.ColIdx[k]]
		}
		dst[r] = s
	}
}

func refMulTransVec(m *CSR, dst, y []float64) {
	for i := range dst {
		dst[i] = 0
	}
	for r := 0; r < m.NRows; r++ {
		yr := y[r]
		if yr == 0 {
			continue
		}
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			dst[m.ColIdx[k]] += m.Val[k] * yr
		}
	}
}

// awkward draws a float64 that is, one time in three, a value summation
// order and zero tests are sensitive to: ±0, a denormal, or something many
// orders of magnitude off the rest.
func awkward(r *rand.Rand) float64 {
	switch r.Intn(12) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.Float64frombits(uint64(r.Intn(1<<20) + 1)) // denormal
	case 3:
		return r.NormFloat64() * 1e12
	}
	return r.NormFloat64()
}

// csrWithRowLens builds a matrix whose row r holds rowLens[r] entries (capped
// at cols) at random columns.
func csrWithRowLens(r *rand.Rand, cols int, rowLens []int) *CSR {
	m := NewCSR(0, cols, 0)
	for _, n := range rowLens {
		cs := make([]int32, 0, n)
		for _, c := range r.Perm(cols)[:min(n, cols)] {
			cs = append(cs, int32(c))
		}
		slices.Sort(cs)
		vs := make([]float64, len(cs))
		for k := range vs {
			vs[k] = awkward(r)
		}
		m.AppendRow(cs, vs)
	}
	return m
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// checkKernelsMatchReference runs all three kernels and their references on
// m with awkward operands and reports the first difference in any bit.
func checkKernelsMatchReference(t *testing.T, r *rand.Rand, m *CSR) {
	t.Helper()
	if err := m.Check(); err != nil {
		t.Fatal(err)
	}
	x, y := make([]float64, m.NCols), make([]float64, m.NRows)
	for i := range x {
		x[i] = awkward(r)
	}
	for i := range y {
		y[i] = awkward(r)
	}
	got, want := make([]float64, m.NRows), make([]float64, m.NRows)
	m.MulVec(got, x)
	refMulVec(m, want, x)
	if !sameBits(got, want) {
		t.Fatalf("MulVec differs from the reference loop\nRowPtr %v\ngot  %v\nwant %v", m.RowPtr, got, want)
	}
	for i := range want {
		if g, w := m.RowDot(i, x), refRowDot(m, i, x); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("RowDot(%d) = %v, reference %v", i, g, w)
		}
	}
	// Stale contents of dst must not survive: MulTransVec overwrites.
	gotT, wantT := make([]float64, m.NCols), make([]float64, m.NCols)
	for i := range gotT {
		gotT[i] = math.NaN()
	}
	m.MulTransVec(gotT, y)
	refMulTransVec(m, wantT, y)
	if !sameBits(gotT, wantT) {
		t.Fatalf("MulTransVec differs from the reference loop\nRowPtr %v\ngot  %v\nwant %v", m.RowPtr, gotT, wantT)
	}
}

func TestCSRKernelsMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(26))
	shapes := map[string][]int{
		"no rows":                  {},
		"one row":                  {7},
		"two rows":                 {7, 4},
		"three rows":               {3, 9, 5},
		"odd row count":            {5, 2, 8, 8, 1, 6, 3, 9, 4, 7, 2},
		"one empty row":            {0},
		"all rows empty":           {0, 0, 0, 0, 0},
		"empty first":              {0, 6, 3, 4},
		"empty middle":             {6, 3, 0, 0, 4, 2},
		"empty last":               {6, 3, 4, 0},
		"empty odd last":           {6, 3, 0},
		"empty beside a long row":  {0, 50, 50, 0, 0, 50, 50},
		"rows of length one":       {1, 1, 1, 1, 1},
		"length one beside long":   {1, 50, 50, 1, 1},
		"1:50 and 50:1 in a pair":  {1, 50, 50, 1, 2, 100, 100, 2},
		"equal lengths in a pair":  {9, 9, 30, 30},
		"long odd last row":        {2, 2, 60},
		"every column in each row": {64, 64, 64},
	}
	for name, rowLens := range shapes {
		for _, cols := range []int{1, 2, 64, 301} {
			t.Run(name, func(t *testing.T) {
				checkKernelsMatchReference(t, r, csrWithRowLens(r, cols, rowLens))
			})
		}
	}
	for trial := 0; trial < 300; trial++ {
		rowLens := make([]int, r.Intn(12))
		for i := range rowLens {
			// Mostly short rows, now and then one 50 times longer.
			rowLens[i] = r.Intn(5)
			if r.Intn(4) == 0 {
				rowLens[i] = r.Intn(200)
			}
		}
		checkKernelsMatchReference(t, r, csrWithRowLens(r, r.Intn(250)+1, rowLens))
	}
	// A row whose multiplier is ±0 is skipped, not multiplied through: only
	// a non-finite stored value can tell (Inf·0 = NaN), so no finite case
	// above holds MulTransVec to it.
	m := NewCSR(0, 2, 0)
	m.AppendRow([]int32{0, 1}, []float64{math.Inf(1), 1})
	m.AppendRow([]int32{0}, []float64{3})
	m.AppendRow([]int32{1}, []float64{math.Inf(-1)})
	got, want := make([]float64, 2), make([]float64, 2)
	y := []float64{0, 2, math.Copysign(0, -1)}
	m.MulTransVec(got, y)
	refMulTransVec(m, want, y)
	if !sameBits(got, want) || got[0] != 6 || got[1] != 0 {
		t.Fatalf("MulTransVec with zero multipliers on non-finite rows = %v, reference %v, want [6 0]", got, want)
	}
}

func FuzzCSRKernelsMatchReference(f *testing.F) {
	f.Add(uint8(0), uint16(1), int64(1))
	f.Add(uint8(1), uint16(1), int64(2))
	f.Add(uint8(2), uint16(50), int64(3))
	f.Add(uint8(3), uint16(50), int64(4))
	f.Add(uint8(41), uint16(1376), int64(5))
	f.Fuzz(func(t *testing.T, rows uint8, cols uint16, seed int64) {
		r := rand.New(rand.NewSource(seed))
		nc := int(cols)%2048 + 1
		rowLens := make([]int, int(rows)%48)
		for i := range rowLens {
			// Empty, single-entry, short and long rows, side by side.
			rowLens[i] = []int{0, 1, r.Intn(8), r.Intn(nc + 1)}[r.Intn(4)]
		}
		checkKernelsMatchReference(t, r, csrWithRowLens(r, nc, rowLens))
	})
}
