package sparse

import (
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

func TestAddScaledRow(t *testing.T) {
	m := NewCSR(0, 4, 0)
	m.AppendRow([]int32{1, 3}, []float64{2, -1})
	dst := []float64{1, 1, 1, 1}
	m.AddScaledRow(dst, 0, 3)
	if !vec.Equal(dst, []float64{1, 7, 1, -2}) {
		t.Fatalf("AddScaledRow = %v", dst)
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

func TestColumnDensity(t *testing.T) {
	m := NewCSR(0, 10, 0)
	m.AppendRow([]int32{0, 1, 9}, []float64{1, 1, 1})
	m.AppendRow([]int32{4, 5}, []float64{1, 1})
	counts := m.ColumnDensity(2)
	// Blocks: [0,5) and [5,10). Nonzero columns 0,1,9,4,5 → 3 in first, 2 in second.
	if counts[0] != 3 || counts[1] != 2 {
		t.Fatalf("ColumnDensity = %v", counts)
	}
	total := 0
	for _, c := range m.ColumnDensity(3) {
		total += c
	}
	if total != m.NNZ() {
		t.Fatalf("ColumnDensity total %d != nnz %d", total, m.NNZ())
	}
}

func TestColumnDensityMatchesChunkOf(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		cols := r.Intn(50) + 2
		p := r.Intn(7) + 1
		m := randCSR(r, 8, cols, 0.3)
		counts := m.ColumnDensity(p)
		want := make([]int, p)
		for _, c := range m.ColIdx {
			want[vec.ChunkOf(cols, p, int(c))]++
		}
		for i := range want {
			if counts[i] != want[i] {
				t.Fatalf("ColumnDensity[%d] = %d, want %d", i, counts[i], want[i])
			}
		}
	}
}

func BenchmarkMulVec(b *testing.B) {
	r := rand.New(rand.NewSource(24))
	m := randCSR(r, 500, 2000, 0.02)
	x := make([]float64, 2000)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	dst := make([]float64, 500)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.MulVec(dst, x)
	}
}

func BenchmarkMulTransVec(b *testing.B) {
	r := rand.New(rand.NewSource(25))
	m := randCSR(r, 500, 2000, 0.02)
	y := make([]float64, 500)
	for i := range y {
		y[i] = r.NormFloat64()
	}
	dst := make([]float64, 2000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.MulTransVec(dst, y)
	}
}
