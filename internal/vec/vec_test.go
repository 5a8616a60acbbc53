package vec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	diff := math.Abs(a - b)
	if diff <= tol {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= tol*scale
}

func randVec(r *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = r.NormFloat64()
	}
	return v
}

func TestDot(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, -5, 6}
	if got := Dot(a, b); got != 1*4-2*5+3*6 {
		t.Fatalf("Dot = %v, want 12", got)
	}
	if got := Dot(nil, nil); got != 0 {
		t.Fatalf("Dot(nil,nil) = %v, want 0", got)
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestAxpy(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{10, 20, 30}
	Axpy(2, x, y)
	want := []float64{12, 24, 36}
	if !Equal(y, want) {
		t.Fatalf("Axpy = %v, want %v", y, want)
	}
}

func TestAxpyZeroAlphaNoop(t *testing.T) {
	x := []float64{1, 2}
	y := []float64{3, 4}
	Axpy(0, x, y)
	if !Equal(y, []float64{3, 4}) {
		t.Fatalf("Axpy(0,...) modified y: %v", y)
	}
}

func TestScale(t *testing.T) {
	x := []float64{1, -2, 4}
	Scale(0.5, x)
	if !Equal(x, []float64{0.5, -1, 2}) {
		t.Fatalf("Scale = %v", x)
	}
}

func TestAddInto(t *testing.T) {
	a := []float64{1, 2}
	dst := []float64{2, 3}
	AddInto(dst, a)
	if !Equal(dst, []float64{3, 5}) {
		t.Fatalf("AddInto = %v", dst)
	}
}

func TestNorms(t *testing.T) {
	x := []float64{3, -4}
	if got := Nrm2(x); !almostEq(got, 5, 1e-15) {
		t.Fatalf("Nrm2 = %v", got)
	}
	if got := Nrm2Sq(x); got != 25 {
		t.Fatalf("Nrm2Sq = %v", got)
	}
	if got := Nrm1(x); got != 7 {
		t.Fatalf("Nrm1 = %v", got)
	}
	if got := NrmInf(x); got != 4 {
		t.Fatalf("NrmInf = %v", got)
	}
	if got := Nrm2(nil); got != 0 {
		t.Fatalf("Nrm2(nil) = %v", got)
	}
}

func TestNrm2Overflow(t *testing.T) {
	// Naive sum-of-squares overflows; the scaled algorithm must not.
	big := math.MaxFloat64 / 4
	x := []float64{big, big}
	got := Nrm2(x)
	want := big * math.Sqrt2
	if !almostEq(got, want, 1e-14) {
		t.Fatalf("Nrm2 overflow-guard: got %v want %v", got, want)
	}
}

// A NaN entry never raises the running scale, so a vector whose non-zero
// entries are all NaN used to come back with norm 0 — "converged" to any
// caller that tests a gradient norm.
func TestNrm2PropagatesNaN(t *testing.T) {
	nan := math.NaN()
	for _, x := range [][]float64{{nan}, {nan, 0}, {nan, nan}, {nan, 1}, {1, nan}, {0, nan, 0}} {
		if got := Nrm2(x); !math.IsNaN(got) {
			t.Errorf("Nrm2(%v) = %v, want NaN", x, got)
		}
	}
	for _, x := range [][]float64{nil, {}, {0}, {0, 0, 0}, {math.Copysign(0, -1)}} {
		if got := Nrm2(x); got != 0 || math.Signbit(got) {
			t.Errorf("Nrm2(%v) = %v, want 0", x, got)
		}
	}
}

func TestDistSq(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{2, 0, 3}
	if got := DistSq(a, b); got != 1+4 {
		t.Fatalf("DistSq = %v", got)
	}
}

func TestZeroFillClone(t *testing.T) {
	x := []float64{1, 2, 3}
	c := Clone(x)
	Zero(x)
	if !Equal(x, []float64{0, 0, 0}) {
		t.Fatalf("Zero = %v", x)
	}
	if !Equal(c, []float64{1, 2, 3}) {
		t.Fatalf("Clone shares backing array")
	}
}

func TestWithinTol(t *testing.T) {
	a := []float64{1, 2}
	b := []float64{1.05, 2}
	if WithinTol(a, b, 0.01) {
		t.Fatal("WithinTol should fail at 0.01")
	}
	if !WithinTol(a, b, 0.1) {
		t.Fatal("WithinTol should pass at 0.1")
	}
	if WithinTol(a, []float64{1}, 1) {
		t.Fatal("WithinTol must reject length mismatch")
	}
}

func TestSoftThreshold(t *testing.T) {
	cases := []struct{ v, k, want float64 }{
		{5, 2, 3},
		{-5, 2, -3},
		{1, 2, 0},
		{-1, 2, 0},
		{2, 2, 0},
		{0, 0, 0},
		{3, 0, 3},
	}
	for _, c := range cases {
		if got := SoftThreshold(c.v, c.k); got != c.want {
			t.Errorf("SoftThreshold(%v,%v) = %v, want %v", c.v, c.k, got, c.want)
		}
	}
}

func TestCountNonzero(t *testing.T) {
	if got := CountNonzero([]float64{0, 1, 0, -2, 0}); got != 2 {
		t.Fatalf("CountNonzero = %d", got)
	}
}

func TestSplitBasic(t *testing.T) {
	chunks := Split(10, 3)
	want := []Chunk{{0, 4}, {4, 7}, {7, 10}}
	for i, c := range chunks {
		if c != want[i] {
			t.Fatalf("Split(10,3)[%d] = %+v, want %+v", i, c, want[i])
		}
	}
}

func TestSplitSmallerThanP(t *testing.T) {
	chunks := Split(2, 4)
	want := []Chunk{{0, 1}, {1, 2}, {2, 2}, {2, 2}}
	for i, c := range chunks {
		if c != want[i] {
			t.Fatalf("Split(2,4)[%d] = %+v, want %+v", i, c, want[i])
		}
	}
}

// Property: Split chunks tile [0,n) exactly, sizes differ by at most one.
func TestSplitProperties(t *testing.T) {
	f := func(nRaw, pRaw uint16) bool {
		n := int(nRaw % 5000)
		p := int(pRaw%64) + 1
		chunks := Split(n, p)
		if len(chunks) != p {
			return false
		}
		lo := 0
		minSize, maxSize := n+1, -1
		for _, c := range chunks {
			if c.Lo != lo || c.Hi < c.Lo {
				return false
			}
			size := c.Hi - c.Lo
			if size < minSize {
				minSize = size
			}
			if size > maxSize {
				maxSize = size
			}
			lo = c.Hi
		}
		if lo != n {
			return false
		}
		return maxSize-minSize <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: ChunkOf agrees with Split for every index.
func TestChunkOfMatchesSplit(t *testing.T) {
	f := func(nRaw, pRaw uint16) bool {
		n := int(nRaw%300) + 1
		p := int(pRaw%40) + 1
		chunks := Split(n, p)
		for idx := 0; idx < n; idx++ {
			ci := ChunkOf(n, p, idx)
			if idx < chunks[ci].Lo || idx >= chunks[ci].Hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Dot is symmetric and bilinear within float tolerance.
func TestDotProperties(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := r.Intn(64) + 1
		a, b := randVec(r, n), randVec(r, n)
		if !almostEq(Dot(a, b), Dot(b, a), 1e-12) {
			t.Fatal("Dot not symmetric")
		}
		alpha := r.NormFloat64()
		scaled := Clone(a)
		Scale(alpha, scaled)
		if !almostEq(Dot(scaled, b), alpha*Dot(a, b), 1e-10) {
			t.Fatal("Dot not homogeneous")
		}
	}
}

// Property: soft threshold is a contraction: |S(a,k)-S(b,k)| <= |a-b|.
func TestSoftThresholdContraction(t *testing.T) {
	f := func(a, b float64, kRaw float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(kRaw) ||
			math.IsInf(a, 0) || math.IsInf(b, 0) || math.IsInf(kRaw, 0) {
			return true
		}
		k := math.Abs(kRaw)
		return math.Abs(SoftThreshold(a, k)-SoftThreshold(b, k)) <= math.Abs(a-b)*(1+1e-12)+1e-300
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDot(b *testing.B) {
	r := rand.New(rand.NewSource(2))
	x := randVec(r, 4096)
	y := randVec(r, 4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Dot(x, y)
	}
}

func BenchmarkAxpy(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	x := randVec(r, 4096)
	y := randVec(r, 4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Axpy(0.5, x, y)
	}
}

func TestSplitInto(t *testing.T) {
	dst := make([]Chunk, 0, 16)
	for n := 0; n < 40; n++ {
		for p := 1; p < 9; p++ {
			want := Split(n, p)
			dst = SplitInto(dst, n, p)
			if len(dst) != len(want) {
				t.Fatalf("SplitInto(%d,%d) len %d want %d", n, p, len(dst), len(want))
			}
			for i := range want {
				if dst[i] != want[i] {
					t.Fatalf("SplitInto(%d,%d)[%d] = %v want %v", n, p, i, dst[i], want[i])
				}
			}
		}
	}
	if n := testing.AllocsPerRun(50, func() { dst = SplitInto(dst, 1000, 8) }); n > 0 {
		t.Errorf("warmed SplitInto allocates %.1f, want 0", n)
	}
}
