package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// zipfS and zipfImax span the skews the presets and the benchmark use, the
// near-1 and steep extremes, and dimensions below, at and across the head.
var (
	zipfS    = []float64{1.0001, 1.01, 1.15, 1.2, 1.3, 1.4, 2, 3, 7}
	zipfImax = []uint64{0, 1, 2, 10, 255, 256, 511, 15999, 27102, 1355190}
)

// zipfMatches draws n variates from newZipf and from math/rand's Zipf on
// two generators seeded alike, and reports the first difference, or a
// difference in how much of the generator the two consumed.
func zipfMatches(s float64, imax uint64, seed int64, n int) error {
	ra, rb := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	want, got := rand.NewZipf(ra, s, 1, imax), newZipf(rb, s, imax)
	for i := 0; i < n; i++ {
		if w, g := want.Uint64(), got.Uint64(); w != g {
			return fmt.Errorf("s %v imax %d seed %d: draw %d is %d, math/rand's is %d", s, imax, seed, i, g, w)
		}
	}
	if ra.Int63() != rb.Int63() {
		return fmt.Errorf("s %v imax %d seed %d: the two samplers consumed different streams", s, imax, seed)
	}
	return nil
}

// TestZipfMatchesMathRand holds the table-driven sampler to math/rand's
// Zipf itself, draw for draw.
func TestZipfMatchesMathRand(t *testing.T) {
	for i, s := range zipfS {
		t.Run(fmt.Sprint("s=", s), func(t *testing.T) {
			t.Parallel()
			for j, imax := range zipfImax {
				if err := zipfMatches(s, imax, int64(100*i+j), 300_000); err != nil {
					t.Error(err)
				}
			}
		})
	}
}

// TestZipfHeadAtThresholds: within ±2000 ulps of every threshold of the
// head table, and within ±100 ulps of the edges of every guard band, each
// float64 ur decides the same (k, accept) as the Exp/Log path, and the
// table does decide on the outer side of the band edges.
func TestZipfHeadAtThresholds(t *testing.T) {
	for _, s := range zipfS {
		t.Run(fmt.Sprint("s=", s), func(t *testing.T) {
			t.Parallel()
			for _, imax := range zipfImax {
				headAtThresholds(t, s, imax)
			}
		})
	}
}

func headAtThresholds(t *testing.T, s float64, imax uint64) {
	z := newZipf(nil, s, imax)
	decided := 0
	check := func(c float64, span int64) {
		for d := -span; d <= span; d++ {
			ur := math.Float64frombits(uint64(int64(math.Float64bits(c)) + d))
			k, accept, ok := z.head(ur)
			if !ok {
				continue
			}
			decided++
			if wk, wa := z.exact(ur); k != wk || accept != wa {
				t.Fatalf("s %v imax %d ur %v: the table decides (%d, %v), the Exp/Log path (%d, %v)", s, imax, ur, k, accept, wk, wa)
			}
		}
	}
	for k, e := range z.rank {
		check(z.h(float64(k)+0.5), 2000)
		check(z.h(float64(k)-z.s), 2000)
		for _, edge := range []float64{e.lo, e.hi, e.acc, e.rej} {
			check(edge, 100)
		}
	}
	if len(z.rank) > 0 && decided == 0 {
		t.Errorf("s %v imax %d: the table decided nothing next to its guard bands", s, imax)
	}
}

// TestZipfHeadShare: at the news20 presets' skew the table, not the
// Exp/Log path, resolves the great majority of draws.
func TestZipfHeadShare(t *testing.T) {
	z := newZipf(nil, 1.3, 27102)
	if len(z.rank) != zipfHead {
		t.Fatalf("head table holds %d ranks, want %d", len(z.rank), zipfHead)
	}
	r := rand.New(rand.NewSource(1))
	const n = 100_000
	hits := 0
	for i := 0; i < n; i++ {
		if _, _, ok := z.head(z.hxm + r.Float64()*z.hx0minusHxm); ok {
			hits++
		}
	}
	if share := float64(hits) / n; share < 0.85 {
		t.Fatalf("the table resolves %.3f of draws at s = 1.3, want ≥ 0.85", share)
	}
}

// FuzzZipfMatchesMathRand holds the sampler to math/rand's Zipf for any
// finite s > 1, any imax and any seed.
func FuzzZipfMatchesMathRand(f *testing.F) {
	for i, s := range zipfS {
		f.Add(s, zipfImax[i], int64(i))
	}
	f.Add(math.Nextafter(1, 2), uint64(math.MaxUint64), int64(-1))
	f.Add(1e6, uint64(5), int64(7))
	f.Fuzz(func(t *testing.T, s float64, imax uint64, seed int64) {
		if !(s > 1) || math.IsInf(s, 1) {
			t.Skip("rand.NewZipf needs a finite s > 1")
		}
		if err := zipfMatches(s, imax, seed, 2000); err != nil {
			t.Fatal(err)
		}
	})
}
