package dataset

import (
	"math"
	"math/rand"
)

// zipfHead is how many leading ranks the sampler resolves from its table
// (at s = 1.3, 87 % of draws land there). It is at most 256, so a guide
// entry fits a byte.
const zipfHead = 256

// zipfGuard is the relative distance from a table threshold inside which
// a draw is left to the Exp/Log path. The Exp/Log composition errs by a
// few ulps of ur, about 1e-15 relative, so the band is six orders of
// magnitude wider than any disagreement between the two paths.
const zipfGuard = 1e-9

// zipfTiny is the smallest threshold magnitude the table keeps: below it a
// threshold is near the subnormals, where a relative guard means nothing,
// and the table stops.
const zipfTiny = 0x1p-1000

// zipf draws k ∈ [0, imax] with P(k) ∝ (k+1)^−s. It is math/rand's Zipf
// with v = 1 (the rejection-inversion sampler of Hörmann and Derflinger),
// bit for bit: it reads the same r.Float64() stream and returns the same
// k for every one of it.
//
// A draw maps r to ur = hxm + r·(hx0 − hxm) and inverts h at ur. The head
// table turns that inversion into comparisons: k is the rank with
// h(k−½) ≤ ur < h(k+½), the first accept test k − x ≤ s is ur ≥ h(k−s),
// and the second test's right-hand side depends on k alone, so it is
// computed once per rank from the very expression the Exp/Log path uses.
// A draw in the tail, or within zipfGuard of any threshold, takes the
// Exp/Log path unchanged.
type zipf struct {
	r                        *rand.Rand
	q, oneminusQ, oneminusQ1 float64 // s, 1 − s, 1/(1 − s)
	hxm, hx0minusHxm, s      float64 // s is rand.Zipf's first-test bound, not the exponent

	// rank[k] holds rank k's guarded thresholds; a draw in bucket j of
	// (bottom, top) lies in a rank between guide[j] and guide[j+1].
	rank        []zipfRank
	guide       []uint8
	bottom, top float64
	scale       float64 // buckets per unit of ur
}

// zipfRank is one head rank's decision table.
type zipfRank struct {
	lo, hi   float64 // lo < ur < hi: the Exp/Log path returns this k
	acc, rej float64 // ur ≥ acc: the first test accepts; ur ≤ rej: it fails
	c        float64 // the second test accepts when ur ≥ c
}

func (z *zipf) h(x float64) float64 {
	return math.Exp(z.oneminusQ*math.Log(1+x)) * z.oneminusQ1
}

func (z *zipf) hinv(x float64) float64 {
	return math.Exp(z.oneminusQ1*math.Log(z.oneminusQ*x)) - 1
}

// newZipf mirrors rand.NewZipf(r, s, 1, imax) and builds the head table.
// It needs s > 1.
func newZipf(r *rand.Rand, s float64, imax uint64) *zipf {
	z := &zipf{r: r, q: s, oneminusQ: 1 - s}
	z.oneminusQ1 = 1 / z.oneminusQ
	z.hxm = z.h(float64(imax) + 0.5)
	// math/rand's exp(−s·log v) is exactly 1 at v = 1, for every finite s.
	z.hx0minusHxm = z.h(0.5) - 1 - z.hxm
	z.s = 1 - z.hinv(z.h(1.5)-math.Exp(-z.q*math.Log(2)))

	z.rank = make([]zipfRank, 0, zipfHead)
	below := guardUp(z.h(-0.5))
	for k := 0; k < zipfHead && uint64(k) <= imax; k++ {
		up := z.h(float64(k) + 0.5)
		t := z.h(float64(k) - z.s)
		if !usable(up) || !usable(below) {
			break
		}
		z.rank = append(z.rank, zipfRank{
			lo: below, hi: guardDown(up),
			acc: guardUp(t), rej: guardDown(t),
			c: up - math.Exp(-math.Log(float64(k)+1)*z.q),
		})
		below = guardUp(up)
	}
	if len(z.rank) == 0 {
		return z
	}
	z.bottom, z.top = z.rank[0].lo, z.rank[len(z.rank)-1].hi
	z.scale = float64(len(z.rank)) / (z.top - z.bottom)
	if !(z.bottom < z.top) || math.IsInf(z.scale, 0) {
		z.rank = nil
		z.bottom, z.top = 0, 0
		return z
	}
	// guide[j] is the first rank whose hi lies in a bucket at or above j:
	// every rank before it ends below bucket j, and a draw in bucket j ends
	// at or below guide[j+1].
	z.guide = make([]uint8, len(z.rank)+1)
	k := 0
	for j := range z.guide {
		for k < len(z.rank)-1 && z.bucket(z.rank[k].hi) < j {
			k++
		}
		z.guide[j] = uint8(k)
	}
	return z
}

// usable reports whether a threshold is finite and far enough from the
// subnormals for a relative guard.
func usable(t float64) bool { return math.Abs(t) >= zipfTiny && !math.IsInf(t, 0) }

func guardUp(t float64) float64   { return t + zipfGuard*math.Abs(t) }
func guardDown(t float64) float64 { return t - zipfGuard*math.Abs(t) }

func (z *zipf) bucket(ur float64) int { return int((ur - z.bottom) * z.scale) }

// Uint64 draws the next variate; it consumes r exactly as rand.Zipf does.
func (z *zipf) Uint64() uint64 {
	for {
		ur := z.hxm + z.r.Float64()*z.hx0minusHxm
		k, accept, ok := z.head(ur)
		if !ok {
			k, accept = z.exact(ur)
		}
		if accept {
			return k
		}
	}
}

// head decides a draw from the table: ok is false when ur lies in the
// tail or within zipfGuard of a threshold. Whichever rank the search
// lands on, the answer is the Exp/Log path's only if ur passes that
// rank's guarded bounds, so the search affects speed, never bits.
func (z *zipf) head(ur float64) (k uint64, accept, ok bool) {
	if !(z.bottom < ur && ur < z.top) {
		return 0, false, false
	}
	j := min(z.bucket(ur), len(z.rank)-1)
	i, n := int(z.guide[j]), int(z.guide[j+1])
	for i < n { // the first rank in [i, n] with ur < hi
		if m := int(uint(i+n) >> 1); ur >= z.rank[m].hi {
			i = m + 1
		} else {
			n = m
		}
	}
	e := &z.rank[i]
	switch {
	case !(e.lo < ur && ur < e.hi):
		return 0, false, false
	case ur >= e.acc:
		return uint64(i), true, true
	case ur <= e.rej:
		return uint64(i), ur >= e.c, true
	}
	return 0, false, false
}

// exact is one pass of rand.Zipf's loop body at ur, expression for
// expression.
func (z *zipf) exact(ur float64) (k uint64, accept bool) {
	x := z.hinv(ur)
	kf := math.Floor(x + 0.5)
	if kf-x <= z.s {
		return uint64(kf), true
	}
	return uint64(kf), ur >= z.h(kf+0.5)-math.Exp(-math.Log(kf+1)*z.q)
}
