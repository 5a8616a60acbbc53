// The aggregator: the statistic a consensus reduce computes, and the one
// combine step that computes it. The mean is a sum the caller divides; a
// robust statistic (trimmed mean, coordinate median) is not associative —
// median(median(a,b), c) is not median(a,b,c) — so it cannot ride a pairwise
// schedule (ring). It CAN sit wherever all contributions for a coordinate
// range meet before redistribution: a PSR block owner, a shard block owner,
// the Reduce root, the star master, the WLG Group Generator. Those schedules
// are written once (workspace.go, sharded.go) and call combine below; this
// file moves no messages.
//
// Scaling contract: combine writes the member-order sum for the mean and
// center × n for the robust kinds, where n is the contributor count the
// downstream consensus update divides by (group size for the replicated
// schedules, the per-block subscriber count for the sharded one). Dividing
// by n recovers the statistic either way, so callers run identical
// post-reduce code. The mean is NOT computed as (Σ/n)×n: that round-trips
// through float division and Σ does not.
package collective

import (
	"fmt"
	"math/bits"
	"slices"

	"psrahgadmm/internal/sparse"
)

// Agg selects the aggregation statistic for a consensus reduce.
type Agg uint8

const (
	// AggMean is the plain sum-then-divide mean.
	AggMean Agg = iota
	// AggTrimmedMean drops the TrimF smallest and TrimF largest
	// contributions per coordinate and averages the rest.
	AggTrimmedMean
	// AggMedian takes the per-coordinate median.
	AggMedian
)

// Aggregator names as they appear in configs and CLI flags.
const (
	AggMeanName        = "mean"
	AggTrimmedMeanName = "trimmed-mean"
	AggMedianName      = "coordinate-median"
)

// String returns the config-facing name.
func (a Agg) String() string {
	switch a {
	case AggTrimmedMean:
		return AggTrimmedMeanName
	case AggMedian:
		return AggMedianName
	default:
		return AggMeanName
	}
}

// ParseAgg maps a config name to an Agg. The empty string is the mean (the
// default aggregator).
func ParseAgg(name string) (Agg, error) {
	switch name {
	case "", AggMeanName:
		return AggMean, nil
	case AggTrimmedMeanName:
		return AggTrimmedMean, nil
	case AggMedianName:
		return AggMedian, nil
	}
	return AggMean, fmt.Errorf("collective: unknown aggregator %q (want %s, %s, or %s)",
		name, AggMeanName, AggTrimmedMeanName, AggMedianName)
}

// AggSpec is a fully-resolved aggregator choice. The zero value is the
// mean.
type AggSpec struct {
	Kind Agg
	// TrimF is the per-side trim count for AggTrimmedMean: the f in
	// "tolerates f Byzantine contributors". Clamped at combine time to
	// (n-1)/2 so at least one value survives the trim.
	TrimF int
}

// ResolveAgg turns a configured aggregator name and trim count into a
// spec: the empty name is the mean, and the trimmed mean's TrimF defaults
// to 1.
func ResolveAgg(name string, trimF int) (AggSpec, error) {
	kind, err := ParseAgg(name)
	if err != nil {
		return AggSpec{}, err
	}
	if trimF < 0 {
		return AggSpec{}, fmt.Errorf("collective: TrimF must be non-negative, got %d", trimF)
	}
	if kind == AggTrimmedMean && trimF == 0 {
		trimF = 1
	}
	return AggSpec{Kind: kind, TrimF: trimF}, nil
}

// Robust reports whether the spec selects a non-mean statistic.
func (s AggSpec) Robust() bool { return s.Kind != AggMean }

// Tolerance returns how many faulty contributors among n the statistic
// out-votes: TrimF for the trimmed mean, a strict minority for the median,
// and -1 for the mean (which tolerates none and enforces no bound). A spec
// fits a combine point of fan-in n when 2·Tolerance(n) < n.
func (s AggSpec) Tolerance(n int) int {
	switch s.Kind {
	case AggTrimmedMean:
		return s.TrimF
	case AggMedian:
		return (n - 1) / 2
	}
	return -1
}

// robustCenter computes a robust spec's statistic — the median, or else
// the trimmed mean — over an ascending-sorted contributor slice.
// len(sorted) must be ≥ 1.
func robustCenter(sorted []float64, spec AggSpec) float64 {
	n := len(sorted)
	if spec.Kind == AggMedian {
		if n%2 == 1 {
			return sorted[n/2]
		}
		return 0.5 * (sorted[n/2-1] + sorted[n/2])
	}
	f := spec.TrimF
	if 2*f >= n {
		f = (n - 1) / 2
	}
	s := 0.0
	for _, x := range sorted[f : n-f] {
		s += x
	}
	return s / float64(n-2*f)
}

// robustScratch is the combine state for the robust kinds: a
// coordinate × contributor value matrix over the touched coordinates of one
// block. Like sparse.Accumulator it is reset-clean — rows are zeroed as
// they are extracted, and reset() scrubs what an aborted call left behind —
// so a warmed workspace combines without allocating.
type robustScratch struct {
	vals    []float64 // row-major: vals[coord*n + slot]
	touched sparse.IndexSet
	sortBuf []float64
	w, n    int // current block width and contributor-slot count
}

// reset re-targets the scratch for a block of the given width with n
// contributor slots. Rows are zeroed as they are extracted, so the matrix
// is already clean unless the dimensions changed (rows re-map onto
// different flat positions) or an aborted call left rows behind.
func (rb *robustScratch) reset(width, n int) {
	need := width * n
	if cap(rb.vals) < need {
		rb.vals = make([]float64, need)
	} else if width != rb.w || n != rb.n || rb.touched.Len() > 0 {
		clear(rb.vals[:need])
	}
	rb.vals = rb.vals[:need]
	rb.touched.Reset(width)
	if cap(rb.sortBuf) < n {
		rb.sortBuf = make([]float64, n)
	}
	rb.w, rb.n = width, n
}

// addSlot scatters v's entries at storage positions [from, to), re-based by
// -base, into contributor column slot. Coordinates a contributor does not
// store are implicit zeros — already present in the zeroed matrix — so a
// sparse contributor's missing entries still count toward the statistic.
func (rb *robustScratch) addSlot(slot int, v *sparse.Vector, from, to int, base int32) {
	n := rb.n
	for k := from; k < to; k++ {
		i := v.Index[k] - base
		if int(i) >= rb.w || i < 0 {
			panic("collective: robust addSlot index out of block range")
		}
		rb.touched.Mark(i)
		rb.vals[int(i)*n+slot] = v.Value[k]
	}
}

// finishInto extracts center × n per touched coordinate into dst (allocated
// when nil), zeroing the matrix rows behind it, and returns dst. Untouched
// coordinates are zero for every contributor, so their center is exactly 0
// and they are skipped — matching the mean's no-stored-zeros output.
func (rb *robustScratch) finishInto(dst *sparse.Vector, spec AggSpec) *sparse.Vector {
	if dst == nil {
		dst = sparse.NewVector(rb.w, rb.touched.Len())
	} else {
		dst.Reset(rb.w)
	}
	n := rb.n
	scale := float64(n)
	sb := rb.sortBuf[:n]
	for w, word := rb.touched.TakeWord(0); w >= 0; w, word = rb.touched.TakeWord(w + 1) {
		for ; word != 0; word &= word - 1 {
			i := w<<6 + bits.TrailingZeros64(word)
			row := rb.vals[i*n : i*n+n]
			copy(sb, row)
			clear(row)
			sortContributors(sb)
			if v := robustCenter(sb, spec) * scale; v != 0 {
				dst.Index = append(dst.Index, int32(i))
				dst.Value = append(dst.Value, v)
			}
		}
	}
	return dst
}

// maxInsertion is the longest slice slices.Sort hands to its insertion sort.
const maxInsertion = 12

// sortContributors sorts one coordinate's contributions ascending, bit for
// bit as slices.Sort does: NaNs first, then by <. Up to maxInsertion values
// slices.Sort is a stable insertion sort under that order, so this one —
// the same sort without the generic pdqsort entry — leaves ±0 and NaN
// payloads where slices.Sort leaves them. Longer slices go to slices.Sort.
func sortContributors(s []float64) {
	if len(s) > maxInsertion {
		slices.Sort(s)
		return
	}
	for i := 1; i < len(s); i++ {
		x, j := s[i], i
		for ; j > 0 && (x < s[j-1] || x != x && s[j-1] == s[j-1]); j-- {
			s[j] = s[j-1]
		}
		s[j] = x
	}
}

// emptyBlock resets (or allocates) dst as an empty block of the given
// width.
func emptyBlock(dst *sparse.Vector, width int) *sparse.Vector {
	if dst == nil {
		return sparse.NewVector(width, 0)
	}
	dst.Reset(width)
	return dst
}

// combine is the owner-side step of every owner-keyed schedule: it
// reduces the non-nil contributors' entries in the coordinate range
// [lo, lo+width) into dst (allocated when nil), re-based to the block, and
// returns it. The mean sums in slice order through ws.acc; the robust
// kinds write center × n over the n non-nil contributors. Both drop exact
// zeros.
func (ws *Workspace) combine(spec AggSpec, lo, width int, srcs []*sparse.Vector, dst *sparse.Vector) *sparse.Vector {
	if !spec.Robust() {
		ws.acc.Reset(width)
		for _, s := range srcs {
			if s != nil {
				from, to := s.Range(lo, lo+width)
				ws.acc.AddRange(s, from, to, int32(lo))
			}
		}
		return ws.acc.SumInto(dst)
	}
	n := 0
	for _, s := range srcs {
		if s != nil {
			n++
		}
	}
	if n == 0 {
		return emptyBlock(dst, width)
	}
	ws.rb.reset(width, n)
	slot := 0
	for _, s := range srcs {
		if s != nil {
			from, to := s.Range(lo, lo+width)
			ws.rb.addSlot(slot, s, from, to, int32(lo))
			slot++
		}
	}
	return ws.rb.finishInto(dst, spec)
}

// CombineSparse combines full-width sparse contributions that are already
// local — the star master's and the WLG Group Generator's combine point.
// nil entries in srcs are skipped; the output (the sum for the mean,
// center × n over the n non-nil contributors otherwise) is written into
// out (allocated when nil) and returned.
func (ws *Workspace) CombineSparse(spec AggSpec, dim int, srcs []*sparse.Vector, out *sparse.Vector) *sparse.Vector {
	for _, s := range srcs {
		if s != nil && s.Dim != dim {
			panic("collective: CombineSparse dimension mismatch")
		}
	}
	return ws.combine(spec, 0, dim, srcs, out)
}
