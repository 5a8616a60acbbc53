package main

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
)

// endToEndBounds is, per end-to-end metric, the share of the baseline's
// median by which it may get worse before a change counts as a regression.
// BENCHMARK.json states the same bounds. All eight are lower-is-better.
//
// The three counts repeat exactly for one seed, so compare holds them to
// equality; their bound only has to absorb the difference between seeds
// (a different shard-to-rank assignment moves a few bytes and, under SSP,
// an iteration or two).
var endToEndBounds = map[string]float64{
	"time_to_target_s":        0.25,
	"iters_to_target":         0.02,
	"iter_ms_p50":             0.25,
	"cpu_s_to_target":         0.25,
	"wire_bytes_to_target":    0.05,
	"resident_bytes_per_rank": 0.02,
	"peak_rss_mb":             0.25,
	"setup_s":                 0.25,
}

var exactMetrics = map[string]bool{
	"iters_to_target":         true,
	"wire_bytes_to_target":    true,
	"resident_bytes_per_rank": true,
}

// Verdicts of one (metric, workload) row.
const (
	regressed  = "regressed"
	unchanged  = "unchanged"
	improved   = "improved"
	unresolved = "unresolved"
)

// samplesOf returns the runs behind a metric: its samples, or the single
// value when it has none.
func samplesOf(m metric) []float64 {
	if len(m.Samples) > 0 {
		return m.Samples
	}
	return []float64{m.Value}
}

func spreadOf(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	return ratio(q3-q1, q2)
}

// verdict compares a lower-is-better metric's runs, a the baseline and b
// the change. A spread wider than the bound on either side makes the row
// unresolved — unless every run of one side beats every run of the other,
// which no amount of spread can explain away.
func verdict(a, b []float64, bound float64, exact bool) string {
	ma, mb := median(a), median(b)
	if exact {
		switch {
		case mb > ma:
			return regressed
		case mb < ma:
			return improved
		}
		return unchanged
	}
	if spreadOf(a) > bound || spreadOf(b) > bound {
		switch {
		case maxOf(b) < minOf(a):
			return improved
		case maxOf(a) < minOf(b):
			return regressed
		}
		return unresolved
	}
	switch {
	case mb > ma*(1+bound):
		return regressed
	case mb < ma*(1-bound):
		return improved
	}
	return unchanged
}

// compareSets prints one row per (workload, end-to-end metric) and returns
// how many rows regressed or stayed unresolved.
func compareSets(w io.Writer, a, b *resultSet) (nRegressed, nUnresolved int) {
	byName := make(map[string]*result)
	for _, r := range b.Workloads {
		byName[r.Workload] = r
	}
	names := make([]string, 0, len(endToEndBounds))
	for n := range endToEndBounds {
		names = append(names, n)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median [q1, q3]\tB median [q1, q3]\tchange\tbound\tverdict")
	count := func(v string) {
		switch v {
		case regressed:
			nRegressed++
		case unresolved:
			nUnresolved++
		}
	}
	for _, ra := range a.Workloads {
		rb, ok := byName[ra.Workload]
		if !ok {
			continue
		}
		// A higher share of failed repetitions is a regression whatever the
		// timings of the surviving ones say.
		fa, fb := ratio(float64(ra.Failed), float64(ra.Attempted)), ratio(float64(rb.Failed), float64(rb.Attempted))
		v := unchanged
		if fb > fa {
			v = regressed
		} else if fb < fa {
			v = improved
		}
		count(v)
		fmt.Fprintf(tw, "%s\tfailed/ops\t%d/%d\t%d/%d\t\t\t%s\n", ra.Workload, ra.Failed, ra.Attempted, rb.Failed, rb.Attempted, v)
		for _, n := range names {
			ma, oka := ra.Metrics[n]
			mb, okb := rb.Metrics[n]
			if !oka || !okb {
				continue
			}
			sa, sb := samplesOf(ma), samplesOf(mb)
			v := verdict(sa, sb, endToEndBounds[n], exactMetrics[n])
			count(v)
			a1, a2, a3 := quartiles(sa)
			b1, b2, b3 := quartiles(sb)
			bound := fmt.Sprintf("%.0f%%", 100*endToEndBounds[n])
			if exactMetrics[n] {
				bound = "exact"
			}
			fmt.Fprintf(tw, "%s\t%s (%s)\t%.6g [%.6g, %.6g]\t%.6g [%.6g, %.6g]\t%+.1f%%\t%s\t%s\n",
				ra.Workload, n, ma.Unit, a2, a1, a3, b2, b1, b3, 100*ratio(b2-a2, a2), bound, v)
		}
	}
	tw.Flush()
	return nRegressed, nUnresolved
}

// compareMain is `compare A.json B.json`: A is the baseline, B the change.
func compareMain(args []string, w io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: compare A.json B.json")
	}
	var a, b resultSet
	if err := readJSON(args[0], &a); err != nil {
		return err
	}
	if err := readJSON(args[1], &b); err != nil {
		return err
	}
	if a.Traced || b.Traced {
		return fmt.Errorf("compare reads measured result sets; per-layer numbers from a traced run have no bounds")
	}
	nr, nu := compareSets(w, &a, &b)
	fmt.Fprintf(w, "\n%d regressed, %d unresolved\n", nr, nu)
	if nr > 0 {
		return fmt.Errorf("%d rows regressed", nr)
	}
	return nil
}
