package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// metric is one reported number. Samples, when present, are the per-
// repetition values the headline value is the median of; compare needs
// them to decide whether two result sets can be told apart.
type metric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples,omitempty"`
}

// result is one workload's outcome, measured (end-to-end metrics) or
// traced (per-layer metrics).
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Draw      int64             `json:"draw"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	KStar     int               `json:"kstar"`
	Metrics   map[string]metric `json:"metrics"`
	// Harness holds the harness's own costs and counts (bench.*) in a
	// measured run, where they are not metrics.
	Harness map[string]metric `json:"harness,omitempty"`
	Machine machineFacts      `json:"machine"`
}

// endToEndUnits lists the end-to-end metrics, all lower-is-better, with
// their units. BENCHMARK.json names the same eight.
var endToEndUnits = map[string]string{
	"time_to_target_s":        "s",
	"iters_to_target":         "count",
	"iter_ms_p50":             "ms",
	"cpu_s_to_target":         "s",
	"wire_bytes_to_target":    "bytes",
	"resident_bytes_per_rank": "bytes",
	"peak_rss_mb":             "MiB",
	"setup_s":                 "s",
}

func with(unit string, samples []float64) metric {
	return metric{Value: median(samples), Unit: unit, Samples: samples}
}

func one(unit string, v float64) metric { return metric{Value: v, Unit: unit} }

// endToEnd turns a timed window and the peak-RSS probes into the eight
// end-to-end metrics. Every time is divided by the speed factor the
// reference measured around it (reference.go); counts and bytes are not.
func endToEnd(m *measured, peakRSS float64) map[string]metric {
	var wall, cpu, gapMed, pooled []float64
	var wire, resident int64
	for _, s := range m.samples {
		wall = append(wall, s.wallS/s.speed)
		cpu = append(cpu, s.cpuS/s.speed)
		gapMed = append(gapMed, median(s.gapsMs)/s.speed)
		for _, g := range s.gapsMs {
			pooled = append(pooled, g/s.speed)
		}
		wire, resident = s.wireBytes, s.resident
	}
	e2e := func(name string, samples []float64) metric { return with(endToEndUnits[name], samples) }
	iter := e2e("iter_ms_p50", gapMed)
	iter.Value = median(pooled)
	return map[string]metric{
		"time_to_target_s":        e2e("time_to_target_s", wall),
		"iters_to_target":         e2e("iters_to_target", []float64{float64(m.kstar)}),
		"iter_ms_p50":             iter,
		"cpu_s_to_target":         e2e("cpu_s_to_target", cpu),
		"wire_bytes_to_target":    e2e("wire_bytes_to_target", []float64{float64(wire)}),
		"resident_bytes_per_rank": e2e("resident_bytes_per_rank", []float64{float64(resident)}),
		"peak_rss_mb":             e2e("peak_rss_mb", []float64{peakRSS}),
		"setup_s":                 e2e("setup_s", m.setupS),
	}
}

// printMetrics writes every metric by name with its unit, sorted.
func printMetrics(w io.Writer, title string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s\n", title)
	for _, n := range names {
		m := ms[n]
		extra := ""
		if len(m.Samples) > 1 {
			q1, _, q3 := quartiles(m.Samples)
			extra = fmt.Sprintf("  (n=%d, q1 %.6g, q3 %.6g)", len(m.Samples), q1, q3)
		}
		fmt.Fprintf(w, "  %-40s %14.6g %-6s%s\n", n, m.Value, m.Unit, extra)
	}
}

// driverLine is the contract's last line of standard output: exactly these
// keys, and per metric exactly value and unit.
func driverLine(r *result) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]mv, len(r.Metrics))}
	for n, m := range r.Metrics {
		out.Metrics[n] = mv{m.Value, m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(b)
}
