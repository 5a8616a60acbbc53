package main

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"net"
	"os"
	"regexp"
	"sort"
	"testing"
	"time"

	"psrahgadmm/internal/transport"
	"psrahgadmm/internal/wire"
)

// benchmarkFile is the part of BENCHMARK.json the tests hold the code to.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
		Bound      float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	var bf benchmarkFile
	if err := readJSON("../BENCHMARK.json", &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFileMatchesCode pins BENCHMARK.json to the tables the code
// measures and compares by: same workloads, same metrics, units and bounds.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	bf := readBenchmarkFile(t)
	ws := workloads(false)
	if len(bf.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(bf.Workloads), len(ws))
	}
	for i, w := range ws {
		if bf.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, bf.Workloads[i].Name, w.name)
		}
	}
	if len(bf.EndToEnd) != len(endToEndBounds) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the code %d", len(bf.EndToEnd), len(endToEndBounds))
	}
	for _, m := range bf.EndToEnd {
		if bound, ok := endToEndBounds[m.Name]; !ok || bound != m.Bound {
			t.Errorf("%s: BENCHMARK.json bound %v, code %v (known: %v)", m.Name, m.Bound, bound, ok)
		}
		if endToEndUnits[m.Name] != m.Unit {
			t.Errorf("%s: BENCHMARK.json unit %q, code %q", m.Name, m.Unit, endToEndUnits[m.Name])
		}
	}
	if len(bf.PerLayer) != len(perLayerUnits) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, the code %d", len(bf.PerLayer), len(perLayerUnits))
	}
	for _, m := range bf.PerLayer {
		if perLayerUnits[m.Name] != m.Unit {
			t.Errorf("%s: BENCHMARK.json unit %q, code %q", m.Name, m.Unit, perLayerUnits[m.Name])
		}
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// emitted parses the driver line and returns its metric names; a JSON
// object cannot hold a name twice, so each is emitted exactly once.
func emitted(t *testing.T, r *result) []string {
	t.Helper()
	var line struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value *float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(driverLine(r)), &line); err != nil {
		t.Fatalf("driver line is not JSON: %v", err)
	}
	if line.Attempted < 1 || line.Failed != 0 || !line.Correct {
		t.Errorf("%s: correct=%v attempted=%d failed=%d (%v)", r.Workload, line.Correct, line.Attempted, line.Failed, r.Failures)
	}
	names := make([]string, 0, len(line.Metrics))
	for n, m := range line.Metrics {
		if !metricName.MatchString(n) {
			t.Errorf("metric name %q has characters outside [A-Za-z0-9_.-]", n)
		}
		if m.Value == nil || math.IsNaN(*m.Value) || math.IsInf(*m.Value, 0) || m.Unit == "" {
			t.Errorf("%s: metric %s has no finite value or no unit", r.Workload, n)
		}
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func sameNames(t *testing.T, what string, got, want []string) {
	t.Helper()
	sort.Strings(want)
	if len(got) != len(want) {
		t.Errorf("%s: emitted %d metrics, BENCHMARK.json names %d", what, len(got), len(want))
	}
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Errorf("%s: emitted %q where BENCHMARK.json names %q", what, got[i], want[i])
			return
		}
	}
}

// TestSmokeEveryWorkload runs every workload at toy size, measured and
// traced, one repetition each, and checks that exactly the metrics
// BENCHMARK.json names come out and that every correctness check —
// including the shadow round's fidelity to core.Run — passes.
func TestSmokeEveryWorkload(t *testing.T) {
	bf := readBenchmarkFile(t)
	var endToEnd, perLayer []string
	for _, m := range bf.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range bf.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	// Scratch files land under the working directory: make it the test's own.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	for _, w := range workloads(true) {
		if dim := w.synth(1).Dim; dim > 512 || w.cfg.Topo.Size() > 8 || w.pinK > 10 {
			t.Fatalf("%s: toy size is dim %d, %d ranks, %d iterations", w.name, dim, w.cfg.Topo.Size(), w.pinK)
		}
		for _, trace := range []bool{false, true} {
			r, err := runWorkload(w.name, runOptions{seed: 3, draw: 1, trace: trace, toy: true, minReps: 1, log: io.Discard, spans: io.Discard})
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.name, trace, err)
			}
			if trace {
				sameNames(t, w.name+" traced", emitted(t, r), perLayer)
			} else {
				sameNames(t, w.name+" measured", emitted(t, r), endToEnd)
			}
		}
	}
}

// TestSelfTime checks the span arithmetic: a span's self time is its
// duration minus the part of its interval its children cover, with
// overlapping children counted once and children clipped to the parent.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Name: "parent", Start: 0, End: 100, Parent: -1},
		{ID: 1, Name: "a", Start: 10, End: 30, Parent: 0},
		{ID: 2, Name: "b", Start: 20, End: 50, Parent: 0},   // overlaps a: [10,50) is covered once
		{ID: 3, Name: "c", Start: 90, End: 120, Parent: 0},  // clipped to [90,100)
		{ID: 4, Name: "d", Start: 25, End: 28, Parent: 2},   // grandchild: b's business only
		{ID: 5, Name: "e", Start: 200, End: 300, Parent: 0}, // outside the parent: covers nothing
	}
	want := []int64{100 - 40 - 10, 20, 30 - 3, 30, 3, 100}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %s: self time %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	if by := selfByName(spans); by["parent"] != 50e-9 {
		t.Errorf("selfByName parent = %v s, want 50 ns", by["parent"])
	}
}

// TestSpeedNormalisation checks that every time of a repetition is divided
// by the speed factor measured around it, that counts and bytes are not,
// and that a nil reference leaves times as measured.
func TestSpeedNormalisation(t *testing.T) {
	m := &measured{kstar: 3, setupS: []float64{0.5}, samples: []sample{
		{wallS: 2, cpuS: 3, speed: 2, gapsMs: []float64{10, 20, 30}, wireBytes: 700, resident: 70},
		{wallS: 1, cpuS: 1.5, speed: 1, gapsMs: []float64{10, 10, 10}, wireBytes: 700, resident: 70},
	}}
	got := endToEnd(m, 12)
	for name, want := range map[string]float64{
		"time_to_target_s": 1, "cpu_s_to_target": 1.5, "iter_ms_p50": 10, "setup_s": 0.5,
		"iters_to_target": 3, "wire_bytes_to_target": 700, "resident_bytes_per_rank": 70, "peak_rss_mb": 12,
	} {
		if got[name].Value != want {
			t.Errorf("%s = %v, want %v", name, got[name].Value, want)
		}
	}
	ran := false
	if f := (*reference)(nil).around(func() { ran = true }); f != 1 || !ran {
		t.Errorf("nil reference: factor %v, ran %v; want 1, true", f, ran)
	}
	ref, err := newReference()
	if err != nil {
		t.Fatal(err)
	}
	defer ref.close()
	if f := ref.around(func() {}); !(f > 0) {
		t.Errorf("speed factor %v, want positive", f)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if pct, v := tail(make([]float64, 1000)); pct != 99 || v != 0 {
		t.Errorf("tail of 1000 samples = p%v, want p99 (ten samples beyond it)", pct)
	}
	if pct, _ := tail(make([]float64, 30)); pct != 50 {
		t.Errorf("tail of 30 samples = p%v, want p50", pct)
	}
}

func TestVerdict(t *testing.T) {
	tight := func(center float64) []float64 {
		return []float64{center * 0.99, center, center * 1.01, center * 1.005, center * 0.995}
	}
	noisyLow, noisyHigh := []float64{1.0, 1.4, 0.8, 1.2, 1.1}, []float64{1.1, 1.5, 0.9, 1.3, 1.0}
	cases := []struct {
		name  string
		a, b  []float64
		exact bool
		want  string
	}{
		{"same", tight(10), tight(10.2), false, unchanged},
		{"slower beyond the bound", tight(10), tight(11.5), false, regressed},
		{"faster beyond the bound", tight(10), tight(8), false, improved},
		{"spread wider than the bound, runs interleave", noisyLow, noisyHigh, false, unresolved},
		{"spread wider than the bound, but every run of B beats every run of A", []float64{2.0, 2.6, 3.4, 2.2, 3.0}, noisyLow, false, improved},
		{"spread wider than the bound, but every run of A beats every run of B", noisyLow, []float64{2.0, 2.6, 3.4, 2.2, 3.0}, false, regressed},
		{"single runs", []float64{50}, []float64{53}, false, unchanged},
		{"exact equal", []float64{369}, []float64{369}, true, unchanged},
		{"exact one more iteration", []float64{369}, []float64{370}, true, regressed},
		{"exact fewer bytes", []float64{1000}, []float64{999}, true, improved},
	}
	for _, c := range cases {
		if got := verdict(c.a, c.b, 0.10, c.exact); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// TestCompareFailedShare: more failed repetitions is a regression whatever
// the surviving repetitions' timings say.
func TestCompareFailedShare(t *testing.T) {
	set := func(failed int, wall float64) *resultSet {
		return &resultSet{Workloads: []*result{{
			Workload: "w", Attempted: 10, Failed: failed,
			Metrics: map[string]metric{"time_to_target_s": with("s", []float64{wall, wall * 1.01, wall * 0.99})},
		}}}
	}
	if nr, nu := compareSets(io.Discard, set(0, 1), set(1, 0.5)); nr != 1 || nu != 0 {
		t.Errorf("a faster run with a failed repetition: %d regressed, %d unresolved; want 1, 0", nr, nu)
	}
	if nr, nu := compareSets(io.Discard, set(0, 1), set(0, 1)); nr != 0 || nu != 0 {
		t.Errorf("identical sets: %d regressed, %d unresolved", nr, nu)
	}
}

// TestArrangementKeepsShards: the run seed moves whole shards between ranks
// and shuffles rows inside them, and nothing else.
func TestArrangementKeepsShards(t *testing.T) {
	const rows, n = 22, 4 // shards of 6, 6, 5, 5 rows
	perm := arrangement(rows, n, 7)
	if same := arrangement(rows, n, 7); !equalInts(perm, same) {
		t.Error("the same seed gave two arrangements")
	}
	if other := arrangement(rows, n, 8); equalInts(perm, other) {
		t.Error("two seeds gave the same arrangement")
	}
	shardOf := func(r int) int {
		switch {
		case r < 6:
			return 0
		case r < 12:
			return 1
		case r < 17:
			return 2
		}
		return 3
	}
	seen := make(map[int]bool)
	for pos, src := range perm {
		if seen[src] {
			t.Fatalf("row %d appears twice", src)
		}
		seen[src] = true
		first := perm[[]int{0, 6, 12, 17}[shardOf(pos)]]
		if shardOf(src) != shardOf(first) {
			t.Errorf("position %d holds a row of shard %d, its neighbours rows of shard %d", pos, shardOf(src), shardOf(first))
		}
	}
	if len(seen) != rows {
		t.Errorf("%d distinct rows, want %d", len(seen), rows)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestEstablishSurvivesLostPort: when a rank cannot listen on its reserved
// port, the attempt fails for every rank — none is left waiting in Accept
// for the missing one — and a retry on fresh ports succeeds.
func TestEstablishSurvivesLostPort(t *testing.T) {
	addrs, err := reservePorts(4)
	if err != nil {
		t.Fatal(err)
	}
	squatter, err := net.Listen("tcp", addrs[2]) // takes rank 2's port first
	if err != nil {
		t.Skipf("could not re-listen on the reserved port: %v", err)
	}
	defer squatter.Close()
	failed := make(chan error, 1)
	go func() {
		_, err := establishAt(addrs)
		failed <- err
	}()
	select {
	case err := <-failed:
		if err == nil {
			t.Error("establishment succeeded although rank 2's port was taken")
		}
	case <-time.After(3 * (meshDialBudget + time.Second)):
		t.Fatal("establishment still blocked long after a rank failed to listen")
	}
	eps, _, err := establishMesh(4)
	if err != nil {
		t.Fatalf("establishment on fresh ports: %v", err)
	}
	closeAll(eps)
}

// fakeEndpoint records what reaches it and answers with fixed values.
type fakeEndpoint struct {
	stats    transport.Stats
	err      error
	deadline time.Duration
	sent     []int
	closed   bool
}

func (f *fakeEndpoint) Rank() int { return 2 }
func (f *fakeEndpoint) Size() int { return 5 }
func (f *fakeEndpoint) Send(to int, m wire.Message) error {
	f.sent = append(f.sent, to)
	return f.err
}
func (f *fakeEndpoint) Recv(from int, tag int32) (wire.Message, error) {
	return wire.Control(tag, int64(from)), f.err
}
func (f *fakeEndpoint) RecvTimeout(from int, tag int32, d time.Duration) (wire.Message, error) {
	f.deadline = d
	return wire.Control(tag, int64(from)), f.err
}
func (f *fakeEndpoint) Stats() transport.Stats { return f.stats }
func (f *fakeEndpoint) Close() error           { f.closed = true; return f.err }

// TestTimedEndpointForwards: the timing decorator changes nothing a caller
// can see — Stats, errors, RecvTimeout deadlines and messages pass through
// — and records a span per call, plus the Group Generator round trip.
func TestTimedEndpointForwards(t *testing.T) {
	boom := errors.New("boom")
	inner := &fakeEndpoint{stats: transport.Stats{MsgsSent: 3, BytesSent: 99, RecvErrors: 1, HeartbeatsSent: 4, FramesCorrupt: 2}}
	rec := newRecorder()
	const gg = 4
	ep := newTimedEndpoint(inner, rec, gg)
	var _ transport.Endpoint = ep

	if ep.Rank() != 2 || ep.Size() != 5 || ep.Stats() != inner.stats {
		t.Errorf("Rank/Size/Stats not forwarded: %d %d %+v", ep.Rank(), ep.Size(), ep.Stats())
	}
	if transport.SendsNonBlocking(ep) {
		t.Error("decorator claims non-blocking sends the wrapped endpoint does not offer")
	}
	ep.enter(17, 3)
	if err := ep.Send(gg, wire.Control(1)); err != nil {
		t.Errorf("Send: %v", err)
	}
	m, err := ep.RecvTimeout(gg, 9, 1234*time.Millisecond)
	if err != nil || inner.deadline != 1234*time.Millisecond || m.Tag != 9 || m.Ints[0] != gg {
		t.Errorf("RecvTimeout forwarded deadline %v, message %+v, err %v", inner.deadline, m, err)
	}
	inner.err = boom
	if err := ep.Send(1, wire.Control(1)); !errors.Is(err, boom) {
		t.Errorf("Send error not forwarded: %v", err)
	}
	if _, err := ep.Recv(1, 2); !errors.Is(err, boom) {
		t.Errorf("Recv error not forwarded: %v", err)
	}
	if _, err := ep.RecvTimeout(1, 2, 0); !errors.Is(err, boom) || inner.deadline != 0 {
		t.Errorf("RecvTimeout error or zero deadline not forwarded: %v, %v", err, inner.deadline)
	}
	if err := ep.Close(); !errors.Is(err, boom) || !inner.closed {
		t.Errorf("Close not forwarded: %v", err)
	}
	if !equalInts(inner.sent, []int{gg, 1}) {
		t.Errorf("sends reached the endpoint as %v", inner.sent)
	}

	counts := make(map[string]int)
	for _, s := range rec.snapshot() {
		counts[s.Name]++
		if s.Rank != 2 || s.Iter != 3 || s.Parent != 17 || s.End < s.Start {
			t.Errorf("span %+v: want rank 2, iteration 3, parent 17", s)
		}
	}
	if counts["transport.send"] != 2 || counts["transport.recv"] != 3 || counts["wlg.gg_wait"] != 1 {
		t.Errorf("spans recorded: %v; want 2 sends, 3 receives, 1 GG wait", counts)
	}
}

// TestNilRecorder: tracing off is a nil recorder, and every call on it is a
// no-op, so the untraced mesh run shares the traced run's code.
func TestNilRecorder(t *testing.T) {
	var rec *recorder
	id := rec.begin("x", -1, 0, 0)
	rec.end(id)
	rec.add("y", id, 0, 0, 1, 2)
	if id != -1 || rec.snapshot() != nil || rec.now() != 0 {
		t.Error("a nil recorder recorded something")
	}
}
