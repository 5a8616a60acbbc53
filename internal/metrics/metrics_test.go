package metrics

import (
	"math"
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.AddRow("alpha", 1.5)
	tb.AddRow("b", 0.25)
	if len(tb.rows) != 2 {
		t.Fatalf("rows = %d", len(tb.rows))
	}
	var sb strings.Builder
	if err := tb.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"## demo", "name", "value", "alpha", "1.500", "0.2500", "-----"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	// Column alignment: "alpha" and "b" rows must start values at the
	// same offset.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	lastTwo := lines[len(lines)-2:]
	idxA := strings.Index(lastTwo[0], "1.500")
	idxB := strings.Index(lastTwo[1], "0.2500")
	if idxA != idxB {
		t.Fatalf("misaligned columns:\n%s", out)
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow("x,y", 2)
	var sb strings.Builder
	if err := tb.RenderCSV(&sb); err != nil {
		t.Fatal(err)
	}
	want := "a,b\nx;y,2\n"
	if sb.String() != want {
		t.Fatalf("CSV = %q, want %q", sb.String(), want)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := []struct {
		v    float64
		want string
	}{
		{math.NaN(), "-"},
		{0, "0"},
		{1e-5, "1.000e-05"},
		{0.5, "0.5000"},
		{3.25, "3.250"},
		{2e7, "2.000e+07"},
		{-0.25, "-0.2500"},
	}
	for _, c := range cases {
		if got := FormatFloat(c.v); got != c.want {
			t.Errorf("FormatFloat(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestPctChangeAndReduction(t *testing.T) {
	if got := PctChange(100, 68); got != -32 {
		t.Fatalf("PctChange = %v", got)
	}
	if got := PctChange(0, 5); got != 0 {
		t.Fatalf("PctChange from 0 = %v", got)
	}
	if got := Reduction(100, 68); got != 32 {
		t.Fatalf("Reduction = %v", got)
	}
	if got := Reduction(100, 120); got != 0 {
		t.Fatalf("Reduction clamp = %v", got)
	}
	if got := Reduction(0, 1); got != 0 {
		t.Fatalf("Reduction zero-from = %v", got)
	}
}

func TestSeconds(t *testing.T) {
	cases := []struct {
		v    float64
		want string
	}{
		{math.NaN(), "-"},
		{2.5, "2.500s"},
		{0.0025, "2.500ms"},
		{2.5e-6, "2.500µs"},
		{3e-9, "3ns"},
	}
	for _, c := range cases {
		if got := Seconds(c.v); got != c.want {
			t.Errorf("Seconds(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestBytes(t *testing.T) {
	cases := []struct {
		n    int64
		want string
	}{
		{512, "512B"},
		{2048, "2.00KiB"},
		{3 << 20, "3.00MiB"},
		{5 << 30, "5.00GiB"},
	}
	for _, c := range cases {
		if got := Bytes(c.n); got != c.want {
			t.Errorf("Bytes(%d) = %q, want %q", c.n, got, c.want)
		}
	}
}
