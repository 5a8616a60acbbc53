package watchdog

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// scanNonFiniteReference is ScanNonFinite as it stood before the
// subtract-and-compare kernel, kept verbatim: the rewrite must give the same
// verdict, the same first hit and the same message on every bit pattern.
func scanNonFiniteReference(names []string, vecs ...[]float64) string {
	for i, v := range vecs {
		for j, x := range v {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				name := ""
				if i < len(names) {
					name = names[i]
				}
				return fmt.Sprintf("%s[%d] = %v", name, j, x)
			}
		}
	}
	return ""
}

// firstNonFiniteReference is the index the old loop would have stopped at.
func firstNonFiniteReference(v []float64) int {
	for j, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return j
		}
	}
	return -1
}

// edgeBits are the bit patterns where a shortcut test for finiteness could
// go wrong: both zeros, the subnormal range's ends, the finite range's ends,
// both infinities, and quiet and signalling NaNs of either sign with small
// and full payloads.
var edgeBits = []uint64{
	0x0000000000000000, 0x8000000000000000, // ±0
	0x0000000000000001, 0x8000000000000001, // smallest subnormals
	0x000fffffffffffff, 0x800fffffffffffff, // largest subnormals
	0x0010000000000000, 0x8010000000000000, // smallest normals
	0x3ff0000000000000, 0xbff0000000000000, // ±1
	0x7fefffffffffffff, 0xffefffffffffffff, // ±MaxFloat64
	0x7ff0000000000000, 0xfff0000000000000, // ±Inf
	0x7ff8000000000000, 0xfff8000000000000, // quiet NaN
	0x7ff8000000000001, 0xfff8dead0000beef, // quiet NaN, payloads
	0x7ff0000000000001, 0xfff0000000000001, // signalling NaN
	0x7ff7ffffffffffff, 0xffffffffffffffff, // signalling / quiet, full payload
}

func checkScanAgainstReference(t *testing.T, names []string, vecs ...[]float64) {
	t.Helper()
	if got, want := ScanNonFinite(names, vecs...), scanNonFiniteReference(names, vecs...); got != want {
		t.Fatalf("ScanNonFinite = %q, reference loop = %q", got, want)
	}
	for _, v := range vecs {
		if got, want := FirstNonFinite(v), firstNonFiniteReference(v); got != want {
			t.Fatalf("FirstNonFinite = %d, reference loop = %d", got, want)
		}
	}
}

func TestScanNonFiniteMatchesReference(t *testing.T) {
	names := []string{"x", "y", "z"}
	// Every edge pattern alone, then behind finite values, then as the
	// second of two vectors, then beyond the names.
	for _, b := range edgeBits {
		x := math.Float64frombits(b)
		checkScanAgainstReference(t, names, []float64{x})
		checkScanAgainstReference(t, names, []float64{1, -2.5, x, 3})
		checkScanAgainstReference(t, names, []float64{1, 2}, nil, []float64{0, x})
		checkScanAgainstReference(t, names[:1], []float64{1}, []float64{x})
	}
	// The first hit wins across every ordered pair of patterns.
	for _, a := range edgeBits {
		for _, b := range edgeBits {
			v := []float64{0.5, math.Float64frombits(a), math.Float64frombits(b)}
			checkScanAgainstReference(t, names, v, v)
		}
	}
	checkScanAgainstReference(t, names)
	checkScanAgainstReference(t, nil, nil, []float64{})
}

// FuzzScanNonFinite reads its input as raw float64 bit patterns split into
// two vectors, so the mutator reaches NaN payloads and subnormals directly.
func FuzzScanNonFinite(f *testing.F) {
	seed := make([]byte, 0, 8*len(edgeBits))
	for _, b := range edgeBits {
		seed = binary.LittleEndian.AppendUint64(seed, b)
	}
	f.Add(seed, uint8(3))
	f.Add(seed[:8*10], uint8(0)) // the finite patterns only
	f.Add([]byte{}, uint8(0))
	f.Fuzz(func(t *testing.T, raw []byte, split uint8) {
		v := make([]float64, len(raw)/8)
		for i := range v {
			v[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		cut := 0
		if len(v) > 0 {
			cut = int(split) % (len(v) + 1)
		}
		checkScanAgainstReference(t, []string{"x", "y"}, v[:cut], v[cut:])
	})
}
