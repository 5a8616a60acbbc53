package wire

import (
	"bytes"
	"io"
	"math/rand"
	"testing"

	"psrahgadmm/internal/sparse"
)

// TestDecodeArbitraryBytesNeverPanics feeds the decoder random garbage,
// truncations of valid frames, and bit-flipped valid frames: it must
// always return an error (or a valid message) and never panic or over-read
// — the robustness a network-facing codec needs.
func TestDecodeArbitraryBytesNeverPanics(t *testing.T) {
	r := rand.New(rand.NewSource(90))

	// Pure garbage.
	for trial := 0; trial < 500; trial++ {
		n := r.Intn(200)
		buf := make([]byte, n)
		r.Read(buf)
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("panic on garbage input: %v", p)
				}
			}()
			_, _ = Decode(bytes.NewReader(buf))
		}()
	}

	// Truncations of a valid frame at every boundary.
	var valid bytes.Buffer
	if err := Encode(&valid, DenseMsg(3, []float64{1, 2, 3, 4})); err != nil {
		t.Fatal(err)
	}
	full := valid.Bytes()
	for cut := 0; cut < len(full); cut++ {
		_, err := Decode(bytes.NewReader(full[:cut]))
		if err == nil {
			t.Fatalf("truncation at %d decoded successfully", cut)
		}
		if cut == 0 && err != io.EOF {
			t.Fatalf("empty stream: %v, want io.EOF", err)
		}
	}

	// Single-bit flips of a valid frame: must decode to something valid
	// or error — never panic, never hang.
	for trial := 0; trial < 300; trial++ {
		mut := append([]byte(nil), full...)
		mut[r.Intn(len(mut))] ^= 1 << uint(r.Intn(8))
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("panic on bit-flipped frame: %v", p)
				}
			}()
			_, _ = Decode(bytes.NewReader(mut))
		}()
	}
}

// FuzzDecodeFrom drives the frame decoder with arbitrary byte streams.
// Invariants: never panic; a lying length prefix must not force an
// allocation disproportionate to the bytes actually present (the chunked
// readPayload guarantee); and any frame that decodes successfully must
// re-encode to the identical bytes (the codec is canonical).
func FuzzDecodeFrom(f *testing.F) {
	seed := func(m Message) {
		var buf bytes.Buffer
		if err := Encode(&buf, m); err != nil {
			f.Fatal(err)
		}
		full := buf.Bytes()
		f.Add(append([]byte(nil), full...))
		f.Add(append([]byte(nil), full[:len(full)/2]...))
		// Two frames back to back: exercises stream framing.
		f.Add(append(append([]byte(nil), full...), full...))
	}
	seed(Control(7, 1, -2, 3))
	seed(DenseMsg(3, []float64{1, 2.5, -3}))
	sv := sparse.NewVector(8, 2)
	sv.Index = append(sv.Index, 1, 5)
	sv.Value = append(sv.Value, 0.5, -1)
	seed(SparseMsg(4, sv))
	// A lying length prefix on an otherwise valid header.
	f.Add([]byte{magic0, magic1, version2, byte(KindDense), 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0x3f})
	// A version-1 frame (no CRC trailer) is rejected, never decoded.
	f.Add([]byte{magic0, magic1, 1, byte(KindControl), 9, 0, 0, 0, 0, 0, 0, 0, 12, 0, 0, 0,
		1, 0, 0, 0, 42, 0, 0, 0, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		var payload []byte
		for {
			start := len(data) - r.Len()
			m, p, err := DecodeFrom(r, payload)
			payload = p
			if err != nil {
				break
			}
			end := len(data) - r.Len()
			var re bytes.Buffer
			if eerr := Encode(&re, m); eerr != nil {
				t.Fatalf("decoded frame failed to re-encode: %v", eerr)
			}
			// Every accepted frame is a current-version frame, so it must
			// re-encode to exactly the bytes it was decoded from.
			if !bytes.Equal(re.Bytes(), data[start:end]) {
				t.Fatalf("re-encode diverged from wire bytes at [%d:%d]", start, end)
			}
		}
		// A lying length prefix must not have grown the scratch far past
		// the input: doubling growth bounds it by twice the bytes present
		// plus one speculative chunk — never the claimed payload size.
		if cap(payload) > 2*(len(data)+decodeChunk) {
			t.Fatalf("decoder allocated %d bytes for a %d-byte input", cap(payload), len(data))
		}
	})
}

// TestDecodeHugeLengthPrefix checks the 1 GiB payload cap fires instead of
// attempting a giant allocation.
func TestDecodeHugeLengthPrefix(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, Control(1, 1)); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	// Corrupt the length field to ~4 GiB.
	b[12], b[13], b[14], b[15] = 0xff, 0xff, 0xff, 0xff
	if _, err := Decode(bytes.NewReader(b)); err == nil {
		t.Fatal("4 GiB length prefix accepted")
	}
}
