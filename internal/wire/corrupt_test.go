package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"psrahgadmm/internal/sparse"
)

// frames returns one message of every kind for table tests.
func frames() []Message {
	sv := sparse.NewVector(16, 3)
	sv.Index = append(sv.Index, 0, 7, 12)
	sv.Value = append(sv.Value, 1.5, -2.25, 3)
	return []Message{
		Control(5, 1, -2, 1<<40),
		DenseMsg(9, []float64{0.5, -1, 2, 7.75}),
		SparseMsg(3, sv),
	}
}

// TestCRCDetectsEveryPayloadBitFlip flips each payload and trailer bit of an
// encoded frame in turn: every single-bit flip must surface as
// ErrFrameCorrupt (CRC32C detects all 1-bit errors), never as a silently
// different message, and must consume exactly one frame from the stream.
func TestCRCDetectsEveryPayloadBitFlip(t *testing.T) {
	for _, m := range frames() {
		var buf bytes.Buffer
		if err := Encode(&buf, m); err != nil {
			t.Fatal(err)
		}
		clean := buf.Bytes()
		if len(clean) != EncodedBytes(&m) {
			t.Fatalf("encoded %d bytes, EncodedBytes %d", len(clean), EncodedBytes(&m))
		}
		for bit := headerBytes * 8; bit < len(clean)*8; bit++ {
			flipped := append([]byte(nil), clean...)
			flipped[bit/8] ^= 1 << (bit % 8)
			// Append a second clean frame: a corrupt first frame must leave
			// the stream positioned exactly at the second.
			stream := append(flipped, clean...)
			r := bytes.NewReader(stream)
			_, err := Decode(r)
			if !errors.Is(err, ErrFrameCorrupt) {
				t.Fatalf("kind %v bit %d: err = %v, want ErrFrameCorrupt", m.Kind, bit, err)
			}
			if errors.Is(err, ErrBadFrame) {
				t.Fatalf("kind %v bit %d: ErrFrameCorrupt must not match ErrBadFrame", m.Kind, bit)
			}
			if got, err2 := Decode(r); err2 != nil || got.Tag != m.Tag {
				t.Fatalf("kind %v bit %d: frame after corrupt one: %v (tag %d)", m.Kind, bit, err2, got.Tag)
			}
		}
	}
}

// TestHeaderBitFlipsNeverDecodeSilently covers the header region: a flipped
// header bit must yield some error (ErrFrameCorrupt, ErrBadFrame, or a short
// read) — never a clean decode of wrong metadata.
func TestHeaderBitFlipsNeverDecodeSilently(t *testing.T) {
	m := Control(5, 1, -2, 3)
	var buf bytes.Buffer
	if err := Encode(&buf, m); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()
	for bit := 0; bit < headerBytes*8; bit++ {
		flipped := append([]byte(nil), clean...)
		flipped[bit/8] ^= 1 << (bit % 8)
		if _, err := Decode(bytes.NewReader(flipped)); err == nil {
			t.Fatalf("header bit %d: corrupt frame decoded cleanly", bit)
		}
	}
}

// TestVersion1FramesRejected hand-builds a legacy frame (version byte 1,
// no CRC trailer) and checks the decoder refuses it as a bad frame: nothing
// un-checksummed is ever accepted.
func TestVersion1FramesRejected(t *testing.T) {
	for _, m := range frames() {
		var buf bytes.Buffer
		if err := Encode(&buf, m); err != nil {
			t.Fatal(err)
		}
		// Downgrade: flip the version byte to 1 and drop the trailer.
		legacy := append([]byte(nil), buf.Bytes()[:buf.Len()-crcBytes]...)
		legacy[2] = 1
		if _, err := Decode(bytes.NewReader(legacy)); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("kind %v: legacy frame: err = %v, want ErrBadFrame", m.Kind, err)
		}
	}
}

// TestTruncatedTrailer checks that a version-2 frame cut inside its CRC
// trailer reports an unexpected EOF, not corruption.
func TestTruncatedTrailer(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, Control(1, 7)); err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut <= crcBytes; cut++ {
		trunc := buf.Bytes()[:buf.Len()-cut]
		if _, err := Decode(bytes.NewReader(trunc)); err != io.ErrUnexpectedEOF {
			t.Fatalf("cut %d: err = %v, want ErrUnexpectedEOF", cut, err)
		}
	}
}
