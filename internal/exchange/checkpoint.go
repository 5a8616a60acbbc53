package exchange

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Checkpoint snapshot encoding. Like the wire codecs, this keeps the
// serialized representation of ADMM state in one place; unlike them it is
// always exact — float64 bits round-trip verbatim so a resumed run can
// reproduce the uninterrupted history bit-for-bit.
//
// Layout (little-endian): magic "PSCK", u32 version, then the Snapshot
// fields in declaration order. Vectors are length-prefixed; float64s
// travel as math.Float64bits so NaN payloads and signed zeros survive.

const (
	snapMagic   = "PSCK"
	snapVersion = uint32(1)
)

// WorkerSnap is one worker's persisted per-iteration state: the ADMM
// primal/dual/consensus triple plus the virtual clock and accounting
// needed to continue the simulated timeline exactly.
type WorkerSnap struct {
	Rank     int32
	Clock    float64
	CalTotal float64
	XA       []float64
	YA       []float64
	ZDense   []float64
	// ZIdx/ZVal carry the sparse consensus view for compact-feature
	// workers; empty for dense-only runtimes.
	ZIdx []int32
	ZVal []float64
}

// Snapshot is the full resumable state of a training run at an iteration
// boundary: which algorithm, where in the schedule, the penalty (which
// AdaptiveRho may have changed), the membership view, and every worker's
// state. Strategy carries consensus-strategy scalars (e.g. the star
// master's next-free time) whose meaning is private to the strategy.
type Snapshot struct {
	Algorithm  string
	Iter       int32
	Rho        float64
	Epoch      int32
	Dead       []int32
	ZPrev      []float64
	TotalCal   float64
	TotalComm  float64
	TotalBytes int64
	Strategy   []float64
	Workers    []WorkerSnap
}

// snapWriter fills the blob EncodeSnapshot sized exactly: buf is what is
// left to write, so a put is one store in place and nothing grows.
type snapWriter struct{ buf []byte }

func (w *snapWriter) u32(v uint32)  { binary.LittleEndian.PutUint32(w.buf, v); w.buf = w.buf[4:] }
func (w *snapWriter) u64(v uint64)  { binary.LittleEndian.PutUint64(w.buf, v); w.buf = w.buf[8:] }
func (w *snapWriter) i32(v int32)   { w.u32(uint32(v)) }
func (w *snapWriter) f64(v float64) { w.u64(math.Float64bits(v)) }
func (w *snapWriter) str(s string) {
	w.u32(uint32(len(s)))
	w.buf = w.buf[copy(w.buf, s):]
}
func (w *snapWriter) i32s(v []int32) {
	w.u32(uint32(len(v)))
	for _, x := range v {
		w.i32(x)
	}
}
func (w *snapWriter) f64s(v []float64) {
	w.u32(uint32(len(v)))
	for _, x := range v {
		w.f64(x)
	}
}

// snapSize is s's encoded length: 68 bytes of header scalars and length
// prefixes, 40 per worker record, and the vectors' elements.
func snapSize(s *Snapshot) int {
	n := 68 + len(s.Algorithm) + 4*len(s.Dead) + 8*(len(s.ZPrev)+len(s.Strategy))
	for i := range s.Workers {
		ws := &s.Workers[i]
		n += 40 + 4*len(ws.ZIdx) + 8*(len(ws.XA)+len(ws.YA)+len(ws.ZDense)+len(ws.ZVal))
	}
	return n
}

type snapReader struct {
	buf []byte
	err error
}

func (r *snapReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.buf) < n {
		r.err = fmt.Errorf("exchange: truncated snapshot (want %d bytes, have %d)", n, len(r.buf))
		return nil
	}
	b := r.buf[:n]
	r.buf = r.buf[n:]
	return b
}

func (r *snapReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *snapReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *snapReader) i32() int32   { return int32(r.u32()) }
func (r *snapReader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *snapReader) str() string {
	n := int(r.u32())
	b := r.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

func (r *snapReader) i32s() []int32 {
	n := int(r.u32())
	if r.err != nil || n == 0 {
		return nil
	}
	// Bound the allocation by the bytes actually present: a corrupt length
	// prefix must produce an error, never a multi-gigabyte make.
	if n < 0 || n > len(r.buf)/4 {
		r.err = fmt.Errorf("exchange: vector length %d exceeds remaining %d bytes", n, len(r.buf))
		return nil
	}
	v := make([]int32, n)
	for i := range v {
		v[i] = r.i32()
	}
	return v
}

func (r *snapReader) f64s() []float64 {
	n := int(r.u32())
	if r.err != nil || n == 0 {
		return nil
	}
	if n < 0 || n > len(r.buf)/8 {
		r.err = fmt.Errorf("exchange: vector length %d exceeds remaining %d bytes", n, len(r.buf))
		return nil
	}
	v := make([]float64, n)
	for i := range v {
		v[i] = r.f64()
	}
	return v
}

// EncodeSnapshot serializes a snapshot to its binary form: one allocation
// of exactly the blob's size. It only reads s, and the blob shares nothing
// with it.
func EncodeSnapshot(s *Snapshot) []byte {
	blob := make([]byte, snapSize(s))
	w := snapWriter{buf: blob[copy(blob, snapMagic):]}
	w.u32(snapVersion)
	w.str(s.Algorithm)
	w.i32(s.Iter)
	w.f64(s.Rho)
	w.i32(s.Epoch)
	w.i32s(s.Dead)
	w.f64s(s.ZPrev)
	w.f64(s.TotalCal)
	w.f64(s.TotalComm)
	w.u64(uint64(s.TotalBytes))
	w.f64s(s.Strategy)
	w.u32(uint32(len(s.Workers)))
	for i := range s.Workers {
		ws := &s.Workers[i]
		w.i32(ws.Rank)
		w.f64(ws.Clock)
		w.f64(ws.CalTotal)
		w.f64s(ws.XA)
		w.f64s(ws.YA)
		w.f64s(ws.ZDense)
		w.i32s(ws.ZIdx)
		w.f64s(ws.ZVal)
	}
	return blob
}

// DecodeSnapshot parses a binary snapshot, rejecting unknown magic or
// versions and truncated payloads.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	r := &snapReader{buf: data}
	if string(r.take(4)) != snapMagic {
		return nil, fmt.Errorf("exchange: not a snapshot (bad magic)")
	}
	if v := r.u32(); v != snapVersion {
		return nil, fmt.Errorf("exchange: unsupported snapshot version %d", v)
	}
	s := &Snapshot{}
	s.Algorithm = r.str()
	s.Iter = r.i32()
	s.Rho = r.f64()
	s.Epoch = r.i32()
	s.Dead = r.i32s()
	s.ZPrev = r.f64s()
	s.TotalCal = r.f64()
	s.TotalComm = r.f64()
	s.TotalBytes = int64(r.u64())
	s.Strategy = r.f64s()
	n := int(r.u32())
	if r.err != nil {
		return nil, r.err
	}
	// A worker record is at least 40 bytes (three scalars + five length
	// prefixes), so the remaining buffer bounds the plausible count — and
	// with it the allocation — long before the absolute cap matters.
	if n < 0 || n > 1<<20 || n > len(r.buf)/40 {
		return nil, fmt.Errorf("exchange: implausible worker count %d", n)
	}
	s.Workers = make([]WorkerSnap, n)
	for i := range s.Workers {
		ws := &s.Workers[i]
		ws.Rank = r.i32()
		ws.Clock = r.f64()
		ws.CalTotal = r.f64()
		ws.XA = r.f64s()
		ws.YA = r.f64s()
		ws.ZDense = r.f64s()
		ws.ZIdx = r.i32s()
		ws.ZVal = r.f64s()
	}
	if r.err != nil {
		return nil, r.err
	}
	if len(r.buf) != 0 {
		return nil, fmt.Errorf("exchange: %d trailing bytes after snapshot", len(r.buf))
	}
	return s, nil
}
