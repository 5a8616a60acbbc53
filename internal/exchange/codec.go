// Package exchange defines the ExchangeCodec axis of the strategy
// decomposition: how ADMM contributions are represented on the wire.
// Where the consensus strategy decides WHO communicates and the sync model
// decides WHEN, the codec decides WHAT travels — full float64, ADMMLib's
// single-precision parameter exchange, or Q-GADMM-style fixed-point
// quantization — and therefore how many bytes every collective costs.
//
// Both execution paths share this package, and in both a value always
// travels as a sparse vector: the DES-clock engine (internal/core) uses
// codecs to round contributions and to rescale collective traces to wire
// sizes, and the real-fabric WLG runtime (internal/wlg) uses the same
// codecs to round the vectors it actually ships. Lossy encodings are
// applied to VALUES before a collective runs, so both paths aggregate
// exactly what a real cluster would. The dense kinds are a cost model, not
// a second representation: in the engine they charge dimension-sized
// messages (DenseMsgBytes, ZMsgBytes) and move the rounding point from the
// contribution to the node partial.
package exchange

import (
	"fmt"
	"math"

	"psrahgadmm/internal/collective"
	"psrahgadmm/internal/sparse"
	"psrahgadmm/internal/wire"
)

// Kind names a codec in the algorithm registry.
type Kind string

// The implemented codecs.
const (
	// Sparse is the exact sparse float64 exchange (the PSRA default):
	// 4-byte index + 8-byte value per nonzero.
	Sparse Kind = "sparse"
	// SparseQ8 and SparseQ16 quantize sparse values to 8/16-bit fixed
	// point with a per-vector max-abs scale (Q-GADMM-style).
	SparseQ8  Kind = "sparse-q8"
	SparseQ16 Kind = "sparse-q16"
	// Dense ships full dense float64 vectors (the master-worker
	// baselines' exchange).
	Dense Kind = "dense"
	// DenseF32 ships dense vectors rounded to float32 precision at half
	// the bytes (ADMMLib's single-precision parameter exchange).
	DenseF32 Kind = "dense-f32"

	// TopK and TopKQ8 are declared in topk.go: top-k sparsification with
	// per-rank error feedback, exact or 8-bit-quantized survivors.
)

// Kinds lists every implemented codec.
func Kinds() []Kind { return []Kind{Sparse, SparseQ8, SparseQ16, Dense, DenseF32, TopK, TopKQ8} }

// Codec is the exchange-representation strategy. EncodeSparse rounds
// values in place to what survives the wire; the *Bytes methods and
// WireTrace give the corresponding payload sizes for the virtual cost
// model.
type Codec interface {
	Kind() Kind
	// DenseExchange reports whether the exchange is charged as full dense
	// vectors (true) or index/value sparse payloads (false).
	DenseExchange() bool
	// EncodeSparse lossily rounds a sparse vector's values in place,
	// dropping entries that round to zero. Exact codecs are no-ops.
	EncodeSparse(v *sparse.Vector)
	// WireTrace rescales a collective trace — built at nominal sparse
	// (12-byte-entry) or dense (8-byte-entry) sizes — to this codec's
	// wire format.
	WireTrace(tr collective.Trace) collective.Trace
	// WireTraceInto is WireTrace writing the rescaled events into dst's
	// backing array (grown only when too small). Identity codecs return
	// tr unchanged without touching dst. Callers on the hot path keep the
	// returned Events slice and pass it back as dst next round, so the
	// steady state rescales without allocating.
	WireTraceInto(dst []collective.Event, tr collective.Trace) collective.Trace
	// SparseMsgBytes is the nominal payload of one sparse vector with nnz
	// entries, before WireTrace scaling.
	SparseMsgBytes(nnz int) int
	// DenseMsgBytes is the wire payload of one dense vector of dim
	// entries.
	DenseMsgBytes(dim int) int
	// ZMsgBytes is the wire payload of the distributed consensus iterate
	// with nnz nonzeros. The z indices always travel exactly; only value
	// precision varies.
	ZMsgBytes(nnz int) int
}

// For returns the codec implementing kind.
func For(kind Kind) (Codec, error) {
	switch kind {
	case Sparse:
		return sparseCodec{}, nil
	case SparseQ8:
		return quantCodec{bits: 8}, nil
	case SparseQ16:
		return quantCodec{bits: 16}, nil
	case Dense:
		return denseCodec{}, nil
	case DenseF32:
		return f32Codec{}, nil
	case TopK:
		return topkCodec{}, nil
	case TopKQ8:
		return topkCodec{bits: 8}, nil
	}
	return nil, fmt.Errorf("exchange: unknown codec %q", kind)
}

// sparseCodec is the exact sparse float64 exchange.
type sparseCodec struct{}

func (sparseCodec) Kind() Kind                                     { return Sparse }
func (sparseCodec) DenseExchange() bool                            { return false }
func (sparseCodec) EncodeSparse(*sparse.Vector)                    {}
func (sparseCodec) WireTrace(tr collective.Trace) collective.Trace { return tr }
func (sparseCodec) WireTraceInto(_ []collective.Event, tr collective.Trace) collective.Trace {
	return tr
}
func (sparseCodec) SparseMsgBytes(nnz int) int { return 8 + wire.SparseEntryBytes*nnz }
func (sparseCodec) DenseMsgBytes(dim int) int  { return 4 + wire.DenseEntryBytes*dim }
func (sparseCodec) ZMsgBytes(nnz int) int      { return 8 + wire.SparseEntryBytes*nnz }

// quantCodec is the b-bit fixed-point sparse exchange: values quantize to
// bits-wide levels against a per-vector max-abs scale, and every sparse
// entry costs 4 index bytes plus bits/8 value bytes on the wire. z still
// travels at full precision (it is already thresholded and sparse).
type quantCodec struct{ bits int }

func (c quantCodec) Kind() Kind {
	if c.bits == 8 {
		return SparseQ8
	}
	return SparseQ16
}
func (quantCodec) DenseExchange() bool             { return false }
func (c quantCodec) EncodeSparse(v *sparse.Vector) { QuantizeSparseBits(v, c.bits) }
func (c quantCodec) WireTrace(tr collective.Trace) collective.Trace {
	return ScaleTraceBytes(tr, EntryBytes(c.bits), wire.SparseEntryBytes)
}
func (c quantCodec) WireTraceInto(dst []collective.Event, tr collective.Trace) collective.Trace {
	return ScaleTraceBytesInto(dst, tr, EntryBytes(c.bits), wire.SparseEntryBytes)
}
func (quantCodec) SparseMsgBytes(nnz int) int { return 8 + wire.SparseEntryBytes*nnz }
func (quantCodec) DenseMsgBytes(dim int) int  { return 4 + wire.DenseEntryBytes*dim }
func (quantCodec) ZMsgBytes(nnz int) int      { return 8 + wire.SparseEntryBytes*nnz }

// denseCodec is the exact dense float64 exchange.
type denseCodec struct{}

func (denseCodec) Kind() Kind                                     { return Dense }
func (denseCodec) DenseExchange() bool                            { return true }
func (denseCodec) EncodeSparse(*sparse.Vector)                    {}
func (denseCodec) WireTrace(tr collective.Trace) collective.Trace { return tr }
func (denseCodec) WireTraceInto(_ []collective.Event, tr collective.Trace) collective.Trace {
	return tr
}
func (denseCodec) SparseMsgBytes(nnz int) int { return 8 + wire.SparseEntryBytes*nnz }
func (denseCodec) DenseMsgBytes(dim int) int  { return 4 + wire.DenseEntryBytes*dim }
func (denseCodec) ZMsgBytes(nnz int) int      { return 4 + wire.SparseEntryBytes*nnz }

// f32Codec is ADMMLib's single-precision dense exchange: values round to
// float32, dense payloads halve, and the thresholded z fans out as 4-byte
// index + 4-byte value entries.
type f32Codec struct{}

func (f32Codec) Kind() Kind                    { return DenseF32 }
func (f32Codec) DenseExchange() bool           { return true }
func (f32Codec) EncodeSparse(v *sparse.Vector) { RoundF32Sparse(v) }
func (f32Codec) WireTrace(tr collective.Trace) collective.Trace {
	return ScaleTraceBytes(tr, 1, 2)
}
func (f32Codec) WireTraceInto(dst []collective.Event, tr collective.Trace) collective.Trace {
	return ScaleTraceBytesInto(dst, tr, 1, 2)
}
func (f32Codec) SparseMsgBytes(nnz int) int { return 8 + (4+4)*nnz }
func (f32Codec) DenseMsgBytes(dim int) int  { return 4 + wire.DenseEntryBytes*dim/2 }
func (f32Codec) ZMsgBytes(nnz int) int      { return 4 + 8*nnz }

// EncodeSparseBlocks applies c's lossy sparse value rounding independently
// to each contiguous block of a global-coordinate vector: offs lists the
// len(blocks)+1 cumulative block boundaries (offs[0] == 0, offs[last] ==
// v.Dim). Quantizing codecs derive their max-abs scale per block — matching
// what the sharded collective's separate per-owner messages would
// experience if each block traveled as its own vector — and exact codecs
// are no-ops. Top-k kinds round values only (selection is State's job,
// exactly as in Codec.EncodeSparse).
func EncodeSparseBlocks(c Codec, v *sparse.Vector, offs []int) {
	var bits int
	switch c.Kind() {
	case SparseQ8, TopKQ8:
		bits = 8
	case SparseQ16:
		bits = 16
	case DenseF32:
		RoundF32Sparse(v)
		return
	default:
		return
	}
	if len(offs) < 2 || offs[0] != 0 || offs[len(offs)-1] != v.Dim {
		panic("exchange: EncodeSparseBlocks offsets must cover [0, Dim]")
	}
	// Linear cursor, not per-block binary search: in-place compaction
	// rewrites the prefix while later blocks still need their original
	// entries, so reads must stay ahead of writes (kept <= consumed holds
	// throughout).
	levels := float64(int(1)<<(bits-1) - 1)
	n := len(v.Index)
	kept, r := 0, 0
	for b := 0; b+1 < len(offs); b++ {
		hi := int32(offs[b+1])
		start := r
		var scale float64
		for r < n && v.Index[r] < hi {
			if a := math.Abs(v.Value[r]); a > scale {
				scale = a
			}
			r++
		}
		if scale == 0 {
			continue
		}
		for k := start; k < r; k++ {
			q := math.Round(v.Value[k] / scale * levels)
			if val := q / levels * scale; val != 0 {
				v.Index[kept] = v.Index[k]
				v.Value[kept] = val
				kept++
			}
		}
	}
	v.Index = v.Index[:kept]
	v.Value = v.Value[:kept]
}

// ScaleTraceBytes multiplies every event's byte count by num/den — how
// lossy codecs rescale a trace built at nominal entry sizes without
// forking the collectives. The input trace is never mutated.
func ScaleTraceBytes(tr collective.Trace, num, den int) collective.Trace {
	return ScaleTraceBytesInto(nil, tr, num, den)
}

// ScaleTraceBytesInto is ScaleTraceBytes writing the scaled events into
// dst's backing array, which grows only when too small. The returned
// trace aliases dst (when large enough), never tr's events.
func ScaleTraceBytesInto(dst []collective.Event, tr collective.Trace, num, den int) collective.Trace {
	dst = dst[:0]
	for _, e := range tr.Events {
		e.Bytes = e.Bytes * num / den
		dst = append(dst, e)
	}
	return collective.Trace{Steps: tr.Steps, Events: dst}
}

// EntryBytes returns the wire size of one sparse element under b-bit
// quantization: 4-byte index plus bits/8 value bytes (12 bytes exact).
func EntryBytes(bits int) int {
	if bits == 8 || bits == 16 {
		return 4 + bits/8
	}
	return wire.SparseEntryBytes
}

// QuantizeSparseBits rounds a sparse vector's values to b-bit fixed point
// with a per-vector scale (max-abs), in place — the Q-GADMM-style lossy
// communication option. b must be 8 or 16; exact zeros after rounding are
// dropped to preserve the no-stored-zeros invariant.
func QuantizeSparseBits(v *sparse.Vector, bits int) {
	if v.NNZ() == 0 {
		return
	}
	var scale float64
	for _, val := range v.Value {
		if a := math.Abs(val); a > scale {
			scale = a
		}
	}
	if scale == 0 {
		return
	}
	levels := float64(int(1)<<(bits-1) - 1)
	kept := 0
	for i := range v.Value {
		q := math.Round(v.Value[i] / scale * levels)
		val := q / levels * scale
		if val != 0 {
			v.Index[kept] = v.Index[i]
			v.Value[kept] = val
			kept++
		}
	}
	v.Index = v.Index[:kept]
	v.Value = v.Value[:kept]
}

// RoundF32Sparse rounds a sparse vector's values to float32 precision.
func RoundF32Sparse(v *sparse.Vector) {
	for i, val := range v.Value {
		v.Value[i] = float64(float32(val))
	}
	// float32 rounding cannot produce new zeros from nonzeros except for
	// subnormal underflow; drop those to preserve the no-stored-zeros
	// invariant.
	kept := 0
	for i := range v.Value {
		if v.Value[i] != 0 {
			v.Index[kept] = v.Index[i]
			v.Value[kept] = v.Value[i]
			kept++
		}
	}
	v.Index = v.Index[:kept]
	v.Value = v.Value[:kept]
}
