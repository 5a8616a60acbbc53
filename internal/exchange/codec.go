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
	"slices"

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
	// point with a per-vector max-abs scale (Q-GADMM-style): every sparse
	// entry costs 4 index bytes plus bits/8 value bytes on the wire. z still
	// travels at full precision (it is already thresholded and sparse).
	SparseQ8  Kind = "sparse-q8"
	SparseQ16 Kind = "sparse-q16"
	// Dense ships full dense float64 vectors (the master-worker
	// baselines' exchange).
	Dense Kind = "dense"
	// DenseF32 ships dense vectors rounded to float32 precision at half
	// the bytes (ADMMLib's single-precision parameter exchange); the
	// thresholded z fans out as 4-byte index + 4-byte value entries.
	DenseF32 Kind = "dense-f32"
	// TopK keeps only the k largest-magnitude coordinates of each
	// contribution, exact float64 values (12-byte entries).
	TopK Kind = "topk"
	// TopKQ8 composes top-k selection with the 8-bit quantizer: the k
	// survivors travel as 5-byte entries, and the quantization error joins
	// the dropped coordinates in the error-feedback residual.
	TopKQ8 Kind = "topk-q8"
)

// Codec is one row of the exchange-representation axis: a kind is fully
// described by whether it is charged as dense vectors, its value precision,
// how a nominal trace rescales to its wire format, and what the consensus
// iterate costs. Everything a codec does derives from its row. Selection and
// error feedback — the top-k kinds' other half — need per-rank memory and
// run through State.Encode (topk.go); a State-less call site rounds values
// only, so it degrades to the exact/q8 codec instead of silently dropping
// coordinates.
type Codec struct {
	kind Kind
	// dense: the exchange is charged as full dense vectors, not index/value
	// sparse payloads.
	dense bool
	// bits is the value precision: 0 exact float64, 8 or 16 fixed point
	// against a max-abs scale, 32 float32.
	bits int
	// twelfths rescales a trace built at nominal sizes (12-byte sparse or
	// 8-byte dense entries) to the wire format, bytes·twelfths/12: 12 is the
	// identity, 5 and 6 the q8/q16 entry, 6 also float32's halving. One
	// constant denominator keeps the per-event division a multiply.
	twelfths int
	// zHeader + zEntry·nnz is the wire payload of the consensus iterate. The
	// z indices always travel exactly; only value precision varies.
	zHeader, zEntry int
}

// exact is the twelfths of a kind whose traces travel at nominal size.
const exact = wire.SparseEntryBytes

// The axis: kind, dense, bits, twelfths, z header, z entry.
var codecs = []Codec{
	{Sparse, false, 0, exact, 8, wire.SparseEntryBytes},
	{SparseQ8, false, 8, EntryBytes(8), 8, wire.SparseEntryBytes},
	{SparseQ16, false, 16, EntryBytes(16), 8, wire.SparseEntryBytes},
	{Dense, true, 0, exact, 4, wire.SparseEntryBytes},
	{DenseF32, true, 32, exact / 2, 4, 4 + 4},
	{TopK, false, 0, exact, 8, wire.SparseEntryBytes},
	{TopKQ8, false, 8, EntryBytes(8), 8, wire.SparseEntryBytes},
}

// Kinds lists every implemented codec.
func Kinds() []Kind {
	out := make([]Kind, len(codecs))
	for i, c := range codecs {
		out[i] = c.kind
	}
	return out
}

// For returns the codec implementing kind.
func For(kind Kind) (Codec, error) {
	for _, c := range codecs {
		if c.kind == kind {
			return c, nil
		}
	}
	return Codec{}, fmt.Errorf("exchange: unknown codec %q", kind)
}

// IsTopK reports whether kind is a top-k sparsifying codec (and therefore
// needs a per-rank State to be convergent).
func IsTopK(k Kind) bool { return k == TopK || k == TopKQ8 }

func (c Codec) Kind() Kind { return c.kind }

// DenseExchange reports whether the exchange is charged as full dense
// vectors (true) or index/value sparse payloads (false).
func (c Codec) DenseExchange() bool { return c.dense }

// EncodeSparse lossily rounds a sparse vector's values in place to what
// survives the wire, dropping entries that round to zero. Exact codecs are
// no-ops.
func (c Codec) EncodeSparse(v *sparse.Vector) {
	if c.bits == 0 {
		return
	}
	offs := [2]int{0, v.Dim}
	EncodeSparseBlocks(c, v, offs[:])
}

// ScaleTrace rescales a collective trace — logged at nominal sparse
// (12-byte-entry) or dense (8-byte-entry) sizes — to this codec's wire
// format, in place. Identity codecs leave it untouched. A trace is scaled
// once, where it is charged: the rescale is not idempotent.
func (c Codec) ScaleTrace(tr collective.Trace) {
	if c.twelfths == exact {
		return
	}
	for i := range tr.Events {
		tr.Events[i].Bytes = tr.Events[i].Bytes * c.twelfths / exact
	}
}

// WireTrace is ScaleTrace on a copy: the input trace is never mutated.
// Identity codecs return it as it is, without copying.
func (c Codec) WireTrace(tr collective.Trace) collective.Trace {
	if c.twelfths != exact {
		tr.Events = slices.Clone(tr.Events)
		c.ScaleTrace(tr)
	}
	return tr
}

// SparseMsgBytes is the nominal payload of one sparse vector with nnz
// entries, before ScaleTrace.
func (c Codec) SparseMsgBytes(nnz int) int {
	if c.bits == 32 {
		return 8 + (4+4)*nnz
	}
	return 8 + wire.SparseEntryBytes*nnz
}

// DenseMsgBytes is the wire payload of one dense vector of dim entries.
func (c Codec) DenseMsgBytes(dim int) int {
	if c.bits == 32 {
		return 4 + wire.DenseEntryBytes*dim/2
	}
	return 4 + wire.DenseEntryBytes*dim
}

// ZMsgBytes is the wire payload of the distributed consensus iterate with
// nnz nonzeros.
func (c Codec) ZMsgBytes(nnz int) int { return c.zHeader + c.zEntry*nnz }

// EncodeSparseBlocks applies c's lossy sparse value rounding independently
// to each contiguous block of a global-coordinate vector: offs lists the
// len(blocks)+1 cumulative block boundaries (offs[0] == 0, offs[last] ==
// v.Dim). Quantizing codecs derive their max-abs scale per block — matching
// what the sharded collective's separate per-owner messages would
// experience if each block traveled as its own vector — and exact codecs
// are no-ops. Top-k kinds round values only (selection is State's job).
func EncodeSparseBlocks(c Codec, v *sparse.Vector, offs []int) {
	switch c.bits {
	case 0:
		return
	case 32:
		RoundF32Sparse(v)
		return
	}
	if len(offs) < 2 || offs[0] != 0 || offs[len(offs)-1] != v.Dim {
		panic("exchange: EncodeSparseBlocks offsets must cover [0, Dim]")
	}
	// Linear cursor, not per-block binary search: in-place compaction
	// rewrites the prefix while later blocks still need their original
	// entries, so reads must stay ahead of writes (kept <= consumed holds
	// throughout). Exact zeros after rounding are dropped to preserve the
	// no-stored-zeros invariant.
	levels := float64(int(1)<<(c.bits-1) - 1)
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
// communication option, and EncodeSparseBlocks over the one block [0, Dim).
// b must be 8 or 16.
func QuantizeSparseBits(v *sparse.Vector, bits int) { Codec{bits: bits}.EncodeSparse(v) }

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
