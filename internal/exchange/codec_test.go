package exchange

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"psrahgadmm/internal/collective"
	"psrahgadmm/internal/raceflag"
	"psrahgadmm/internal/sparse"
	"psrahgadmm/internal/wire"
)

func TestForCoversEveryKind(t *testing.T) {
	for _, k := range Kinds() {
		c, err := For(k)
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		if c.Kind() != k {
			t.Fatalf("%s: Kind() returned %s", k, c.Kind())
		}
	}
	if _, err := For("bogus"); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

// TestEncodeSparseAllocFree: every codec rounds a contribution in the
// caller's buffer, so a warmed EncodeSparse allocates nothing, whatever the
// kind.
func TestEncodeSparseAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	for _, k := range Kinds() {
		c, err := For(k)
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		v := benchSparse(rand.New(rand.NewSource(7)), 1<<12, 0.05)
		if a := testing.AllocsPerRun(20, func() { c.EncodeSparse(v) }); a != 0 {
			t.Errorf("%s: warmed EncodeSparse allocates %v objects, want 0", k, a)
		}
	}
}

func TestDenseExchangeFlag(t *testing.T) {
	for k, want := range map[Kind]bool{
		Sparse: false, SparseQ8: false, SparseQ16: false,
		Dense: true, DenseF32: true,
		TopK: false, TopKQ8: false,
	} {
		c, _ := For(k)
		if c.DenseExchange() != want {
			t.Fatalf("%s: DenseExchange = %v", k, c.DenseExchange())
		}
	}
}

func TestExactCodecsAreIdentity(t *testing.T) {
	for _, k := range []Kind{Sparse, Dense} {
		c, _ := For(k)
		v := sparse.FromDense([]float64{0.1, 0, -2.5})
		c.EncodeSparse(v)
		if v.NNZ() != 2 || v.Value[0] != 0.1 || v.Value[1] != -2.5 {
			t.Fatalf("%s: exact codec changed values", k)
		}
	}
}

// TestWireTraceScaling pins every row of the codec table: each accessor,
// the rescale of one fixed trace and the rounding of one fixed vector, as
// literals, so a mistyped row fails here and not in a golden history three
// packages away.
func TestWireTraceScaling(t *testing.T) {
	tr := collective.Trace{Steps: 1, Events: []collective.Event{
		{From: 0, To: 1, Bytes: 120}, {From: 1, To: 0, Bytes: 7},
	}}
	exactIdx, exactVal := []int32{0, 2, 3, 5, 7}, []float64{1, -0.5, 0.3, 1e-4, 1e-300}
	q8Idx, q8Val := []int32{0, 2, 3}, []float64{1, -0.5039370078740157, 0.2992125984251969}
	cases := []struct {
		kind               Kind
		dense              bool
		sparse10, dense100 int    // SparseMsgBytes(10), DenseMsgBytes(100)
		z7                 int    // ZMsgBytes(7)
		wire               [2]int // WireTrace of {120, 7}
		encIdx             []int32
		encVal             []float64
	}{
		{Sparse, false, 128, 804, 92, [2]int{120, 7}, exactIdx, exactVal},
		{SparseQ8, false, 128, 804, 92, [2]int{50, 2}, q8Idx, q8Val}, // 12-byte entries → 5
		{SparseQ16, false, 128, 804, 92, [2]int{60, 3}, []int32{0, 2, 3, 5}, // → 6
			[]float64{1, -0.500015259254738, 0.2999969481490524, 9.155552842799158e-05}},
		{Dense, true, 128, 804, 88, [2]int{120, 7}, exactIdx, exactVal},
		{DenseF32, true, 88, 404, 60, [2]int{60, 3}, []int32{0, 2, 3, 5}, // halved values
			[]float64{1, -0.5, 0.30000001192092896, 9.999999747378752e-05}},
		{TopK, false, 128, 804, 92, [2]int{120, 7}, exactIdx, exactVal},
		{TopKQ8, false, 128, 804, 92, [2]int{50, 2}, q8Idx, q8Val},
	}
	if len(cases) != len(Kinds()) {
		t.Fatalf("%d rows pinned, %d kinds implemented", len(cases), len(Kinds()))
	}
	for _, tc := range cases {
		c, err := For(tc.kind)
		if err != nil {
			t.Fatal(err)
		}
		if c.Kind() != tc.kind || c.DenseExchange() != tc.dense {
			t.Fatalf("%s: Kind %s, DenseExchange %v", tc.kind, c.Kind(), c.DenseExchange())
		}
		if s, d, z := c.SparseMsgBytes(10), c.DenseMsgBytes(100), c.ZMsgBytes(7); s != tc.sparse10 || d != tc.dense100 || z != tc.z7 {
			t.Fatalf("%s: SparseMsgBytes(10) %d, DenseMsgBytes(100) %d, ZMsgBytes(7) %d, want %d, %d, %d",
				tc.kind, s, d, z, tc.sparse10, tc.dense100, tc.z7)
		}
		got := c.WireTrace(tr)
		if got.Steps != 1 || len(got.Events) != 2 || got.Events[0].Bytes != tc.wire[0] || got.Events[1].Bytes != tc.wire[1] {
			t.Fatalf("%s: WireTrace %+v, want bytes %v", tc.kind, got, tc.wire)
		}
		if tr.Events[0].Bytes != 120 || tr.Events[1].Bytes != 7 {
			t.Fatalf("%s: WireTrace mutated its input", tc.kind)
		}
		v := sparse.FromDense([]float64{1, 0, -0.5, 0.3, 0, 1e-4, 0, 1e-300})
		c.EncodeSparse(v)
		if v.Dim != 8 || !slices.Equal(v.Index, tc.encIdx) || !slices.Equal(v.Value, tc.encVal) {
			t.Fatalf("%s: EncodeSparse gave %v %v, want %v %v", tc.kind, v.Index, v.Value, tc.encIdx, tc.encVal)
		}
	}
}

// TestTracedBytesMatchEncoded pins the message-size accounting to the
// bytes the wire codec actually produces, for every codec: the nominal
// sizes the strategies feed into traces (*MsgBytes, computed from the
// POST-encode payload) must equal wire.PayloadBytes of the message the
// fabric ships, and ScaleTrace must map those recorded sizes to the
// codec's modeled wire cost with the documented num/den scaling. This is
// what keeps the virtual cost model honest after encoders drop entries
// (quantization rounds small values to exact zero).
func TestTracedBytesMatchEncoded(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dense := make([]float64, 64)
	for i := range dense {
		dense[i] = rng.NormFloat64() * 1e-2
	}
	// A vector with a huge max-abs entry so 8-bit quantization rounds the
	// tiny values to zero — exercising the dropped-entry accounting.
	spVals := append([]float64{1e6}, dense...)
	for _, k := range Kinds() {
		c, _ := For(k)
		v := sparse.FromDense(spVals)
		c.EncodeSparse(v)
		x := dense

		// The frames the in-process and TCP fabrics actually ship.
		spMsg := wire.SparseMsg(0, v)
		dnMsg := wire.DenseMsg(0, x)
		spFrame, err := wire.AppendMessage(nil, spMsg)
		if err != nil {
			t.Fatal(err)
		}
		if len(spFrame) != wire.EncodedBytes(&spMsg) {
			t.Fatalf("%s: encoded sparse frame %d bytes, EncodedBytes %d", k, len(spFrame), wire.EncodedBytes(&spMsg))
		}
		dnFrame, err := wire.AppendMessage(nil, dnMsg)
		if err != nil {
			t.Fatal(err)
		}
		if len(dnFrame) != wire.EncodedBytes(&dnMsg) {
			t.Fatalf("%s: encoded dense frame %d bytes, EncodedBytes %d", k, len(dnFrame), wire.EncodedBytes(&dnMsg))
		}
		spActual := wire.PayloadBytes(spMsg)
		dnActual := wire.PayloadBytes(dnMsg)

		// Nominal accounting must equal the actual encoded payload for the
		// formats that travel as-is (sparse contributions, dense float64).
		if k != DenseF32 {
			if got := c.SparseMsgBytes(v.NNZ()); got != spActual {
				t.Fatalf("%s: SparseMsgBytes(%d) = %d, encoded payload %d", k, v.NNZ(), got, spActual)
			}
		}
		if k == Sparse || k == Dense {
			if got := c.DenseMsgBytes(len(x)); got != dnActual {
				t.Fatalf("%s: DenseMsgBytes(%d) = %d, encoded payload %d", k, len(x), got, dnActual)
			}
			if got := c.ZMsgBytes(v.NNZ()); k == Sparse && got != spActual {
				t.Fatalf("%s: ZMsgBytes(%d) = %d, encoded payload %d", k, v.NNZ(), got, spActual)
			}
		}

		// WireTrace maps the recorded (actual) sizes to modeled wire cost.
		tr := collective.Trace{Steps: 1, Events: []collective.Event{
			{Step: 0, From: 0, To: 1, Bytes: spActual},
			{Step: 0, From: 1, To: 0, Bytes: dnActual},
		}}
		var wantSp, wantDn int
		switch k {
		case Sparse, Dense, TopK:
			wantSp, wantDn = spActual, dnActual
		case SparseQ8, TopKQ8:
			wantSp, wantDn = spActual*5/12, dnActual*5/12
		case SparseQ16:
			wantSp, wantDn = spActual*6/12, dnActual*6/12
		case DenseF32:
			wantSp, wantDn = spActual/2, dnActual/2
		}
		scaled := c.WireTrace(tr)
		if scaled.Events[0].Bytes != wantSp || scaled.Events[1].Bytes != wantDn {
			t.Fatalf("%s: WireTrace bytes (%d,%d), want (%d,%d)",
				k, scaled.Events[0].Bytes, scaled.Events[1].Bytes, wantSp, wantDn)
		}
		// ScaleTrace rescales in place to the same events, allocating
		// nothing; WireTrace left its input alone.
		inPlace := collective.Trace{Steps: tr.Steps, Events: slices.Clone(tr.Events)}
		c.ScaleTrace(inPlace)
		if !slices.Equal(inPlace.Events, scaled.Events) {
			t.Fatalf("%s: ScaleTrace events %+v, want %+v", k, inPlace.Events, scaled.Events)
		}
		if tr.Events[0].Bytes != spActual || tr.Events[1].Bytes != dnActual {
			t.Fatalf("%s: WireTrace mutated its input", k)
		}
		if !raceflag.Enabled {
			if allocs := testing.AllocsPerRun(100, func() { c.ScaleTrace(inPlace) }); allocs != 0 {
				t.Fatalf("%s: ScaleTrace allocates %.1f times", k, allocs)
			}
		}
	}
}

func TestQuantizeSparseBitsBound(t *testing.T) {
	v := sparse.FromDense([]float64{1, -0.5, 0.3, 0, 1e-4})
	QuantizeSparseBits(v, 8)
	x := v.ToDense()
	// Max-abs element is exactly representable, a stored zero never
	// appears, and a value below half a level rounds away; every element
	// stays within half a quantization level of its original.
	if x[0] != 1 || x[3] != 0 || x[4] != 0 || v.NNZ() != 3 || v.Check() != nil {
		t.Fatalf("endpoints moved: %+v", v)
	}
	if math.Abs(x[1]+0.5) > 0.5/127+1e-12 || math.Abs(x[2]-0.3) > 0.5/127+1e-12 {
		t.Fatalf("quantization error too large: %v", x)
	}
	// The empty vector is a no-op.
	z := sparse.NewVector(2, 0)
	QuantizeSparseBits(z, 8)
	if z.NNZ() != 0 || z.Dim != 2 {
		t.Fatal("zero vector changed")
	}
}

func TestRoundF32DropsUnderflow(t *testing.T) {
	v := sparse.FromDense([]float64{1.5, 1e-300})
	RoundF32Sparse(v)
	if v.NNZ() != 1 || v.Value[0] != 1.5 {
		t.Fatalf("subnormal underflow not dropped: %+v", v)
	}
	if err := v.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestMessageByteFormulas(t *testing.T) {
	sp, _ := For(Sparse)
	f32, _ := For(DenseF32)
	if sp.SparseMsgBytes(10) != 8+12*10 {
		t.Fatalf("sparse msg bytes %d", sp.SparseMsgBytes(10))
	}
	if sp.DenseMsgBytes(100) != 4+8*100 {
		t.Fatalf("dense msg bytes %d", sp.DenseMsgBytes(100))
	}
	if f32.DenseMsgBytes(100) != 4+8*100/2 {
		t.Fatalf("f32 dense msg bytes %d", f32.DenseMsgBytes(100))
	}
	if f32.ZMsgBytes(7) != 4+8*7 {
		t.Fatalf("f32 z msg bytes %d", f32.ZMsgBytes(7))
	}
}
