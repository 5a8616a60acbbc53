package dataset

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"psrahgadmm/internal/raceflag"
)

// digest is a SHA-256 over both splits' RowPtr, ColIdx, Float64bits(Val)
// and Labels, in that order: equal digests mean equal bits.
func digest(train, test *Dataset) string {
	h := sha256.New()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, d := range []*Dataset{train, test} {
		put(uint64(d.X.NRows))
		put(uint64(d.X.NCols))
		for _, p := range d.X.RowPtr {
			put(uint64(p))
		}
		for _, c := range d.X.ColIdx {
			put(uint64(c))
		}
		for _, v := range d.X.Val {
			put(math.Float64bits(v))
		}
		for _, l := range d.Labels {
			put(math.Float64bits(l))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// wideDraw is the benchmark's wide dataset (wideSynth in
// benchmark/workloads.go) at draw 1.
var wideDraw = SynthConfig{Name: "wide", Dim: 16000, TrainRows: 512, TestRows: 8, RowNNZ: 6, ZipfS: 1.4, SignalNNZ: 60, NoiseFlip: 0.02, Seed: 1}

// digestConfigs are the draws TestGenerateDigests pins: the presets at
// small scales, the benchmark's wide draw, the experiment datasets of
// internal/bench, and dimensions at or below the Zipf sampler's head.
var digestConfigs = []SynthConfig{
	News20Like(0.0005, 11),
	News20Like(0.001, 42),
	News20Like(0.02, 3),
	WebspamLike(0.0002, 5),
	WebspamLike(0.001, 6),
	URLLike(0.0001, 7),
	URLLike(0.001, 8),
	wideDraw,
	{Name: "news20", Dim: 24000, TrainRows: 640, TestRows: 160, RowNNZ: 15, ZipfS: 1.3, SignalNNZ: 60, NoiseFlip: 0.02, Seed: 1},
	{Name: "news20", Dim: 90000, TrainRows: 2560, TestRows: 640, RowNNZ: 40, ZipfS: 1.3, SignalNNZ: 120, NoiseFlip: 0.02, Seed: 1},
	{Name: "webspam", Dim: 180000, TrainRows: 3840, TestRows: 960, RowNNZ: 80, ZipfS: 1.2, SignalNNZ: 200, NoiseFlip: 0.01, Seed: 2},
	{Name: "url", Dim: 120000, TrainRows: 5120, TestRows: 1280, RowNNZ: 25, ZipfS: 1.15, SignalNNZ: 150, NoiseFlip: 0.03, Seed: 3},
	{Name: "one", Dim: 1, TrainRows: 20, TestRows: 5, RowNNZ: 1, ZipfS: 1.3, SignalNNZ: 1, NoiseFlip: 0.1, Seed: 4},
	{Name: "two", Dim: 2, TrainRows: 50, TestRows: 5, RowNNZ: 1, ZipfS: 2, SignalNNZ: 2, NoiseFlip: 0.1, Seed: 5},
	{Name: "eleven", Dim: 11, TrainRows: 200, TestRows: 20, RowNNZ: 6, ZipfS: 1.01, SignalNNZ: 5, NoiseFlip: 0.05, Seed: 6},
	{Name: "head", Dim: 256, TrainRows: 300, TestRows: 30, RowNNZ: 60, ZipfS: 1.3, SignalNNZ: 40, NoiseFlip: 0.02, Seed: 7},
	{Name: "steep", Dim: 5000, TrainRows: 200, TestRows: 20, RowNNZ: 3, ZipfS: 3, SignalNNZ: 4, Seed: 8},
	{Name: "flat", Dim: 300000, TrainRows: 100, TestRows: 10, RowNNZ: 30, ZipfS: 1.0001, SignalNNZ: 100, NoiseFlip: 0.2, Seed: 9},
}

// TestGenerateDigests pins every bit Generate draws for digestConfigs.
// The digests were recorded with the map-and-rand.Zipf draw this package
// used before its stamp draw and table-driven sampler, so a change to
// either that moves a single bit fails here.
func TestGenerateDigests(t *testing.T) {
	want := []string{
		"8333b4dffe979c3639cd01f1837bb38a5601c1c4cf571115691b621193443c53", // 0 news20
		"759306f15003903cf659e7dd5288db449867133481ae13275e77ec14ee0bc6c0", // 1 news20
		"91ce597fe022a59b2c1c2f9494a35e760641e2344992e22307b1bd6c00db06df", // 2 news20
		"a7ca1422127cf448659b8f2dcf7baf472f962ae5ef1f334ea49c13daf79f52c5", // 3 webspam
		"c2593a9257ce4d533f54a4838eaef8680f8bcb3c46c61df3bba611d77eb0e458", // 4 webspam
		"f78018976e177c4205c42fed59a0a1a9988edfe80b69e93deb6050a4ad3ef201", // 5 url
		"28d86255b9505b9ad08a5403103a011fd8f64094761dff4eeae0032cdb500964", // 6 url
		"e45552522598d435e1e78a8c6ca29a4a5c5074a896b64eef0dcda7eadb3f40e9", // 7 wide
		"23cfb1dc22cece84d8fb7d0b00b75e279b0238b2beebdbae8177a629cdedf2ea", // 8 news20
		"87d0480ceb0bb22a1b028c96e98372ec334b00380f586f80338c0170ab944786", // 9 news20
		"f952495c261bcd3c469620a4320355ac3b7045237a645e9d7d535427d66eaba2", // 10 webspam
		"42493cba72ee678c73e3d5aaab3ae5af308532cb51d3313a6b2023ab7c970dd4", // 11 url
		"c4721190c8b511e9a9ee21a58bf87e737b58eb0e4c3145ee365157d561daac38", // 12 one
		"57b64e68d99820180639bf85000d43223732cf203f03a7bc7a4b025d855cc2f4", // 13 two
		"f283d011c999970518fc1126b214e2840440c312481f1bcf3cf482ac36ddcffd", // 14 eleven
		"131f0117e72c858caa88f24349ada5acdc9f63fcfbdc1c78bb6e6b8d027c4814", // 15 head
		"e7766948cb1e9d7676ad5ea54b73c0811cbcb10e537cd2433976292a0dfdb56a", // 16 steep
		"7ef9d481b2d4371b514a8556060fd2f86640cee27ff2b0bfa73584c13d57c85e", // 17 flat
	}
	for i, cfg := range digestConfigs {
		train, test, err := Generate(cfg)
		if err != nil {
			t.Fatalf("config %d (%s): %v", i, cfg.Name, err)
		}
		got := digest(train, test)
		if i < len(want) && got != want[i] {
			t.Errorf("config %d (%+v): digest %s, want %s", i, cfg, got, want[i])
		}
	}
	if len(want) != len(digestConfigs) {
		t.Fatalf("%d digests for %d configs", len(want), len(digestConfigs))
	}
}

// TestGenerateAllocBudget: Generate allocates per call, not per row, so
// news20-like draws at two scales make the same small number of
// allocations.
func TestGenerateAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector inflates allocation counts")
	}
	allocs := func(cfg SynthConfig) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, _, err := Generate(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(News20Like(0.01, 1)), allocs(News20Like(0.02, 1))
	if small != large || large > 40 {
		t.Fatalf("Generate allocates %v times at news20 0.01 and %v at 0.02; want equal counts, at most 40", small, large)
	}
}

func BenchmarkGenerate(b *testing.B) {
	for _, cfg := range []SynthConfig{
		News20Like(0.02, 1),
		wideDraw,
	} {
		b.Run(cfg.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := Generate(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
