package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"psrahgadmm/internal/sparse"
)

// SynthConfig parameterizes the synthetic generator. A linear model w* with
// SignalNNZ nonzero weights over the most popular features is planted;
// features per row are drawn from a Zipf popularity distribution (text-like
// long tail) and labels are sign(w*·a) with NoiseFlip label noise.
type SynthConfig struct {
	Name      string
	Dim       int
	TrainRows int
	TestRows  int
	// RowNNZ is the mean number of nonzeros per row; a row holds 1 to
	// 2·RowNNZ−1 distinct features, so 2·RowNNZ−1 may not exceed Dim.
	RowNNZ int
	// ZipfS > 1 controls feature popularity skew; larger = heavier head.
	ZipfS float64
	// SignalNNZ is the support size of the planted weight vector.
	SignalNNZ int
	// NoiseFlip is the probability a label is flipped.
	NoiseFlip float64
	Seed      int64
}

func (c SynthConfig) validate() error {
	switch {
	case c.Dim <= 0:
		return fmt.Errorf("dataset: Dim must be positive")
	case c.TrainRows <= 0:
		return fmt.Errorf("dataset: TrainRows must be positive")
	case c.TestRows < 0:
		return fmt.Errorf("dataset: TestRows must be non-negative")
	case c.RowNNZ <= 0 || c.RowNNZ > (c.Dim+1)/2:
		return fmt.Errorf("dataset: RowNNZ %d out of (0,%d]: a row holds up to 2·RowNNZ−1 of Dim %d features", c.RowNNZ, (c.Dim+1)/2, c.Dim)
	case !(c.ZipfS > 1) || math.IsInf(c.ZipfS, 1):
		return fmt.Errorf("dataset: ZipfS %v must be finite and exceed 1", c.ZipfS)
	case c.SignalNNZ <= 0 || c.SignalNNZ > c.Dim:
		return fmt.Errorf("dataset: SignalNNZ %d out of (0,%d]", c.SignalNNZ, c.Dim)
	case !(c.NoiseFlip >= 0 && c.NoiseFlip < 0.5):
		return fmt.Errorf("dataset: NoiseFlip %v out of [0,0.5)", c.NoiseFlip)
	}
	return nil
}

// Generate builds the train and test splits deterministically from
// cfg.Seed.
//
// A row draws its length, then Zipf features until it holds that many
// distinct ones, each new feature drawing its value. A per-feature stamp
// (the last row that drew it) finds the repeats and a per-feature scratch
// holds the values until the row's columns are sorted, so a row costs no
// allocation.
func Generate(cfg SynthConfig) (train, test *Dataset, err error) {
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	zipf := newZipf(r, cfg.ZipfS, uint64(cfg.Dim-1))

	// Planted weights on the SignalNNZ most popular features (low Zipf
	// ranks), so most rows touch some signal.
	w := make([]float64, cfg.Dim)
	for i := 0; i < cfg.SignalNNZ; i++ {
		w[i] = r.NormFloat64() * 2
	}

	stamp := make([]int32, cfg.Dim) // 1 + the index of the last row to draw the feature
	val := make([]float64, cfg.Dim)
	row := int32(0)
	cols := make([]int32, 0, 2*cfg.RowNNZ-1)
	vals := make([]float64, 0, 2*cfg.RowNNZ-1)
	gen := func(rows int, suffix string) *Dataset {
		// Row lengths are uniform on [1, 2·RowNNZ−1], with mean RowNNZ and
		// standard deviation about RowNNZ/√3: four deviations of the sum
		// above the mean leave a regrowth about once in 30,000 draws.
		capNNZ := rows*cfg.RowNNZ + int(4*math.Sqrt(float64(rows)/3)*float64(cfg.RowNNZ))
		m := sparse.NewCSR(rows, cfg.Dim, capNNZ)
		labels := make([]float64, rows)
		for i := 0; i < rows; i++ {
			nnz := 1 + r.Intn(2*cfg.RowNNZ-1)
			row++
			cols = cols[:0]
			for len(cols) < nnz {
				f := int32(zipf.Uint64())
				if stamp[f] == row {
					continue
				}
				stamp[f] = row
				// tf-idf-like positive magnitudes.
				val[f] = 0.2 + math.Abs(r.NormFloat64())
				cols = append(cols, f)
			}
			slices.Sort(cols)
			vals = vals[:0]
			margin := 0.0
			for _, c := range cols {
				v := val[c]
				vals = append(vals, v)
				margin += v * w[c]
			}
			m.AppendRow(cols, vals)
			label := 1.0
			if margin < 0 {
				label = -1
			}
			if r.Float64() < cfg.NoiseFlip {
				label = -label
			}
			labels[i] = label
		}
		return &Dataset{Name: cfg.Name + suffix, X: m, Labels: labels}
	}
	train = gen(cfg.TrainRows, "")
	test = gen(cfg.TestRows, "/test")
	return train, test, nil
}

// Paper-corpus presets. scale ∈ (0, 1] shrinks dimension and row counts
// proportionally (floors keep the problems meaningful); scale = 1
// reproduces Table 1's sizes. The default experiment scale in package
// bench is chosen so a full figure sweep runs in seconds on a laptop.
//
//	paper Table 1:  dataset   dim         train      test
//	                news20    1,355,191   16,000     3,996
//	                webspam   16,609,143  300,000    50,000
//	                url       3,231,961   2,000,000  396,130
func scaled(v int, scale float64, floor int) int {
	s := int(float64(v) * scale)
	if s < floor {
		s = floor
	}
	return s
}

// rowScale is the presets' multiplier on nonzeros per row: rows thin ten
// times slower than the dimension shrinks, and from scale 0.1 on they hold
// the corpus' own count.
func rowScale(scale float64) float64 { return math.Min(1, scale*10) }

// News20Like mimics news20.binary: bag-of-words text, ~455 nonzeros per
// row over 1.35M features, heavy Zipf head.
func News20Like(scale float64, seed int64) SynthConfig {
	return SynthConfig{
		Name:      "news20",
		Dim:       scaled(1355191, scale, 256),
		TrainRows: scaled(16000, scale, 64),
		TestRows:  scaled(3996, scale, 16),
		RowNNZ:    scaled(455, rowScale(scale), 12),
		ZipfS:     1.3,
		SignalNNZ: scaled(2000, scale, 32),
		NoiseFlip: 0.02,
		Seed:      seed,
	}
}

// WebspamLike mimics webspam (trigram): extremely high dimension (16.6M),
// ~3700 nonzeros per row, very sparse relative to dimension.
func WebspamLike(scale float64, seed int64) SynthConfig {
	return SynthConfig{
		Name:      "webspam",
		Dim:       scaled(16609143, scale, 512),
		TrainRows: scaled(300000, scale, 96),
		TestRows:  scaled(50000, scale, 16),
		RowNNZ:    scaled(3730, rowScale(scale), 20),
		ZipfS:     1.2,
		SignalNNZ: scaled(4000, scale, 48),
		NoiseFlip: 0.01,
		Seed:      seed,
	}
}

// URLLike mimics the url reputation corpus: 3.2M features, ~115 nonzeros
// per row, many near-binary features, mild skew.
func URLLike(scale float64, seed int64) SynthConfig {
	return SynthConfig{
		Name:      "url",
		Dim:       scaled(3231961, scale, 384),
		TrainRows: scaled(2000000, scale, 128),
		TestRows:  scaled(396130, scale, 24),
		RowNNZ:    scaled(115, rowScale(scale), 10),
		ZipfS:     1.15,
		SignalNNZ: scaled(3000, scale, 40),
		NoiseFlip: 0.03,
		Seed:      seed,
	}
}

// Preset returns the paper preset called name (news20, webspam or url) at
// the given scale. A scale outside (0, 1] is refused: below it the presets'
// floors draw a different problem, above it a draw larger than the paper's.
func Preset(name string, scale float64, seed int64) (SynthConfig, error) {
	mk, ok := map[string]func(float64, int64) SynthConfig{
		"news20": News20Like, "webspam": WebspamLike, "url": URLLike,
	}[name]
	if !ok {
		return SynthConfig{}, fmt.Errorf("unknown preset %q (news20 | webspam | url)", name)
	}
	if !(scale > 0 && scale <= 1) {
		return SynthConfig{}, fmt.Errorf("scale %v outside (0, 1]", scale)
	}
	return mk(scale, seed), nil
}

// PaperPresets returns the three Table 1 dataset configs at the given
// scale, in the paper's order.
func PaperPresets(scale float64, seed int64) []SynthConfig {
	return []SynthConfig{
		News20Like(scale, seed),
		WebspamLike(scale, seed+1),
		URLLike(scale, seed+2),
	}
}
