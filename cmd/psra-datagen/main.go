// Command psra-datagen writes synthetic LIBSVM datasets shaped after the
// paper's corpora (Table 1):
//
//	psra-datagen -preset webspam -scale 0.001 -out webspam_small
//
// produces webspam_small.train.svm and webspam_small.test.svm.
package main

import (
	"flag"
	"fmt"
	"os"

	psra "psrahgadmm"
	"psrahgadmm/internal/dataset"
)

func main() {
	var (
		preset = flag.String("preset", "news20", "news20 | webspam | url | custom")
		scale  = flag.Float64("scale", 0.001, "preset scale in (0,1]; 1.0 = paper-size")
		seed   = flag.Int64("seed", 1, "generation seed")
		out    = flag.String("out", "", "output path prefix (default: the preset name)")

		dim    = flag.Int("dim", 10000, "custom: feature dimension")
		rows   = flag.Int("rows", 1000, "custom: training rows")
		test   = flag.Int("testrows", 200, "custom: test rows")
		rowNNZ = flag.Int("rownnz", 20, "custom: mean nonzeros per row (a row holds up to 2·rownnz−1, at most -dim)")
		zipf   = flag.Float64("zipf", 1.3, "custom: feature popularity skew (finite, >1)")
		signal = flag.Int("signal", 100, "custom: planted weight support size")
		noise  = flag.Float64("noise", 0.02, "custom: label flip probability")
	)
	flag.Parse()

	cfg := psra.SynthConfig{
		Name: "custom", Dim: *dim, TrainRows: *rows, TestRows: *test,
		RowNNZ: *rowNNZ, ZipfS: *zipf, SignalNNZ: *signal,
		NoiseFlip: *noise, Seed: *seed,
	}
	if *preset != "custom" {
		var err error
		if cfg, err = psra.Preset(*preset, *scale, *seed); err != nil {
			fatal(fmt.Errorf("-preset %s -scale %v: %w", *preset, *scale, err))
		}
	}

	train, testSet, err := psra.Generate(cfg)
	if err != nil {
		fatal(err)
	}
	prefix := *out
	if prefix == "" {
		prefix = cfg.Name
	}
	if err := write(prefix+".train.svm", train); err != nil {
		fatal(err)
	}
	if err := write(prefix+".test.svm", testSet); err != nil {
		fatal(err)
	}
	s := train.Summary()
	fmt.Printf("wrote %s.train.svm (%d×%d, %d nnz, density %.2e) and %s.test.svm (%d rows)\n",
		prefix, s.Rows, s.Dim, s.NNZ, s.Density, prefix, testSet.Rows())
}

func write(path string, d *psra.Dataset) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return dataset.WriteLIBSVM(f, d)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "psra-datagen:", err)
	os.Exit(1)
}
