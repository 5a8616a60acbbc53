// Package dataset provides the training data substrate: LIBSVM-format
// reading/writing, row sharding for data parallelism, and seeded synthetic
// generators that stand in for the paper's corpora (news20, webspam, url —
// Table 1), which are multi-gigabyte downloads this offline module cannot
// fetch. The generators match each corpus's *shape* — dimensionality,
// per-row sparsity, feature-popularity skew, label balance — which is what
// the convergence and communication behaviour of sparse consensus ADMM
// depends on.
package dataset

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"psrahgadmm/internal/sparse"
)

// Dataset is a labeled sparse design matrix: one row per sample, labels in
// {−1, +1}.
type Dataset struct {
	Name   string
	X      *sparse.CSR
	Labels []float64
}

// Rows returns the number of samples.
func (d *Dataset) Rows() int { return d.X.NRows }

// Dim returns the feature dimension.
func (d *Dataset) Dim() int { return d.X.NCols }

// NNZ returns the total stored nonzeros.
func (d *Dataset) NNZ() int { return d.X.NNZ() }

// Density returns NNZ / (rows·dim).
func (d *Dataset) Density() float64 {
	if d.Rows() == 0 || d.Dim() == 0 {
		return 0
	}
	return float64(d.NNZ()) / (float64(d.Rows()) * float64(d.Dim()))
}

// Check validates matrix invariants and label values.
func (d *Dataset) Check() error {
	if err := d.X.Check(); err != nil {
		return err
	}
	if len(d.Labels) != d.X.NRows {
		return fmt.Errorf("dataset: %d labels for %d rows", len(d.Labels), d.X.NRows)
	}
	for i, l := range d.Labels {
		if l != 1 && l != -1 {
			return fmt.Errorf("dataset: label[%d] = %v, want ±1", i, l)
		}
	}
	return nil
}

// Shard splits the dataset into n contiguous row shards of nearly equal
// size, the data-parallel distribution the paper uses (one shard per
// worker). Shards own copies of their rows.
func (d *Dataset) Shard(n int) []*Dataset {
	if n <= 0 {
		panic("dataset: Shard requires n >= 1")
	}
	out := make([]*Dataset, n)
	base := d.Rows() / n
	rem := d.Rows() % n
	lo := 0
	for i := 0; i < n; i++ {
		size := base
		if i < rem {
			size++
		}
		hi := lo + size
		out[i] = &Dataset{
			Name:   fmt.Sprintf("%s/shard%d", d.Name, i),
			X:      d.X.RowSlice(lo, hi),
			Labels: append([]float64(nil), d.Labels[lo:hi]...),
		}
		lo = hi
	}
	return out
}

// Concat joins datasets row-wise into one (the inverse of Shard, up to
// row order). All parts must share the feature dimension. Used to
// reassemble the surviving workers' shards when computing a degraded
// run's reference optimum.
func Concat(name string, parts ...*Dataset) (*Dataset, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("dataset: Concat needs at least one part")
	}
	dim := parts[0].Dim()
	rows, nnz := 0, 0
	for _, p := range parts {
		if p.Dim() != dim {
			return nil, fmt.Errorf("dataset: Concat dimension mismatch: %d vs %d", p.Dim(), dim)
		}
		rows += p.Rows()
		nnz += p.NNZ()
	}
	out := &Dataset{
		Name:   name,
		X:      sparse.NewCSR(0, dim, nnz),
		Labels: make([]float64, 0, rows),
	}
	for _, p := range parts {
		for r := 0; r < p.Rows(); r++ {
			cols, vals := p.X.Row(r)
			out.X.AppendRow(cols, vals)
		}
		out.Labels = append(out.Labels, p.Labels...)
	}
	return out, nil
}

// Accuracy returns the fraction of samples whose sign(xᵀa) matches the
// label; ties (zero margin) count as wrong, matching LIBLINEAR.
func (d *Dataset) Accuracy(x []float64) float64 {
	if d.Rows() == 0 {
		return 0
	}
	correct := 0
	for r := 0; r < d.Rows(); r++ {
		m := d.X.RowDot(r, x)
		if (m > 0 && d.Labels[r] > 0) || (m < 0 && d.Labels[r] < 0) {
			correct++
		}
	}
	return float64(correct) / float64(d.Rows())
}

// ReadLIBSVM parses the LIBSVM text format ("label idx:val idx:val ...") as
// LIBLINEAR's read_problem does, in one pass straight into the CSR: indices
// are 1-based and strictly ascend within a line, labels and values are
// finite. Labels > 0 map to +1, all others to −1. Zero values are not stored,
// blank and '#' lines are skipped, and a bare label is a row with no
// features. If dim <= 0 the dimension is the largest index with a nonzero
// value (1 if none); otherwise a larger one is refused. Every refusal is an
// error naming the line.
func ReadLIBSVM(r io.Reader, dim int, name string) (*Dataset, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	m := sparse.NewCSR(0, max(dim, 1), 0)
	d := &Dataset{Name: name, X: m, Labels: []float64{}}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		lab, err := strconv.ParseFloat(fields[0], 64)
		if err != nil || math.IsNaN(lab) || math.IsInf(lab, 0) {
			return nil, fmt.Errorf("dataset: line %d: bad label %q", lineNo, fields[0])
		}
		prev := int64(0)
		for _, f := range fields[1:] {
			is, vs, ok := strings.Cut(f, ":")
			if !ok {
				return nil, fmt.Errorf("dataset: line %d: bad feature %q", lineNo, f)
			}
			idx, err := strconv.ParseInt(is, 10, 32)
			if err != nil || idx <= prev {
				return nil, fmt.Errorf("dataset: line %d: bad index %q after index %d", lineNo, is, prev)
			}
			prev = idx
			val, err := strconv.ParseFloat(vs, 64)
			if err != nil || math.IsNaN(val) || math.IsInf(val, 0) {
				return nil, fmt.Errorf("dataset: line %d: bad value %q", lineNo, vs)
			}
			if val == 0 {
				continue
			}
			if int(idx) > m.NCols {
				if dim > 0 {
					return nil, fmt.Errorf("dataset: line %d: index %d exceeds dim %d", lineNo, idx, dim)
				}
				m.NCols = int(idx)
			}
			m.ColIdx = append(m.ColIdx, int32(idx-1))
			m.Val = append(m.Val, val)
		}
		m.RowPtr = append(m.RowPtr, int64(len(m.ColIdx)))
		m.NRows++
		if lab > 0 {
			d.Labels = append(d.Labels, 1)
		} else {
			d.Labels = append(d.Labels, -1)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dataset: line %d: %w", lineNo+1, err)
	}
	return d, nil
}

// WriteLIBSVM writes the dataset in LIBSVM text format (1-based indices).
func WriteLIBSVM(w io.Writer, d *Dataset) error {
	bw := bufio.NewWriter(w)
	for r := 0; r < d.Rows(); r++ {
		if d.Labels[r] > 0 {
			if _, err := bw.WriteString("+1"); err != nil {
				return err
			}
		} else {
			if _, err := bw.WriteString("-1"); err != nil {
				return err
			}
		}
		cols, vals := d.X.Row(r)
		for k, c := range cols {
			if _, err := fmt.Fprintf(bw, " %d:%.17g", c+1, vals[k]); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Stats summarizes a dataset for Table 1 style reporting.
type Stats struct {
	Name    string
	Dim     int
	Rows    int
	NNZ     int
	Density float64
	PosFrac float64
}

// Summary computes the dataset's Stats.
func (d *Dataset) Summary() Stats {
	pos := 0
	for _, l := range d.Labels {
		if l > 0 {
			pos++
		}
	}
	pf := 0.0
	if d.Rows() > 0 {
		pf = float64(pos) / float64(d.Rows())
	}
	return Stats{
		Name:    d.Name,
		Dim:     d.Dim(),
		Rows:    d.Rows(),
		NNZ:     d.NNZ(),
		Density: d.Density(),
		PosFrac: pf,
	}
}
