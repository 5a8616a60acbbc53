package dataset

import (
	"fmt"
	"math/rand"

	"psrahgadmm/internal/sparse"
)

// Row-order transformations applied to datasets before training.

// Shuffle permutes the sample order deterministically from seed. Row
// sharding is contiguous, so shuffling first removes any ordering bias in
// how samples were collected (class-sorted files would otherwise give
// workers one-class shards).
func (d *Dataset) Shuffle(seed int64) {
	r := rand.New(rand.NewSource(seed))
	perm := r.Perm(d.Rows())
	d.Reorder(perm)
}

// Reorder rebuilds the dataset with rows in the given order; perm must be
// a permutation of [0, Rows).
func (d *Dataset) Reorder(perm []int) {
	if len(perm) != d.Rows() {
		panic("dataset: Reorder permutation length mismatch")
	}
	src := d.X
	out := NewLike(d.Name, src.NCols, src.NNZ())
	labels := make([]float64, 0, len(perm))
	seen := make([]bool, len(perm))
	for _, r := range perm {
		if r < 0 || r >= d.Rows() || seen[r] {
			panic(fmt.Sprintf("dataset: Reorder invalid permutation entry %d", r))
		}
		seen[r] = true
		cols, vals := src.Row(r)
		out.X.AppendRow(cols, vals)
		labels = append(labels, d.Labels[r])
	}
	d.X = out.X
	d.Labels = labels
}

// NewLike returns an empty dataset with the given name, dimension and
// nonzero capacity.
func NewLike(name string, dim, nnz int) *Dataset {
	return &Dataset{
		Name:   name,
		X:      sparse.NewCSR(0, dim, nnz),
		Labels: nil,
	}
}
