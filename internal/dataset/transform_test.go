package dataset

import (
	"strings"
	"testing"

	"psrahgadmm/internal/vec"
)

func transformFixture(t *testing.T) *Dataset {
	t.Helper()
	d, err := ReadLIBSVM(strings.NewReader(
		"+1 1:3 2:4\n-1 2:2\n+1 3:10\n-1 1:1 3:2\n+1 2:6\n-1 1:5\n"), 3, "fx")
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestShuffleAndReorder(t *testing.T) {
	d := transformFixture(t)
	orig := make([]float64, d.Rows())
	copy(orig, d.Labels)
	nnz := d.NNZ()
	d.Shuffle(3)
	if err := d.Check(); err != nil {
		t.Fatal(err)
	}
	if d.NNZ() != nnz || d.Rows() != len(orig) {
		t.Fatal("shuffle lost data")
	}
	// Same multiset of labels.
	var sumA, sumB float64
	for i := range orig {
		sumA += orig[i]
		sumB += d.Labels[i]
	}
	if sumA != sumB {
		t.Fatal("labels changed")
	}
	// Deterministic: same seed, same order.
	e := transformFixture(t)
	e.Shuffle(3)
	if !vec.Equal(d.Labels, e.Labels) {
		t.Fatal("shuffle not deterministic")
	}
}

func TestReorderRejectsBadPermutation(t *testing.T) {
	d := transformFixture(t)
	for _, bad := range [][]int{
		{0, 0, 2, 3, 4, 5},
		{0, 1, 2},
		{0, 1, 2, 3, 4, 9},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("permutation %v accepted", bad)
				}
			}()
			d.Reorder(bad)
		}()
	}
}
