package dataset

import (
	"math/rand"
	"strings"
	"testing"
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

func TestReorder(t *testing.T) {
	d := transformFixture(t)
	orig := make([]float64, d.Rows())
	copy(orig, d.Labels)
	nnz := d.NNZ()
	perm := rand.New(rand.NewSource(3)).Perm(d.Rows())
	d.Reorder(perm)
	if err := d.Check(); err != nil {
		t.Fatal(err)
	}
	if d.NNZ() != nnz || d.Rows() != len(orig) {
		t.Fatal("reorder lost data")
	}
	for i, r := range perm {
		if d.Labels[i] != orig[r] {
			t.Fatalf("row %d has label %v, want row %d's %v", i, d.Labels[i], r, orig[r])
		}
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
