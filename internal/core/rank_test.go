package core

import (
	"math"
	"slices"
	"strings"
	"testing"

	"psrahgadmm/internal/checkpoint"
	"psrahgadmm/internal/dataset"
	"psrahgadmm/internal/exchange"
	"psrahgadmm/internal/sparse"
	"psrahgadmm/internal/transport"
	"psrahgadmm/internal/wlg"
)

func newRanks(t *testing.T, cfg Config, train *dataset.Dataset) []*Rank {
	t.Helper()
	shards := train.Shard(cfg.Topo.Size())
	ranks := make([]*Rank, len(shards))
	for r, sh := range shards {
		ranks[r] = NewRank(cfg, r, sh)
	}
	return ranks
}

// runRanks drives a world of ranks through an in-process WLG run with the
// exact codec and one global group, iterations [start, end). With stores,
// rank r saves to stores[r] every fifth iteration, as psra-worker does.
func runRanks(t *testing.T, cfg Config, ranks []*Rank, start, end int, stores []checkpoint.Store) {
	t.Helper()
	fab := transport.NewChanFabric(wlg.WorldSize(cfg.Topo))
	defer fab.Close()
	wcfg := wlg.Config{Topo: cfg.Topo, MaxIter: end, StartIter: start}
	if _, err := wlg.RunWithInfo(fab, wcfg, func(r int) wlg.WorkerFuncs {
		rk := ranks[r]
		return wlg.WorkerFuncs{
			ComputeW: rk.ComputeW,
			ApplyW: func(iter int, bigW []float64, n int) {
				rk.ApplyW(iter, bigW, n)
				if stores != nil && (iter+1)%5 == 0 {
					if err := rk.SaveSnapshot(stores[r], iter+1); err != nil {
						t.Error(err)
					}
				}
			},
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestRankStartIterResumeIsBitIdentical: a world stopped after iteration
// 10, its ranks rebuilt and restored from their snapshots and run on from
// StartIter 10, ends on the uninterrupted run's z bit for bit.
func TestRankStartIterResumeIsBitIdentical(t *testing.T) {
	train, _ := testData(t, 160)
	cfg := baseConfig(PSRAHGADMM, 2, 2)
	const cut, total = 10, 20

	whole := newRanks(t, cfg, train)
	runRanks(t, cfg, whole, 0, total, nil)

	stores := make([]checkpoint.Store, cfg.Topo.Size())
	for r := range stores {
		stores[r] = checkpoint.NewMemStore()
	}
	runRanks(t, cfg, newRanks(t, cfg, train), 0, cut, stores)
	resumed := newRanks(t, cfg, train)
	for r, rk := range resumed {
		if iter, err := rk.RestoreSnapshot(stores[r]); err != nil || iter != cut {
			t.Fatalf("rank %d restore: iteration %d, err %v; want iteration %d", r, iter, err, cut)
		}
	}
	runRanks(t, cfg, resumed, cut, total, nil)

	for r := range whole {
		want, got := whole[r].Z(), resumed[r].Z()
		nnz := 0
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("rank %d: resumed z[%d] = %v, uninterrupted %v", r, i, got[i], want[i])
			}
			if want[i] != 0 {
				nnz++
			}
		}
		if nnz == 0 {
			t.Fatalf("rank %d ended on the zero model; the comparison would be vacuous", r)
		}
	}
}

// TestRankRefusesSnapshotThatDoesNotFit: a record the engine's checkSnap
// refuses — or no record for the rank at all — is an error naming why, and
// the rank keeps its state.
func TestRankRefusesSnapshotThatDoesNotFit(t *testing.T) {
	train, _ := testData(t, 160)
	cfg := baseConfig(PSRAHGADMM, 2, 2)
	ranks := newRanks(t, cfg, train)
	runRanks(t, cfg, ranks, 0, 3, nil)
	const victim = 1
	target := ranks[victim]
	if target.w.zSparse.NNZ() == 0 {
		t.Fatal("z is still zero after three rounds; the fixture needs entries")
	}
	dim := target.w.dim
	if len(target.w.xA) == dim {
		t.Fatal("the shard touches every column; a full-dimension XA would fit")
	}
	save := func(rk *Rank) []byte {
		st := checkpoint.NewMemStore()
		if err := rk.SaveSnapshot(st, 3); err != nil {
			t.Fatal(err)
		}
		blob, _, _ := st.Load()
		return blob
	}
	// Rank 1 of a 1×2 world holds twice the rows, so another active set.
	wide := Config{Topo: cfg.Topo, Rho: cfg.Rho, Lambda: cfg.Lambda}
	wide.Topo.Nodes, wide.Topo.WorkersPerNode = 1, 2
	otherLayout := newRanks(t, wide, train)[victim]
	if len(otherLayout.w.xA) == len(target.w.xA) {
		t.Fatal("the other layout's shard has the same active width; the fixture needs another")
	}
	outside, err := exchange.DecodeSnapshot(save(target))
	if err != nil {
		t.Fatal(err)
	}
	s := &outside.Workers[0]
	s.ZIdx[len(s.ZIdx)-1] = int32(dim)
	full := make([]float64, dim)
	parentWorker := &exchange.Snapshot{Algorithm: "psra-worker", Iter: 3, Rho: 1, Workers: []exchange.WorkerSnap{
		{Rank: victim, XA: full, YA: full, ZDense: full},
	}}

	for _, tc := range []struct {
		name string
		blob []byte
		want string
	}{
		{"another rank's record", save(ranks[0]), "no record for rank 1"},
		{"another shard layout", save(otherLayout), "state shape"},
		{"a z view outside the subscription", exchange.EncodeSnapshot(outside), "out of range"},
		{"a full-dimension XA as earlier psra-worker builds wrote", exchange.EncodeSnapshot(parentWorker), "state shape"},
	} {
		st := checkpoint.NewMemStore()
		if err := st.Save(tc.blob); err != nil {
			t.Fatal(err)
		}
		before := holdState(target.w)
		if _, err := target.RestoreSnapshot(st); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
		if d := before.diff(holdState(target.w)); d != "" {
			t.Errorf("%s: the refused restore changed %s", tc.name, d)
		}
	}

	st := checkpoint.NewMemStore()
	if _, err := target.RestoreSnapshot(st); err == nil || !strings.Contains(err.Error(), "no usable snapshot") {
		t.Errorf("empty store: error %v, want one saying there is no usable snapshot", err)
	}
	if err := st.Save(save(target)); err != nil {
		t.Fatal(err)
	}
	if iter, err := target.RestoreSnapshot(st); err != nil || iter != 3 {
		t.Fatalf("own record: iteration %d, err %v; want 3, nil", iter, err)
	}
}

// TestRankRejoinedAndLocalLoss: Rejoined(j, W, n) warm-starts z to
// zFromW(W, n) bit for bit and keeps x and y; a nil W changes nothing.
// LocalLoss(z) is the shard's logistic loss at z.
func TestRankRejoinedAndLocalLoss(t *testing.T) {
	train, _ := testData(t, 160)
	cfg := baseConfig(PSRAHGADMM, 2, 2)
	ranks := newRanks(t, cfg, train)
	runRanks(t, cfg, ranks, 0, 3, nil) // x, y and z away from zero
	rk := ranks[1]
	xA, yA, z := slices.Clone(rk.w.xA), slices.Clone(rk.w.yA), rk.Z()
	bits := func(v []float64) []uint64 {
		out := make([]uint64, len(v))
		for i, f := range v {
			out[i] = math.Float64bits(f)
		}
		return out
	}
	kept := func(what string, wantZ []float64) {
		t.Helper()
		if !slices.Equal(bits(rk.Z()), bits(wantZ)) {
			t.Fatalf("%s: z = %v, want %v", what, rk.Z(), wantZ)
		}
		if !slices.Equal(bits(rk.w.xA), bits(xA)) || !slices.Equal(bits(rk.w.yA), bits(yA)) {
			t.Fatalf("%s: x or y changed", what)
		}
	}

	rk.Rejoined(5, nil, 3)
	kept("cold start", z)

	bigW := make([]float64, len(z))
	for i := range bigW {
		bigW[i] = float64(i%11-5) * 0.3
	}
	want := zFromW(new(sparse.Vector), sparse.FromDense(bigW), cfg.Lambda, cfg.Rho, 3).ToDense()
	if slices.Equal(bits(want), bits(z)) || slices.Equal(want, make([]float64, len(want))) {
		t.Fatal("the warm start would not show: pick another W")
	}
	rk.Rejoined(5, bigW, 3)
	kept("warm start", want)

	sh := train.Shard(cfg.Topo.Size())[1]
	var loss float64
	for r := 0; r < sh.Rows(); r++ {
		cols, vals := sh.X.Row(r)
		m := 0.0
		for k, c := range cols {
			m += vals[k] * want[c]
		}
		loss += math.Log(1 + math.Exp(-sh.Labels[r]*m))
	}
	if got := rk.LocalLoss(want); loss == 0 || math.Abs(got-loss) > 1e-12*loss {
		t.Fatalf("LocalLoss = %v, the shard's loss is %v", got, loss)
	}
}
