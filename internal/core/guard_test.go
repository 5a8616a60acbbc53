package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"psrahgadmm/internal/checkpoint"
	"psrahgadmm/internal/exchange"
	"psrahgadmm/internal/membership"
	"psrahgadmm/internal/solver"
	"psrahgadmm/internal/sparse"
	"psrahgadmm/internal/watchdog"
)

// A rank holds z twice: the sparse view over its subscription and zA, z at
// its active columns. The iteration tail's guards cost the nonzeros they
// protect: the watchdog scans zSparse.Value and the checkpoint carries z
// once, sparse. Both rest on one invariant — zA is the view read at the
// active columns, +0 where the view has no entry — and on restore
// validating what keepZ trusts. These tests pin the invariant, the
// validation, and the equivalence with the dense scan and the
// dense-carrying snapshot earlier builds used.

func bitsEqual(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// heldState is a private, bit-level copy of everything a snapshot restores
// into a worker.
type heldState struct {
	x, y, zA, zVal  []float64
	zIdx            []int32
	clock, calTotal float64
}

func holdState(w *worker) heldState {
	return heldState{
		x: slices.Clone(w.xA), y: slices.Clone(w.yA), zA: slices.Clone(w.zA),
		zVal: slices.Clone(w.zSparse.Value), zIdx: slices.Clone(w.zSparse.Index),
		clock: w.clock, calTotal: w.calTotal,
	}
}

func (a heldState) diff(b heldState) string {
	switch {
	case !bitsEqual(a.x, b.x):
		return "x"
	case !bitsEqual(a.y, b.y):
		return "y"
	case !bitsEqual(a.zA, b.zA):
		return "zA"
	case !slices.Equal(a.zIdx, b.zIdx) || !bitsEqual(a.zVal, b.zVal):
		return "zSparse"
	case math.Float64bits(a.clock) != math.Float64bits(b.clock) || math.Float64bits(a.calTotal) != math.Float64bits(b.calTotal):
		return "clock"
	}
	return ""
}

// zAIsView reports how w breaks the invariant the x-update, the dual update
// and the sparse-only snapshot rest on: zSparse is a well-formed vector
// inside the subscription, and zA[i] is its value at active[i] bit for bit,
// +0 where it has no entry.
func zAIsView(w *worker) error {
	if err := w.zSparse.Check(); err != nil {
		return err
	}
	if w.zSparse.Dim != w.dim {
		return fmt.Errorf("zSparse.Dim %d, worker dim %d", w.zSparse.Dim, w.dim)
	}
	for _, idx := range w.zSparse.Index {
		if b := w.smap.Part.BlockOf(int(idx)); !slices.Contains(w.smap.Subs[w.rank], int32(b)) {
			return fmt.Errorf("zSparse index %d lies in unsubscribed block %d", idx, b)
		}
	}
	if len(w.zA) != len(w.active) {
		return fmt.Errorf("len(zA) = %d, %d active columns", len(w.zA), len(w.active))
	}
	dense := w.zSparse.ToDense() // +0 off the support
	for i, c := range w.active {
		if math.Float64bits(w.zA[i]) != math.Float64bits(dense[c]) {
			return fmt.Errorf("zA[%d] (column %d) = %v (bits %x), the view has %v", i, c, w.zA[i], math.Float64bits(w.zA[i]), dense[c])
		}
	}
	return nil
}

// subscriptionDense is w's view written densely over its subscription, the
// concatenation of its subscribed blocks: the ZDense earlier builds wrote.
func subscriptionDense(w *worker) []float64 {
	dense := w.zSparse.ToDense()
	var out []float64
	for i := range w.smap.Subs[w.rank] {
		lo, hi := w.sub(i)
		out = append(out, dense[lo:hi]...)
	}
	return out
}

// awkwardSparse is movingSparse with the values a shortcut would get wrong
// mixed in: NaN, ±Inf and subnormals (a stored zero is not a well-formed
// sparse vector and no producer emits one).
func awkwardSparse(r *rand.Rand, dim int) *sparse.Vector {
	v := movingSparse(r, dim)
	odd := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 5e-324, -1e-310}
	for k := range v.Value {
		if r.Intn(6) == 0 {
			v.Value[k] = odd[r.Intn(len(odd))]
		}
	}
	return v
}

// fixtureEnv is the part of a run's environment buildSnapshot and
// applySnapshot read, over fixture workers. The store is only there for a
// membership restore to drop its live-count cache.
func fixtureEnv(ws []*worker) *strategyEnv {
	for _, w := range ws {
		w.obj = &solver.LogisticProx{} // setRho's target
	}
	return &strategyEnv{ws: ws, dim: ws[0].dim, members: membership.NewTracker(len(ws)), store: &stateStore{}}
}

// Property: after ANY sequence of keepZ, the flat apply (blocks with no live
// subscriber, entries the threshold zeroes), rejoin and snapshot restore,
// zA is the view at the active columns bit for bit and +0 where the view
// has no entry — on the replicated full map and on a multi-block sharded
// map, with NaN, ±Inf and subnormal values — and a restore brings back
// exactly the state the snapshot was taken from.
func TestActiveZIsViewAtActiveColumns(t *testing.T) {
	for _, full := range []bool{true, false} {
		for seed := int64(1); seed <= 40; seed++ {
			r := rand.New(rand.NewSource(seed))
			blocks := 1
			if !full {
				blocks = 2 + r.Intn(11)
			}
			m, ws := storeFixtureOn(r, 30+r.Intn(60), blocks, 1+r.Intn(4), full)
			env, dim := fixtureEnv(ws), m.Part.Dim
			cfg := Config{Algorithm: PSRAADMM, Rho: 1}
			strat := &flatStrategy{} // a zero frame: no strategy scalar to carry
			zPrev, res := make([]float64, dim), &Result{}
			var blob []byte
			var saved []heldState
			counts := make([]int, m.Part.Blocks)
			for step := 0; step < 40; step++ {
				op := r.Intn(5)
				switch op {
				case 0:
					v := awkwardSparse(r, dim)
					for _, w := range ws {
						w.keepZ(v)
					}
				case 1:
					v := awkwardSparse(r, dim)
					for b := range counts {
						counts[b] = r.Intn(len(ws) + 1) // 0: no live subscriber
					}
					// λ up to 6 against N(0, 4²) values: a good share of the
					// entries threshold to exactly 0 and must leave no trace.
					c := Config{Lambda: r.Float64() * 6, Rho: r.Float64() + 0.1}
					for _, w := range ws {
						applyFlat(w, c, v, partOffs(m.Part), counts)
					}
				case 2:
					v := awkwardSparse(r, dim)
					for _, w := range ws {
						w.rejoin(v, float64(step))
					}
				case 3:
					blob = exchange.EncodeSnapshot(buildSnapshot(cfg, env, strat, step, zPrev, res))
					saved = saved[:0]
					for _, w := range ws {
						saved = append(saved, holdState(w))
					}
				case 4:
					if blob == nil {
						continue
					}
					snap, err := exchange.DecodeSnapshot(blob)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := applySnapshot(snap, &cfg, env, strat, zPrev, res, true); err != nil {
						t.Fatalf("full=%v seed %d step %d: restore: %v", full, seed, step, err)
					}
					for i, w := range ws {
						if d := saved[i].diff(holdState(w)); d != "" {
							t.Fatalf("full=%v seed %d step %d: rank %d's %s is not what the snapshot was taken from", full, seed, step, i, d)
						}
					}
				}
				for _, w := range ws {
					if err := zAIsView(w); err != nil {
						t.Fatalf("full=%v seed %d step %d (op %d) rank %d: %v", full, seed, step, op, w.rank, err)
					}
				}
			}
		}
	}
}

// TestApplySnapshotRejectsHostileZ: a CRC-valid file is still outside
// input. Each rule keepZ relies on has one snapshot that breaks only it;
// every one must be refused with an error and leave every worker — also the
// ranks listed before the bad one — exactly as it was.
func TestApplySnapshotRejectsHostileZ(t *testing.T) {
	train, _ := testData(t, 160)
	cfg := baseConfig(PSRAHGADMMSharded, 2, 2)
	cfg.ShardBlocks = 100 // two columns a block: every rank leaves many unsubscribed
	env, strat := newTestStrategy(t, cfg, train)
	for iter := 0; iter < 3; iter++ {
		if _, err := strat.Round(cfg, iter); err != nil {
			t.Fatal(err)
		}
	}
	zPrev, res := make([]float64, env.dim), &Result{}
	good := exchange.EncodeSnapshot(buildSnapshot(cfg, env, strat, 3, zPrev, res))

	const victim = 2 // not the first rank: the ranks before it must stay untouched too
	w := env.ws[victim]
	if w.zSparse.NNZ() < 2 {
		t.Fatalf("rank %d holds %d z entries after three rounds; the fixture needs two", victim, w.zSparse.NNZ())
	}
	outside := -1 // a column of a block the victim does not subscribe to
	for b := 0; b < w.smap.Part.Blocks && outside < 0; b++ {
		if _, ok := slices.BinarySearch(w.smap.Subs[victim], int32(b)); !ok {
			outside = w.smap.Part.Chunk(b).Lo
		}
	}
	if outside < 0 {
		t.Fatalf("rank %d subscribes to every block; the fixture needs an unsubscribed one", victim)
	}

	hostile := []struct {
		rule   string
		mutate func(s *exchange.WorkerSnap)
		want   string
	}{
		{"ZIdx longer than ZVal", func(s *exchange.WorkerSnap) { s.ZVal = s.ZVal[:len(s.ZVal)-1] }, "length mismatch"},
		{"ZIdx repeats an index", func(s *exchange.WorkerSnap) { s.ZIdx[1] = s.ZIdx[0] }, "strictly increasing"},
		{"ZIdx descends", func(s *exchange.WorkerSnap) { s.ZIdx[0], s.ZIdx[1] = s.ZIdx[1], s.ZIdx[0] }, "strictly increasing"},
		{"ZIdx negative", func(s *exchange.WorkerSnap) { s.ZIdx[0] = -1 }, "strictly increasing"},
		{"ZIdx past the dimension", func(s *exchange.WorkerSnap) { s.ZIdx[len(s.ZIdx)-1] = int32(env.dim) }, "out of range"},
		{"ZIdx leaves the subscription", func(s *exchange.WorkerSnap) {
			at, _ := slices.BinarySearch(s.ZIdx, int32(outside))
			s.ZIdx = slices.Insert(s.ZIdx, at, int32(outside))
			s.ZVal = slices.Insert(s.ZVal, at, 1.5)
		}, "outside the rank's subscription"},
		{"ZVal stores a zero", func(s *exchange.WorkerSnap) { s.ZVal[0] = 0 }, "stored zero"},
		{"ZDense one longer than the subscription", func(s *exchange.WorkerSnap) { s.ZDense = make([]float64, len(subscriptionDense(w))+1) }, "state shape"},
		{"ZDense of the global dimension on a sharded rank", func(s *exchange.WorkerSnap) { s.ZDense = make([]float64, env.dim) }, "state shape"},
	}
	for _, h := range hostile {
		snap, err := exchange.DecodeSnapshot(good)
		if err != nil {
			t.Fatal(err)
		}
		if int(snap.Workers[victim].Rank) != victim {
			t.Fatal("snapshot workers are not in rank order")
		}
		h.mutate(&snap.Workers[victim])
		before := make([]heldState, len(env.ws))
		for i, w := range env.ws {
			// Move every worker off the snapshot's state first, so "left as
			// it was" cannot pass because the restore happened to be a no-op.
			w.keepZ(sparse.NewVector(env.dim, 0))
			w.xA[0]++
			before[i] = holdState(w)
		}
		run := cfg
		_, err = applySnapshot(snap, &run, env, strat, zPrev, res, false)
		if err == nil || !strings.Contains(err.Error(), h.want) || !strings.Contains(err.Error(), fmt.Sprintf("rank %d", victim)) {
			t.Errorf("%s: error %v, want one naming rank %d and %q", h.rule, err, victim, h.want)
		}
		for i, w := range env.ws {
			if d := before[i].diff(holdState(w)); d != "" {
				t.Errorf("%s: rejected restore changed rank %d's %s", h.rule, i, d)
			}
		}
	}
	// The unmutated snapshot still restores.
	snap, err := exchange.DecodeSnapshot(good)
	if err != nil {
		t.Fatal(err)
	}
	run := cfg
	if iter, err := applySnapshot(snap, &run, env, strat, zPrev, res, false); err != nil || iter != 3 {
		t.Fatalf("clean snapshot: iter %d, err %v", iter, err)
	}
}

// TestNaNInZViewOnlyTripsRollsBackAndReplays plants a NaN in ONE rank's z
// view and nowhere else — x and y clean, so only the z scan can see it; the
// z-update itself cannot produce this (SoftThreshold maps a NaN aggregate to
// 0), which is why the plant goes through afterRound. The watchdog must trip
// that iteration with the message a dense scan of z gives — the global
// coordinate is the dense index under the replicated placement — roll back
// to the last snapshot and replay to the fault-free history.
func TestNaNInZViewOnlyTripsRollsBackAndReplays(t *testing.T) {
	train, test := testData(t, 160)
	mk := func() Config {
		cfg := baseConfig(PSRAHGADMM, 3, 2)
		cfg.MaxIter = 20
		cfg.Watchdog = watchdog.Config{Enabled: true}
		return cfg
	}
	clean, err := Run(mk(), train, RunOptions{Test: test})
	if err != nil {
		t.Fatal(err)
	}

	const rank, tripIter = 4, 12
	planted, coord, dense := false, int32(-1), ""
	res, err := Run(mk(), train, RunOptions{
		Test:       test,
		Checkpoint: &CheckpointOptions{Store: checkpoint.NewMemStore(), Every: 5},
		afterRound: func(iter int, env *strategyEnv) {
			if iter != tripIter || planted {
				return
			}
			planted = true
			w := env.ws[rank]
			z := w.zSparse.Clone()
			k := z.NNZ() / 2 // mid-support: the first hit is not the first entry
			z.Value[k] = math.NaN()
			coord = z.Index[k]
			w.keepZ(z)
			dense = watchdog.ScanNonFinite([]string{"x", "y", "z"}, w.xA, w.yA, subscriptionDense(w))
		},
	})
	if err != nil {
		t.Fatalf("planted NaN was not recovered: %v", err)
	}
	if !planted {
		t.Fatal("the plant never fired")
	}
	if len(res.Rollbacks) != 1 {
		t.Fatalf("Rollbacks = %+v, want exactly one", res.Rollbacks)
	}
	rb := res.Rollbacks[0]
	want := fmt.Sprintf("non-finite iterate on rank %d: z[%d] = NaN", rank, coord)
	if rb.Reason != want || rb.Reason != fmt.Sprintf("non-finite iterate on rank %d: %s", rank, dense) {
		t.Fatalf("trip reason %q, want %q (the dense scan of the same state says %q)", rb.Reason, want, dense)
	}
	if rb.TripIter != tripIter || rb.ToIter != 10 {
		t.Fatalf("rolled back %d → %d, want %d → 10", rb.TripIter, rb.ToIter, tripIter)
	}
	if len(res.History) != len(clean.History) {
		t.Fatalf("history length %d after rollback, want %d", len(res.History), len(clean.History))
	}
	for i := range clean.History {
		if !statBitEqual(res.History[i], clean.History[i]) {
			t.Fatalf("iteration %d differs from the fault-free run after rollback:\ngot  %+v\nwant %+v", i, res.History[i], clean.History[i])
		}
	}
}

// buildSnapshotDenseZ is buildSnapshot as it stood before z travelled once:
// every slice cloned, and the subscription written densely as ZDense beside
// the sparse view.
// Files of this layout exist; they must keep restoring.
func buildSnapshotDenseZ(cfg Config, env *strategyEnv, strat ConsensusStrategy, nextIter int, zPrev []float64, res *Result) *exchange.Snapshot {
	snap := &exchange.Snapshot{
		Algorithm:  string(cfg.Algorithm),
		Iter:       int32(nextIter),
		Rho:        cfg.Rho,
		Epoch:      int32(env.members.Epoch()),
		ZPrev:      append([]float64(nil), zPrev...),
		TotalCal:   res.TotalCalTime,
		TotalComm:  res.TotalCommTime,
		TotalBytes: res.TotalBytes,
	}
	for _, r := range env.members.Dead() {
		snap.Dead = append(snap.Dead, int32(r))
	}
	if b := strat.frame().busyUntil; b != 0 {
		snap.Strategy = []float64{b}
	}
	snap.Workers = make([]exchange.WorkerSnap, 0, len(env.ws))
	for _, w := range env.ws {
		snap.Workers = append(snap.Workers, exchange.WorkerSnap{
			Rank:     int32(w.rank),
			Clock:    w.clock,
			CalTotal: w.calTotal,
			XA:       append([]float64(nil), w.xA...),
			YA:       append([]float64(nil), w.yA...),
			ZDense:   subscriptionDense(w),
			ZIdx:     append([]int32(nil), w.zSparse.Index...),
			ZVal:     append([]float64(nil), w.zSparse.Value...),
		})
	}
	return snap
}

// TestOldLayoutSnapshotRestoresLikeSparseOnly: a snapshot in the layout
// earlier builds wrote (dense ZDense + sparse view) and its sparse-only twin
// restore to bit-identical worker state, and runs resumed from the two files
// continue with one history — the uninterrupted run's — under the replicated
// and the block-sharded placement. Every consensus strategy is a row: the
// snapshot carries the frame's one serialisation scalar for star, flat and
// ring and none for tree and group-local, a blob with two is refused, and a
// blob with none restores.
func TestOldLayoutSnapshotRestoresLikeSparseOnly(t *testing.T) {
	train, test := testData(t, 160)
	const cut = 7
	for _, tc := range []struct {
		alg     Algorithm
		scalars int
	}{
		{PSRAHGADMM, 0}, {PSRAADMM, 1}, {PSRAHGADMMSharded, 0},
		{GCADMM, 1}, {GRADMM, 1}, {PSRAHGADMMGroup, 0},
	} {
		alg := tc.alg
		t.Run(string(alg), func(t *testing.T) {
			mk := func() Config {
				cfg := baseConfig(alg, 3, 2)
				cfg.MaxIter = 12
				cfg.AdaptiveRho = true
				cfg.ShardBlocks = 40 // read by the sharded variant only
				return cfg
			}
			golden, err := Run(mk(), train, RunOptions{Test: test})
			if err != nil {
				t.Fatal(err)
			}
			sparseOnly := checkpoint.NewMemStore()
			cfgCut := mk()
			cfgCut.MaxIter = cut
			if _, err := Run(cfgCut, train, RunOptions{Test: test, Checkpoint: &CheckpointOptions{Store: sparseOnly, Every: 1}}); err != nil {
				t.Fatal(err)
			}
			newBlob, _, _ := sparseOnly.Load()
			snap, err := exchange.DecodeSnapshot(newBlob)
			if err != nil {
				t.Fatal(err)
			}
			for i := range snap.Workers {
				if len(snap.Workers[i].ZDense) != 0 {
					t.Fatalf("the engine wrote %d dense z values for rank %d; z travels once, sparse", len(snap.Workers[i].ZDense), i)
				}
			}
			if len(snap.Strategy) != tc.scalars {
				t.Fatalf("snapshot carries %d strategy scalars %v, want %d", len(snap.Strategy), snap.Strategy, tc.scalars)
			}

			// Restore the engine's snapshot into a live environment and
			// re-save it from there the way earlier builds did.
			restore := func(blob []byte) (*strategyEnv, ConsensusStrategy, Config, []float64, *Result) {
				cfg := mk()
				env, strat := newTestStrategy(t, cfg, train)
				s, err := exchange.DecodeSnapshot(blob)
				if err != nil {
					t.Fatal(err)
				}
				zPrev, res := make([]float64, env.dim), &Result{}
				if iter, err := applySnapshot(s, &cfg, env, strat, zPrev, res, true); err != nil || iter != cut {
					t.Fatalf("restore: iter %d, err %v", iter, err)
				}
				return env, strat, cfg, zPrev, res
			}
			envNew, stratNew, cfgNew, zPrev, res := restore(newBlob)
			if got := stratNew.frame().busyUntil; (tc.scalars == 1 && got != snap.Strategy[0]) || (tc.scalars == 0 && got != 0) {
				t.Fatalf("restored busyUntil %v from strategy scalars %v", got, snap.Strategy)
			}
			held := holdState(envNew.ws[0])
			snap.Strategy = []float64{1, 2}
			if _, err := applySnapshot(snap, &cfgNew, envNew, stratNew, zPrev, res, true); err == nil || !strings.Contains(err.Error(), "strategy scalars") {
				t.Fatalf("a snapshot with two strategy scalars: err %v, want a refusal", err)
			}
			if d := held.diff(holdState(envNew.ws[0])); d != "" {
				t.Fatalf("the refused snapshot touched rank 0's %s", d)
			}
			snap.Strategy = nil
			if _, err := applySnapshot(snap, &cfgNew, envNew, stratNew, zPrev, res, true); err != nil || stratNew.frame().busyUntil != 0 {
				t.Fatalf("a snapshot with no strategy scalar: err %v, busyUntil %v", err, stratNew.frame().busyUntil)
			}
			envNew, stratNew, cfgNew, zPrev, res = restore(newBlob)
			oldBlob := exchange.EncodeSnapshot(buildSnapshotDenseZ(cfgNew, envNew, stratNew, cut, zPrev, res))
			if len(oldBlob) <= len(newBlob) {
				t.Fatalf("old layout %d bytes, sparse-only %d: the old layout carries z twice", len(oldBlob), len(newBlob))
			}
			envOld, _, cfgOld, zPrevOld, resOld := restore(oldBlob)
			// ZDense of any width but the subscription's is refused.
			for _, delta := range []int{-1, 1} {
				s, err := exchange.DecodeSnapshot(oldBlob)
				if err != nil {
					t.Fatal(err)
				}
				s.Workers[0].ZDense = make([]float64, len(s.Workers[0].ZDense)+delta)
				if _, err := applySnapshot(s, &cfgNew, envNew, stratNew, zPrev, res, true); err == nil || !strings.Contains(err.Error(), "state shape") {
					t.Fatalf("ZDense %+d wider than the subscription: err %v, want a refusal", delta, err)
				}
			}
			if cfgOld.Rho != cfgNew.Rho || !bitsEqual(zPrevOld, zPrev) || resOld.TotalBytes != res.TotalBytes ||
				!bitsEqual([]float64{resOld.TotalCalTime, resOld.TotalCommTime}, []float64{res.TotalCalTime, res.TotalCommTime}) {
				t.Fatal("the two layouts restored different run-level state")
			}
			for i := range envNew.ws {
				if d := holdState(envNew.ws[i]).diff(holdState(envOld.ws[i])); d != "" {
					t.Fatalf("rank %d's %s differs between the old layout and its sparse-only twin", i, d)
				}
				if err := zAIsView(envOld.ws[i]); err != nil {
					t.Fatalf("rank %d restored from the old layout: %v", i, err)
				}
			}

			// One continued history from either file: the uninterrupted run's.
			for name, blob := range map[string][]byte{"old layout": oldBlob, "sparse-only": newBlob} {
				store := checkpoint.NewMemStore()
				if err := store.Save(blob); err != nil {
					t.Fatal(err)
				}
				resumed, err := Run(mk(), train, RunOptions{Test: test, Checkpoint: &CheckpointOptions{Store: store, Every: 100, Resume: true}})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				want := golden.History[cut:]
				if len(resumed.History) != len(want) {
					t.Fatalf("%s: resumed %d iterations, want %d", name, len(resumed.History), len(want))
				}
				for i := range want {
					if !statBitEqual(want[i], resumed.History[i]) {
						t.Fatalf("%s: iteration %d diverged after resume:\ngolden:  %+v\nresumed: %+v", name, want[i].Iter, want[i], resumed.History[i])
					}
				}
				if !bitsEqual(golden.Z, resumed.Z) {
					t.Fatalf("%s: final iterate differs from the uninterrupted run's", name)
				}
			}
		})
	}
}
