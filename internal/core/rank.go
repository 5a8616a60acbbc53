package core

import (
	"errors"
	"fmt"

	"psrahgadmm/internal/checkpoint"
	"psrahgadmm/internal/dataset"
	"psrahgadmm/internal/exchange"
	"psrahgadmm/internal/shard"
	"psrahgadmm/internal/sparse"
)

// Rank is one worker of the message-passing runtime (package wlg): the
// engine's worker under the replicated one-block map, its updates in the
// dense shape of wlg.WorkerFuncs{ComputeW, ApplyW, Rejoined}. Over the
// engine's shard and Config it computes the engine's bits, so the two
// runtimes differ only in how W is reduced. One goroutine drives it.
type Rank struct {
	cfg   Config
	w     *worker
	sv    *sparse.Vector // ComputeW's contribution, then the aggregate
	z     sparse.Vector  // the z-update's result
	dense []float64      // ComputeW's result, reused
}

// NewRank builds rank's worker over sh = train.Shard(cfg.Topo.Size())[rank].
// Of cfg it reads a valid Topo holding rank, a positive Rho, Lambda and Tron.
func NewRank(cfg Config, rank int, sh *dataset.Dataset) *Rank {
	w := newWorker(cfg, rank, sh)
	w.initStore(shard.FullMap(shard.NewPartition(w.dim, 1), cfg.Topo.Size()))
	return &Rank{cfg: cfg, w: w, sv: new(sparse.Vector)}
}

// ComputeW runs the x-update (eq. 4) and returns w = y + ρx (eq. 8).
func (r *Rank) ComputeW(iter int) []float64 {
	r.w.xUpdate(r.cfg, iter)
	r.dense = r.w.wSparseInto(r.sv, r.cfg.Rho).ToDenseInto(r.dense)
	return r.dense
}

// ApplyW runs the z-update (eq. 10) over W, then the dual update (eq. 6).
func (r *Rank) ApplyW(iter int, bigW []float64, contributors int) {
	r.sv = sparse.FromDenseInto(r.sv, bigW)
	r.w.applyZ(r.cfg, zFromW(&r.z, r.sv, r.cfg.Lambda, r.cfg.Rho, contributors))
}

// Rejoined warm-starts z from the cluster's latest W, keeping x and y, as
// the engine's rejoin does. A nil W (a cold start) changes nothing.
func (r *Rank) Rejoined(joinIter int, bigW []float64, contributors int) {
	if bigW != nil {
		r.sv = sparse.FromDenseInto(r.sv, bigW)
		r.w.rejoin(zFromW(&r.z, r.sv, r.cfg.Lambda, r.cfg.Rho, contributors), 0)
	}
}

// Z returns the rank's z as a new dense vector.
func (r *Rank) Z() []float64 { return r.w.zSparse.ToDense() }

// LocalLoss evaluates the shard's data-fit term at the dense point z.
func (r *Rank) LocalLoss(z []float64) float64 { return r.w.localLoss(z) }

// SaveSnapshot stores the rank's PSCK record, taken at boundary nextIter.
func (r *Rank) SaveSnapshot(st checkpoint.Store, nextIter int) error {
	return st.Save(exchange.EncodeSnapshot(&exchange.Snapshot{
		Algorithm: "wlg-rank", Iter: int32(nextIter), Rho: r.cfg.Rho,
		Workers: []exchange.WorkerSnap{r.w.snap()},
	}))
}

// RestoreSnapshot loads the rank's record from st and returns its boundary.
// A missing record, or one checkSnap refuses, is an error and changes nothing.
func (r *Rank) RestoreSnapshot(st checkpoint.Store) (int, error) {
	snap, ok, err := loadSnapshot(st)
	if !ok && err == nil {
		err = errors.New("none saved")
	}
	if !ok {
		return 0, fmt.Errorf("core: no usable snapshot: %w", err)
	}
	for i := range snap.Workers {
		if s := &snap.Workers[i]; int(s.Rank) == r.w.rank {
			if err := r.w.checkSnap(s); err != nil {
				return 0, fmt.Errorf("core: snapshot rank %d %w", r.w.rank, err)
			}
			r.w.restore(s)
			return int(snap.Iter), nil
		}
	}
	return 0, fmt.Errorf("core: snapshot holds no record for rank %d", r.w.rank)
}
