package core

import (
	"encoding/json"
	"io"
	"math"
)

// Run exports: the Result type serializes to JSON for external plotting
// and archival. NaN (Go's "not evaluated" marker) is not representable in
// JSON, so the export replaces it with null via a shadow structure.

// jsonFloat marshals NaN as null.
type jsonFloat float64

// MarshalJSON implements json.Marshaler.
func (f jsonFloat) MarshalJSON() ([]byte, error) {
	if math.IsNaN(float64(f)) {
		return []byte("null"), nil
	}
	return json.Marshal(float64(f))
}

type iterStatJSON struct {
	Iter      int       `json:"iter"`
	Objective jsonFloat `json:"objective"`
	RelError  jsonFloat `json:"rel_error"`
	Accuracy  jsonFloat `json:"accuracy"`
	CalTime   float64   `json:"cal_time_s"`
	CommTime  float64   `json:"comm_time_s"`
	Bytes     int64     `json:"bytes"`
	PrimalRes float64   `json:"primal_res"`
	DualRes   float64   `json:"dual_res"`
	Rho       float64   `json:"rho"`
	// Membership and footprint at the end of the iteration.
	LiveWorkers   int   `json:"live_workers"`
	Epoch         int   `json:"epoch"`
	PeerDowns     int64 `json:"peer_downs"`
	ResidentBytes int64 `json:"resident_bytes"`
}

type resultJSON struct {
	Algorithm string `json:"algorithm"`
	// The composition that ran: the variant's axes with the run's
	// overrides applied.
	Consensus      string  `json:"consensus"`
	Sync           string  `json:"sync"`
	Codec          string  `json:"codec"`
	Nodes          int     `json:"nodes"`
	WorkersPerNode int     `json:"workers_per_node"`
	Rho            float64 `json:"rho"`
	Lambda         float64 `json:"lambda"`
	MaxIter        int     `json:"max_iter"`
	GroupThreshold int     `json:"group_threshold"`
	Stopped        bool    `json:"stopped_early"`
	TotalCalTime   float64 `json:"total_cal_time_s"`
	TotalCommTime  float64 `json:"total_comm_time_s"`
	SystemTime     float64 `json:"system_time_s"`
	TotalBytes     int64   `json:"total_bytes"`
	// The run's fault record and final membership view.
	Rollbacks      []RollbackEvent   `json:"rollbacks"`
	Quarantines    []QuarantineEvent `json:"quarantines"`
	CorruptRetries int               `json:"corrupt_retries"`
	LiveWorkers    int               `json:"live_workers"`
	Epoch          int               `json:"epoch"`
	Degraded       bool              `json:"degraded"`
	History        []iterStatJSON    `json:"history"`
}

// WriteJSON serializes the run (configuration summary, fault record, final
// membership and full history) as indented JSON, with NaN fields rendered
// as null and empty event lists as [].
func (r *Result) WriteJSON(w io.Writer) error {
	ax, _ := r.Config.axes() // a completed run's config passed Validate
	out := resultJSON{
		Algorithm:      string(r.Config.Algorithm),
		Consensus:      string(ax.consensus),
		Sync:           string(ax.sync),
		Codec:          string(ax.codec.Kind()),
		Nodes:          r.Config.Topo.Nodes,
		WorkersPerNode: r.Config.Topo.WorkersPerNode,
		Rho:            r.Config.Rho,
		Lambda:         r.Config.Lambda,
		MaxIter:        r.Config.MaxIter,
		GroupThreshold: r.Config.GroupThreshold,
		Stopped:        r.Stopped,
		TotalCalTime:   r.TotalCalTime,
		TotalCommTime:  r.TotalCommTime,
		SystemTime:     r.SystemTime,
		TotalBytes:     r.TotalBytes,
		Rollbacks:      append([]RollbackEvent{}, r.Rollbacks...),
		Quarantines:    append([]QuarantineEvent{}, r.Quarantines...),
		CorruptRetries: r.CorruptRetries,
		LiveWorkers:    r.LiveWorkers,
		Epoch:          r.Epoch,
		Degraded:       r.Degraded,
	}
	for _, h := range r.History {
		out.History = append(out.History, iterStatJSON{
			Iter:          h.Iter,
			Objective:     jsonFloat(h.Objective),
			RelError:      jsonFloat(h.RelError),
			Accuracy:      jsonFloat(h.Accuracy),
			CalTime:       h.CalTime,
			CommTime:      h.CommTime,
			Bytes:         h.Bytes,
			PrimalRes:     h.PrimalRes,
			DualRes:       h.DualRes,
			Rho:           h.Rho,
			LiveWorkers:   h.LiveWorkers,
			Epoch:         h.Epoch,
			PeerDowns:     h.PeerDowns,
			ResidentBytes: h.ResidentBytes,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
