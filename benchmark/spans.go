package main

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside the layer.
// Times are nanoseconds since the recorder's epoch. Parent is the ID of
// the span that caused this one, -1 for a root. Spans of one ADMM
// iteration share Iter.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Rank   int    `json:"rank"`
	Iter   int    `json:"iter"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so traced and untraced runs share one code path.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 {
	if r == nil {
		return 0
	}
	return time.Since(r.epoch).Nanoseconds()
}

// begin opens a span and returns its ID; end closes it.
func (r *recorder) begin(name string, parent, rank, iter int) int {
	if r == nil {
		return -1
	}
	t := r.now()
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Name: name, Start: t, End: t, Parent: parent, Rank: rank, Iter: iter})
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	t := r.now()
	r.mu.Lock()
	r.spans[id].End = t
	r.mu.Unlock()
}

// add records a span whose bounds the caller measured itself.
func (r *recorder) add(name string, parent, rank, iter int, start, end int64) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Name: name, Start: start, End: end, Parent: parent, Rank: rank, Iter: iter})
	r.mu.Unlock()
	return id
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeJSONL writes one span per line, each tagged with its workload.
func writeJSONL(w io.Writer, workload string, spans []span) error {
	type line struct {
		Workload string `json:"workload"`
		span
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(line{workload, s}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// selfTimes returns, per span, its duration minus the part of its interval
// its children cover. Overlapping children are counted once and a child is
// clipped to its parent's interval.
func selfTimes(spans []span) []int64 {
	type iv struct{ lo, hi int64 }
	kids := make(map[int][]iv)
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		lo, hi := s.Start, s.End
		if lo < p.Start {
			lo = p.Start
		}
		if hi > p.End {
			hi = p.End
		}
		if hi > lo {
			kids[p.ID] = append(kids[p.ID], iv{lo, hi})
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		ivs := kids[s.ID]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, reach int64
		reach = s.Start
		for _, v := range ivs {
			if v.hi <= reach {
				continue
			}
			if v.lo > reach {
				reach = v.lo
			}
			covered += v.hi - reach
			reach = v.hi
		}
		out[i] = s.dur() - covered
	}
	return out
}

// selfByName sums self time (seconds) over spans of each name.
func selfByName(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := make(map[string]float64)
	for i, s := range spans {
		out[s.Name] += float64(self[i]) / 1e9
	}
	return out
}

// durByName sums durations (seconds) over spans of each name — for spans
// that have no children, or whose wall time is what is wanted.
func durByName(spans []span) map[string]float64 {
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Name] += float64(s.dur()) / 1e9
	}
	return out
}
