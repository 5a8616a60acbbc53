package metrics

import (
	"sync"
	"testing"
)

func TestHealthCounters(t *testing.T) {
	h := NewHealth(4)
	if h.LiveWorkers.Get() != 4 || h.Epoch.Get() != 0 {
		t.Fatalf("fresh health: live %d epoch %d", h.LiveWorkers.Get(), h.Epoch.Get())
	}
	h.ObserveDown(2)
	h.ObserveDown(2)
	h.ObserveDown(0)
	h.ObserveDown(99) // out of range: ignored
	if h.peerDowns[2].Get() != 2 || h.peerDowns[0].Get() != 1 || h.peerDowns[1].Get() != 0 {
		t.Fatalf("per-rank counters: %d %d %d", h.peerDowns[2].Get(), h.peerDowns[0].Get(), h.peerDowns[1].Get())
	}
	if h.TotalPeerDowns() != 3 {
		t.Fatalf("total %d", h.TotalPeerDowns())
	}
	h.LiveWorkers.Set(2)
	h.Epoch.Set(2)
	if h.LiveWorkers.Get() != 2 || h.Epoch.Get() != 2 {
		t.Fatal("gauges")
	}
}

func TestHealthConcurrent(t *testing.T) {
	h := NewHealth(8)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				h.ObserveDown(r)
			}
		}(i)
	}
	wg.Wait()
	if h.TotalPeerDowns() != 800 {
		t.Fatalf("total %d", h.TotalPeerDowns())
	}
}
