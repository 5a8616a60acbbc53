package collective

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"psrahgadmm/internal/sparse"
	"psrahgadmm/internal/transport"
	"psrahgadmm/internal/vec"
	"psrahgadmm/internal/wire"
)

// frameOverhead is what a frame adds to the payload bytes a Trace logs: the
// header and the CRC trailer Stats.BytesSent counts too.
const frameOverhead = wire.HeaderBytes + wire.CRCBytes

// TestFaultFabricSerializesAsyncSends: a FaultFabric endpoint does not
// advertise non-blocking sends, so the collectives send through it from a
// goroutine per message, and the chan endpoint underneath takes one sender
// at a time. The fault layer serializes what it forwards — the plain
// delivery, the duplicate and the released reordered message alike — and
// its Stats read, so under the race detector these runs are clean, and
// every endpoint counts exactly the frames it handed down.
func TestFaultFabricSerializesAsyncSends(t *testing.T) {
	// p-1 = 4 sends a phase: with ReorderProb 1 every second send releases
	// the one held before it, so no PSR phase ends with a frame still held.
	const p, dim, rounds = 5, 300, 8
	vs, _ := sparseInputs(rand.New(rand.NewSource(34)), p, dim, 0.2)
	g := WorldGroup(p)

	t.Run("psr, delayed and reordered", func(t *testing.T) {
		psr := func(fab transport.Fabric) (outs []*sparse.Vector, msgs, bytes []int64) {
			outs = make([]*sparse.Vector, p)
			msgs, bytes = make([]int64, p), make([]int64, p)
			runFabric(t, fab, func(ep transport.Endpoint) error {
				me := ep.Rank()
				var ws Workspace
				for i := 0; i < rounds; i++ {
					out := new(sparse.Vector)
					tr, err := ws.PSRAllreduceSparse(ep, g, int32(10*(i+1)), vs[me], out)
					if err != nil {
						return fmt.Errorf("round %d: %w", i, err)
					}
					msgs[me] += int64(len(tr.Events))
					bytes[me] += int64(tr.TotalBytes() + frameOverhead*len(tr.Events))
					outs[me] = out
				}
				return nil
			})
			return outs, msgs, bytes
		}
		clean := transport.NewChanFabric(p)
		defer clean.Close()
		want, _, _ := psr(clean)

		fab := transport.NewFaultFabric(transport.NewChanFabric(p), transport.FaultPlan{
			Seed: 34, DelayProb: 1, MaxDelay: 50 * time.Microsecond, ReorderProb: 1,
		})
		defer fab.Close()
		if transport.SendsNonBlocking(fab.Endpoint(0)) {
			t.Fatal("a FaultFabric endpoint advertises non-blocking sends: nothing here goes through sendAsync")
		}
		got, msgs, bytes := psr(fab)
		for r := 0; r < p; r++ {
			if !vec.Equal(got[r].ToDense(), want[r].ToDense()) {
				t.Fatalf("rank %d: PSR over delays and reorders differs from the clean run", r)
			}
			st := fab.Endpoint(r).Stats()
			if st.MsgsSent != msgs[r] || st.BytesSent != bytes[r] {
				t.Fatalf("rank %d: Stats %d msgs / %d bytes, its traces sent %d / %d",
					r, st.MsgsSent, st.BytesSent, msgs[r], bytes[r])
			}
		}
		if fab.InjectedDelays() == 0 || fab.InjectedReorders() == 0 {
			t.Fatalf("injection did not run: %d delays, %d reorders", fab.InjectedDelays(), fab.InjectedReorders())
		}
	})

	// A duplicated frame fails a PSR round by design, so duplicates go
	// through sendAsync directly: with DupProb and ReorderProb 1 every second
	// send delivers its frame twice and releases the one held before it, three
	// frames a pair. The owner reads Stats while its sends are in flight.
	t.Run("duplicated and reordered", func(t *testing.T) {
		const sends = 8 // per peer, even
		fab := transport.NewFaultFabric(transport.NewChanFabric(p), transport.FaultPlan{
			Seed: 34, DelayProb: 1, MaxDelay: 50 * time.Microsecond, DupProb: 1, ReorderProb: 1,
		})
		defer fab.Close()
		runFabric(t, fab, func(ep transport.Endpoint) error {
			msg := wire.SparseMsg(1, vs[ep.Rank()])
			var errcs []chan error
			for i := 0; i < sends; i++ {
				for to := 0; to < p; to++ {
					if to != ep.Rank() {
						errcs = append(errcs, sendAsync(ep, to, msg))
					}
				}
			}
			_ = ep.Stats()
			for _, c := range errcs {
				if err := <-c; err != nil {
					return err
				}
			}
			wantMsgs := int64(len(errcs) * 3 / 2)
			if st := ep.Stats(); st.MsgsSent != wantMsgs || st.BytesSent != wantMsgs*int64(wire.EncodedBytes(&msg)) {
				return fmt.Errorf("Stats %d msgs / %d bytes, want %d frames of %d bytes",
					st.MsgsSent, st.BytesSent, wantMsgs, wire.EncodedBytes(&msg))
			}
			return nil
		})
		if fab.InjectedDups() == 0 {
			t.Fatal("injection did not run: no duplicates")
		}
	})
}
