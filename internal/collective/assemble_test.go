package collective

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"psrahgadmm/internal/sparse"
	"psrahgadmm/internal/transport"
	"psrahgadmm/internal/vec"
	"psrahgadmm/internal/wire"
)

// memberRun is what one member of a collective left behind: its trace
// (copied out of the workspace), its endpoint's send counters and its
// result.
type memberRun struct {
	steps  int
	events []Event
	msgs   int64
	bytes  int64
	out    *sparse.Vector
}

// runAssembling runs one collective on a fresh fabric with every member on a
// fresh workspace; assembles(rank) says whether that member passes an out.
func runAssembling(t *testing.T, p int, assembles func(rank int) bool,
	call func(ws *Workspace, ep transport.Endpoint, out *sparse.Vector) (Trace, error)) []memberRun {
	t.Helper()
	runs := make([]memberRun, p)
	runRanks(t, p, func(ep transport.Endpoint) error {
		var out *sparse.Vector
		if assembles(ep.Rank()) {
			out = new(sparse.Vector)
		}
		tr, err := call(new(Workspace), ep, out)
		if err != nil {
			return err
		}
		st := ep.Stats()
		runs[ep.Rank()] = memberRun{tr.Steps, slices.Clone(tr.Events), st.MsgsSent, st.BytesSent, out}
		return nil
	})
	return runs
}

// TestAllreduceNilOutSkipsOnlyAssembly pins the out == nil contract: a
// member that reads no result still sends, receives and checks every message
// and logs the same trace — only the final concatenation is skipped. Against
// the run in which every member assembles, a run in which only member 0 does
// must show the same trace on every member, the same endpoint send counters,
// and member 0's result bit for bit — for PSR under the mean and a robust
// combine and for the ring, at p = 2, 3, 8 and 64.
func TestAllreduceNilOutSkipsOnlyAssembly(t *testing.T) {
	const dim = 301
	for _, p := range []int{2, 3, 8, 64} {
		r := rand.New(rand.NewSource(int64(4000 + p)))
		vs, want := sparseInputs(r, p, dim, 0.2)
		g := WorldGroup(p)
		schedules := map[string]func(*Workspace, transport.Endpoint, *sparse.Vector) (Trace, error){
			"psr-mean": func(ws *Workspace, ep transport.Endpoint, out *sparse.Vector) (Trace, error) {
				return ws.PSRAllreduceSparseAgg(ep, g, 40, vs[ep.Rank()], out, AggSpec{}, -1)
			},
			"psr-trim1": func(ws *Workspace, ep transport.Endpoint, out *sparse.Vector) (Trace, error) {
				return ws.PSRAllreduceSparseAgg(ep, g, 40, vs[ep.Rank()], out, AggSpec{Kind: AggTrimmedMean, TrimF: 1}, -1)
			},
			"ring": func(ws *Workspace, ep transport.Endpoint, out *sparse.Vector) (Trace, error) {
				return ws.RingAllreduceSparse(ep, g, 40, vs[ep.Rank()], out)
			},
		}
		for name, call := range schedules {
			t.Run(fmt.Sprintf("%s/p=%d", name, p), func(t *testing.T) {
				all := runAssembling(t, p, func(int) bool { return true }, call)
				one := runAssembling(t, p, func(rank int) bool { return rank == 0 }, call)
				for rk := range all {
					a, o := all[rk], one[rk]
					if a.steps != o.steps || !slices.Equal(a.events, o.events) {
						t.Fatalf("rank %d: trace %d steps %v without out, %d steps %v with", rk, o.steps, o.events, a.steps, a.events)
					}
					if len(a.events) == 0 {
						t.Fatalf("rank %d logged no event; the comparison is vacuous", rk)
					}
					if a.msgs != o.msgs || a.bytes != o.bytes {
						t.Fatalf("rank %d: sent %d msgs / %d B without out, %d / %d with", rk, o.msgs, o.bytes, a.msgs, a.bytes)
					}
					if rk > 0 && o.out != nil {
						t.Fatalf("rank %d was handed an out", rk)
					}
				}
				got, ref := one[0].out, all[0].out
				if !slices.Equal(got.Index, ref.Index) || !slices.EqualFunc(got.Value, ref.Value, func(x, y float64) bool {
					return math.Float64bits(x) == math.Float64bits(y)
				}) {
					t.Fatalf("member 0's result differs when the others skip assembly")
				}
				if name != "psr-trim1" && !vec.WithinTol(got.ToDense(), want, 1e-9) {
					t.Fatalf("member 0's result is not the sum")
				}
			})
		}
	}
}

// TestPSRRootMovesOnlyWhatRootReads pins the root contract against the
// every-member schedule, both run on one fabric: under a root every member
// logs the same trace, event for event; root's result is the same bit for
// bit, and no other member's out is written; and the fabric carries only
// what root reads — each member sends its p−1 scatter frames plus, unless
// it is root, one gather frame to root — for PSR under the mean and a
// robust combine, at p = 2, 3, 8 and 64, with root first and last.
func TestPSRRootMovesOnlyWhatRootReads(t *testing.T) {
	const dim = 301
	for _, p := range []int{2, 3, 8, 64} {
		r := rand.New(rand.NewSource(int64(5000 + p)))
		vs, _ := sparseInputs(r, p, dim, 0.2)
		g := WorldGroup(p)
		for _, spec := range []AggSpec{{}, {Kind: AggTrimmedMean, TrimF: 1}} {
			for _, root := range []int{0, p - 1} {
				t.Run(fmt.Sprintf("%s/p=%d/root=%d", spec.Kind, p, root), func(t *testing.T) {
					f := transport.NewChanFabric(p)
					defer f.Close()
					// run calls the schedule under root rt on f, every member
					// handed an out marked with a sentinel dimension.
					run := func(rt int, tag int32) []memberRun {
						runs := make([]memberRun, p)
						runFabric(t, f, func(ep transport.Endpoint) error {
							out := sparse.NewVector(-1, 0)
							before := ep.Stats()
							tr, err := new(Workspace).PSRAllreduceSparseAgg(ep, g, tag, vs[ep.Rank()], out, spec, rt)
							if err != nil {
								return err
							}
							st := ep.Stats()
							runs[ep.Rank()] = memberRun{tr.Steps, slices.Clone(tr.Events), st.MsgsSent - before.MsgsSent, st.BytesSent - before.BytesSent, out}
							return nil
						})
						return runs
					}
					all, one := run(-1, 40), run(root, 50)
					for rk := range all {
						a, o := all[rk], one[rk]
						if a.steps != o.steps || !slices.Equal(a.events, o.events) {
							t.Fatalf("rank %d: trace %d steps %v under root %d, %d steps %v under -1", rk, o.steps, o.events, root, a.steps, a.events)
						}
						if len(a.events) != 2*(p-1) {
							t.Fatalf("rank %d logged %d events, want %d", rk, len(a.events), 2*(p-1))
						}
						if a.msgs != int64(2*(p-1)) {
							t.Fatalf("rank %d sent %d frames under root -1, want %d", rk, a.msgs, 2*(p-1))
						}
						want := int64(p)
						if rk == root {
							want = int64(p - 1)
						}
						if o.msgs != want {
							t.Fatalf("rank %d sent %d frames under root %d, want %d", rk, o.msgs, root, want)
						}
						if rk != root && o.out.Dim != -1 {
							t.Fatalf("rank %d's out was written under root %d", rk, root)
						}
					}
					got, ref := one[root].out, all[root].out
					if !slices.Equal(got.Index, ref.Index) || !slices.EqualFunc(got.Value, ref.Value, func(x, y float64) bool {
						return math.Float64bits(x) == math.Float64bits(y)
					}) || got.Dim != ref.Dim {
						t.Fatalf("root %d's result differs from the every-member schedule's", root)
					}
				})
			}
		}
	}
}

// dupGatherEndpoint sends every gather-tag frame twice, and only once the
// previous rank has sent all of its own: every member then meets its first
// peer's two copies before any other gather frame.
type dupGatherEndpoint struct {
	transport.Endpoint
	tag   int32
	left  int           // gather frames still to send
	after chan struct{} // closed by the previous rank (nil for rank 0)
	done  chan struct{} // closed when this rank's frames are out
}

func (e *dupGatherEndpoint) SendNonBlocking() bool { return true }

func (e *dupGatherEndpoint) Send(to int, m wire.Message) error {
	if m.Tag != e.tag {
		return e.Endpoint.Send(to, m)
	}
	if e.after != nil {
		<-e.after
	}
	for range 2 {
		if err := e.Endpoint.Send(to, m); err != nil {
			return err
		}
	}
	if e.left--; e.left == 0 {
		close(e.done)
	}
	return nil
}

// TestPSRGatherRejectsDuplicateFrame: a second gather frame from one member
// would overwrite its block and leave another member's nil, which the
// concatenation dereferenced — every member panicked. The gather refuses it
// as the scatter and both shard phases do, with an error. Under a root only
// root gathers: it refuses the duplicate, and the others, which receive no
// gather frame, finish.
func TestPSRGatherRejectsDuplicateFrame(t *testing.T) {
	const p, tag = 3, 10
	for _, root := range []int{-1, 0} {
		t.Run(fmt.Sprintf("root=%d", root), func(t *testing.T) {
			f := transport.NewChanFabric(p)
			defer f.Close()
			eps := make([]*dupGatherEndpoint, p)
			for rk := range eps {
				left := p - 1 // every member sends its gather frame to every other
				if root >= 0 {
					left = 1 // to root alone, and root sends none
					if rk == root {
						left = 0
					}
				}
				eps[rk] = &dupGatherEndpoint{Endpoint: f.Endpoint(rk), tag: tag + 1, left: left, done: make(chan struct{})}
				if left == 0 {
					close(eps[rk].done)
				}
				if rk > 0 {
					eps[rk].after = eps[rk-1].done
				}
			}
			r := rand.New(rand.NewSource(5))
			vs, _ := sparseInputs(r, p, 60, 0.5)
			errs := make([]error, p)
			var wg sync.WaitGroup
			for rk := range eps {
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer func() {
						if v := recover(); v != nil {
							errs[rk] = fmt.Errorf("panicked: %v", v)
						}
					}()
					_, errs[rk] = new(Workspace).PSRAllreduceSparseAgg(eps[rk], WorldGroup(p), tag, vs[rk], new(sparse.Vector), AggSpec{}, root)
				}()
			}
			wg.Wait()
			for rk, err := range errs {
				gathers := root < 0 || rk == root
				if gathers && (err == nil || !strings.Contains(err.Error(), "psr sparse gather duplicate sender")) {
					t.Errorf("rank %d: %v, want the duplicate refused", rk, err)
				}
				if !gathers && err != nil {
					t.Errorf("rank %d gathers nothing under root %d, yet failed: %v", rk, root, err)
				}
			}
		})
	}
}
