package simnet

// Stragglers injects deterministic slow-node behaviour following §5.5 of
// the paper: each iteration, randomly selected nodes have their computation
// time prolonged. Selection is a pure function of (Seed, iteration, node),
// so timelines are reproducible and, crucially, the *same* nodes are slow
// for the grouped and ungrouped runs being compared in Figure 7.
type Stragglers struct {
	// Seed drives node selection.
	Seed int64
	// Prob is the per-iteration probability that a node is slow.
	Prob float64
	// Slowdown multiplies a slow node's compute time (> 1). Zero or one
	// disables the multiplicative part.
	Slowdown float64
	// Delay adds a fixed virtual pause (seconds) to a slow node's
	// iteration — the "prolong their computation time" injection of §5.5
	// in additive form. Unlike Slowdown it does not shrink as shards
	// shrink, which is what makes straggler damage grow with cluster
	// size in Figure 7.
	Delay float64
}

// Default returns the injector used by the Figure 7 experiments: each
// iteration roughly a quarter of the nodes run 4× slower.
func Default(seed int64) Stragglers {
	return Stragglers{Seed: seed, Prob: 0.25, Slowdown: 4}
}

// Enabled reports whether injection is active.
func (s Stragglers) Enabled() bool {
	return s.Prob > 0 && (s.Slowdown > 1 || s.Delay > 0)
}

// splitmix64 is the SplitMix64 mixer — a tiny, high-quality hash giving an
// independent uniform draw per (seed, iter, node) without any RNG state.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// selected reports whether `node` is slow at iteration `iter`.
func (s Stragglers) selected(iter, node int) bool {
	if !s.Enabled() {
		return false
	}
	h := splitmix64(uint64(s.Seed)*0x100000001b3 ^ uint64(iter)<<32 ^ uint64(node))
	u := float64(h>>11) / float64(1<<53)
	return u < s.Prob
}

// NodeFactor returns the compute-time multiplier of `node` at iteration
// `iter`: Slowdown if the node is selected, else 1.
func (s Stragglers) NodeFactor(iter, node int) float64 {
	if s.selected(iter, node) && s.Slowdown > 1 {
		return s.Slowdown
	}
	return 1
}

// NodeDelay returns the additive virtual pause of `node` at iteration
// `iter`: Delay if the node is selected, else 0.
func (s Stragglers) NodeDelay(iter, node int) float64 {
	if s.selected(iter, node) && s.Delay > 0 {
		return s.Delay
	}
	return 0
}

// Jitter models the ordinary run-to-run compute variance of a busy
// cluster — OS noise, cache effects, co-scheduled jobs — as a
// deterministic multiplicative factor per (iteration, worker). It is much
// milder than Stragglers (which models §5.5's deliberately prolonged
// nodes) but it is what gives the SSP baselines real stale contributions:
// with perfectly uniform compute times a partial barrier never leaves
// anyone behind.
type Jitter struct {
	// Seed drives the per-(iter, worker) draw.
	Seed int64
	// Amp is the maximum fractional slowdown: factors are uniform in
	// [1, 1+Amp]. 0 disables.
	Amp float64
}

// Enabled reports whether the jitter source is active.
func (j Jitter) Enabled() bool { return j.Amp > 0 }

// Factor returns the compute multiplier for `workerRank` at `iter`,
// uniform in [1, 1+Amp].
func (j Jitter) Factor(iter, workerRank int) float64 {
	if !j.Enabled() {
		return 1
	}
	h := splitmix64(uint64(j.Seed)*0x9e3779b97f4a7c15 ^ uint64(iter)<<20 ^ uint64(workerRank))
	u := float64(h>>11) / float64(1<<53)
	return 1 + j.Amp*u
}
