package netsim

import (
	"fmt"

	"fabricpower/internal/telemetry"
	"fabricpower/internal/telemetry/trace"
)

// TraceConfig attaches the execution profiler to a network: every Every
// slots the kernel times its own phases and emits spans onto the
// recorder — one timeline row per shard (its compute span, whichever
// goroutine claimed the shard, and its exchange span, which the
// coordinator runs after the join) plus a coordinator row (slot, and
// barrier: the coordinator's wait at the join for the workers still
// computing) — and derives registry metrics from the same measurements:
// per-shard busy-nanosecond counters, the `netsim.shard.imbalance`
// gauge (interval max/mean shard busy time, in permille) and the
// `netsim.step.barrier_wait_ns` log2 histogram of the join wait.
// Per-node busy time accumulates into the cost estimate ExecProfile
// reports — the input a cost-weighted partitioner consumes.
//
// The profiler observes wall-clock time, never simulated state, so a
// traced run's Report is bit-identical to an untraced one; and it
// follows the fault plan's hot-loop contract: a nil TraceConfig leaves
// the kernel on its profiler-free fast path (every profiling branch is
// guarded and not taken, the slot loop stays 0 allocs/op). With a
// profiler attached, a shard's claimant writes only that shard's track
// and timing slots; the coordinator reads them after the join, which
// has already ordered the writes.
type TraceConfig struct {
	// Recorder receives the spans (required).
	Recorder *trace.Recorder
	// Every is the sampling interval in slots (default 64, like
	// TelemetryConfig.Every). Only sampled slots are timed and emitted,
	// which keeps tracing-on overhead a few percent and a ring of
	// DefaultSpanCap spans covering a long trailing window.
	Every uint64
	// PID groups this network's rows into one Perfetto process (sweep
	// points use point index + 1; 0 shares the engine-level process).
	PID int
	// Prefix tags track names, e.g. "p3 " for sweep point 3.
	Prefix string
}

func (tc TraceConfig) withDefaults() TraceConfig {
	if tc.Every == 0 {
		tc.Every = 64
	}
	return tc
}

// profImbalanceInterval is the number of sampled slots folded into one
// imbalance-gauge interval.
const profImbalanceInterval = 16

// execProf is the per-network profiling state. Ownership mirrors the
// telemetry collector's: sampling/slotStart, the join wait, the
// exchange timings and everything in closeSlot belong to the
// coordinator; computeNS[w], tracks[w]'s compute span and the
// nodeBusyNS cells of shard w's nodes belong to whichever goroutine
// claimed shard w this slot. The join orders every cross-read.
type execProf struct {
	rec   *trace.Recorder
	every uint64

	tracks   []*trace.Track // one row per shard
	coordTrk *trace.Track   // coordinator: slot + barrier spans

	sampling  bool  // the current slot is being timed
	slotStart int64 // recorder time at the sampled slot's start
	waitNS    int64 // the sampled slot's join wait

	// Per-shard timings for the in-flight sampled slot.
	computeNS  []int64
	exchangeNS []int64
	// visits counts the nodes each shard's compute phase visited over
	// the sampled slots; shard-private writes like computeNS.
	visits []uint64

	// Whole-run accumulators (coordinator-owned).
	sampledSlots uint64
	shardBusyNS  []uint64
	nodeBusyNS   []uint64 // per-node cost; shard-private writes
	barrierWait  []uint64 // log2 buckets, mirrors the registry histogram

	// Rolling imbalance interval.
	intervalBusy  []int64
	intervalSlots uint64

	busyCtr []*telemetry.Counter
}

func newExecProf(n *Network) *execProf {
	cfg := n.cfg.Trace.withDefaults()
	p := &execProf{
		rec:          cfg.Recorder,
		every:        cfg.Every,
		tracks:       make([]*trace.Track, len(n.shards)),
		computeNS:    make([]int64, len(n.shards)),
		exchangeNS:   make([]int64, len(n.shards)),
		visits:       make([]uint64, len(n.shards)),
		shardBusyNS:  make([]uint64, len(n.shards)),
		nodeBusyNS:   make([]uint64, n.topo.Nodes),
		barrierWait:  make([]uint64, profBarrierBuckets),
		intervalBusy: make([]int64, len(n.shards)),
		busyCtr:      make([]*telemetry.Counter, len(n.shards)),
	}
	p.rec.SetProcessName(cfg.PID, cfg.Prefix+"netsim "+n.topo.Name)
	p.coordTrk = p.rec.Track(cfg.PID, cfg.Prefix+"coordinator")
	for w := range n.shards {
		p.tracks[w] = p.rec.Track(cfg.PID, fmt.Sprintf("%sshard %d", cfg.Prefix, w))
		p.busyCtr[w] = telemetry.Default().Counter(fmt.Sprintf("netsim.shard.%d.busy_ns", w))
	}
	return p
}

// beginSlot decides whether this slot is sampled and stamps its start.
func (p *execProf) beginSlot(slot uint64) {
	p.sampling = slot%p.every == 0
	if p.sampling {
		p.slotStart = p.rec.Now()
	}
}

// joinWait records the coordinator's wait at a sampled slot's join:
// from running out of shards to claim until the last worker finished.
// It is next to zero when the coordinator computed the last shard.
func (p *execProf) joinWait(start, end int64) {
	p.coordTrk.Emit("barrier", start, end)
	p.waitNS = end - start
}

// closeSlot runs on the coordinator after the exchanges of a sampled
// slot: it folds the shards' phase timings and the join wait into the
// whole-run accumulators and the process registry, and emits the
// coordinator's slot span. Allocation-free.
func (p *execProf) closeSlot(slot uint64) {
	now := p.rec.Now()
	for w := range p.computeNS {
		busy := p.computeNS[w] + p.exchangeNS[w]
		p.shardBusyNS[w] += uint64(busy)
		p.busyCtr[w].Add(uint64(busy))
		p.intervalBusy[w] += busy
		p.computeNS[w], p.exchangeNS[w] = 0, 0
	}
	p.barrierWait[telemetry.Bucket(uint64(p.waitNS), len(p.barrierWait))]++
	profBarrierHist.Observe(uint64(p.waitNS))
	p.waitNS = 0
	p.coordTrk.EmitArg("slot", p.slotStart, now, int64(slot))
	p.sampledSlots++
	p.intervalSlots++
	if p.intervalSlots >= profImbalanceInterval {
		if imb, ok := imbalancePermille(p.intervalBusy); ok {
			profImbalanceGauge.Set(imb)
		}
		for w := range p.intervalBusy {
			p.intervalBusy[w] = 0
		}
		p.intervalSlots = 0
	}
	p.sampling = false
}

// resetInterval restarts the imbalance gauge's rolling interval,
// dropping any partially accumulated sampled slots. The network calls
// it at the warmup/measurement boundary so a skewed warmup cannot leak
// into the measured window's `netsim.shard.imbalance` readings; the
// whole-run ExecProfile accumulators are untouched.
func (p *execProf) resetInterval() {
	for w := range p.intervalBusy {
		p.intervalBusy[w] = 0
	}
	p.intervalSlots = 0
}

// imbalancePermille returns max/mean of busy in permille (1000 =
// perfectly balanced). False when nothing was measured.
func imbalancePermille(busy []int64) (int64, bool) {
	var max, total int64
	for _, b := range busy {
		total += b
		if b > max {
			max = b
		}
	}
	if total == 0 {
		return 0, false
	}
	mean := total / int64(len(busy))
	if mean == 0 {
		return 0, false
	}
	return max * 1000 / mean, true
}

// ExecProfile is the whole-run execution-profile summary: where the
// simulator's own wall-clock time went across shards and nodes over the
// sampled slots.
type ExecProfile struct {
	// SampledSlots counts the slots that were timed; Every is the
	// sampling interval that selected them.
	SampledSlots uint64 `json:"sampledSlots"`
	Every        uint64 `json:"every"`
	// NodeVisits counts the nodes the compute phase visited over the
	// sampled slots; NodeVisits/SampledSlots is the mean visits per
	// slot, which falls below the node count as idle nodes sleep.
	NodeVisits uint64 `json:"nodeVisits"`
	// ShardBusyNS is each shard's busy time (compute + exchange) summed
	// over the sampled slots.
	ShardBusyNS []uint64 `json:"shardBusyNS"`
	// NodeCostNS is each node's share of that busy time — the per-node
	// cost estimate a cost-weighted partitioner would consume in place
	// of today's contiguous equal-count blocks (ROADMAP item 1).
	NodeCostNS []uint64 `json:"nodeCostNS"`
	// BarrierWaitNS buckets the coordinator's wait at each sampled
	// slot's join as a log2 histogram (telemetry.Histogram bucketing,
	// in nanoseconds).
	BarrierWaitNS []uint64 `json:"barrierWaitNS"`
	// Imbalance is max/mean of ShardBusyNS — 1.0 is perfect balance;
	// a fat-tree spine shard pushing 2.0 is the critical path.
	Imbalance float64 `json:"imbalance"`
}

// ExecProfile returns the run's execution profile, or nil when no
// TraceConfig was attached. Call it after Run returns (it reads the
// coordinator-owned accumulators).
func (n *Network) ExecProfile() *ExecProfile {
	if n.prof == nil {
		return nil
	}
	p := n.prof
	ep := &ExecProfile{
		SampledSlots:  p.sampledSlots,
		Every:         p.every,
		ShardBusyNS:   append([]uint64(nil), p.shardBusyNS...),
		NodeCostNS:    append([]uint64(nil), p.nodeBusyNS...),
		BarrierWaitNS: append([]uint64(nil), p.barrierWait...),
	}
	for _, v := range p.visits {
		ep.NodeVisits += v
	}
	busy := make([]int64, len(p.shardBusyNS))
	for w, b := range p.shardBusyNS {
		busy[w] = int64(b)
	}
	if imb, ok := imbalancePermille(busy); ok {
		ep.Imbalance = float64(imb) / 1000
	}
	return ep
}

// SuggestPartition converts the profile's measured per-node costs into
// a cost-weighted node→shard assignment — greedy LPT over NodeCostNS —
// ready to hand to Config.Partition: profile a warmup run with the
// target shard count, then feed the suggestion into every point of a
// sweep. Nodes that were never sampled cost zero and land wherever
// balance dictates. shards is clamped to [1, node count], mirroring
// the kernel's own shard capping.
func (ep *ExecProfile) SuggestPartition(shards int) []int {
	if shards < 1 {
		shards = 1
	}
	if shards > len(ep.NodeCostNS) {
		shards = len(ep.NodeCostNS)
	}
	cost := make([]float64, len(ep.NodeCostNS))
	for u, c := range ep.NodeCostNS {
		cost[u] = float64(c)
	}
	return lptPartition(cost, shards)
}

// profBarrierBuckets sizes the barrier-wait histograms: 28 log2 buckets
// span waits up to ~134 ms before clipping.
const profBarrierBuckets = 28

// Execution-profile metrics on the process-wide registry. The gauge and
// histogram are shared across traced networks in flight; the per-shard
// busy counters are created per shard index in newExecProf.
var (
	profImbalanceGauge = telemetry.Default().Gauge("netsim.shard.imbalance")
	profBarrierHist    = telemetry.Default().Histogram("netsim.step.barrier_wait_ns", profBarrierBuckets)
)
