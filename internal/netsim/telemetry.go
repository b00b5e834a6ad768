package netsim

import (
	"fabricpower/internal/sim"
	"fabricpower/internal/telemetry"
)

// latencyBuckets sizes the latency histograms: bucket 0 counts
// zero-slot latencies, bucket i counts [2^(i-1), 2^i) slots, the last
// bucket absorbs the tail.
const latencyBuckets = 16

// LinkSample is one link's activity over a sample interval plus its
// instantaneous state at the sample slot.
type LinkSample struct {
	From int `json:"from"`
	To   int `json:"to"`
	// Moved counts cells drained off this link during the interval;
	// Utilization is Moved over the link's capacity × interval.
	Moved       uint64  `json:"moved"`
	Utilization float64 `json:"util"`
	// Queue is the link queue's occupancy at the sample slot.
	Queue int `json:"queue"`
	// Up is false while the link is failed (or an endpoint is down).
	Up bool `json:"up"`
}

// TelemetrySample is one interval of the network time series. Slot is
// the exclusive end of the covered window [Slot-Interval, Slot);
// counters are deltas over the window, queue depths and up/down state
// are instantaneous at Slot.
type TelemetrySample struct {
	Kind     string `json:"kind"` // "net_sample"
	Slot     uint64 `json:"slot"`
	Interval uint64 `json:"interval"`
	// DynamicMW is the fabric (switch+buffer+wire, DVFS-adjusted)
	// power over the window; StaticMW is the managed static +
	// transition power (zero without a DPM policy; fault residual
	// power is accounted in the end-of-run Report, not here).
	DynamicMW float64 `json:"dynamicMW"`
	StaticMW  float64 `json:"staticMW"`
	// End-to-end cell counters over the window.
	OfferedCells     uint64 `json:"offered"`
	DeliveredCells   uint64 `json:"delivered"`
	NodeDroppedCells uint64 `json:"nodeDropped"`
	LinkDroppedCells uint64 `json:"linkDropped"`
	// QueuedCells is the network-wide ingress backlog at Slot;
	// NodeQueues breaks it down per node.
	QueuedCells int          `json:"queuedCells"`
	NodeQueues  []int        `json:"nodeQueues"`
	Links       []LinkSample `json:"links"`
	// Latency buckets delivered cells' end-to-end latency over the
	// window (telemetry.Histogram bucketing).
	Latency []uint64 `json:"latency"`
	// DPM is the activity summed across every managed router, present
	// only when the network runs a power-management policy.
	DPM *sim.DPMTelemetry `json:"dpm,omitempty"`
	// DownNodes/DownLinks count failed entities at Slot (directed
	// links, matching the Links list).
	DownNodes int `json:"downNodes"`
	DownLinks int `json:"downLinks"`
}

// FlowTelemetry is one flow's whole-run delivery account.
type FlowTelemetry struct {
	Flow           int      `json:"flow"`
	Src            int      `json:"src"`
	Dst            int      `json:"dst"`
	DeliveredCells uint64   `json:"delivered"`
	Latency        []uint64 `json:"latency"`
}

// TelemetrySummary is the per-flow wrap-up emitted at the end of Run.
type TelemetrySummary struct {
	Kind  string          `json:"kind"` // "net_flows"
	Slot  uint64          `json:"slot"`
	Flows []FlowTelemetry `json:"flows"`
	// NodeCostNS appears only when the run also carried an execution
	// profiler (Config.Trace): each node's sampled busy nanoseconds
	// (see ExecProfile). Wall-clock measurement, so unlike every other
	// field it is not deterministic across runs or shard counts.
	NodeCostNS []uint64 `json:"nodeCostNS,omitempty"`
}

// telCollector is the per-network sampling state behind
// Config.Telemetry: every Every slots the kernel emits one
// TelemetrySample covering the interval since the previous sample —
// dynamic/static power, end-to-end cell counters, per-link utilization
// and queue occupancy, per-node ingress backlog, DPM state residency,
// fault up/down state, and a cell-latency histogram — and at the end
// of Run one TelemetrySummary with per-flow delivery counts and
// latency histograms.
//
// It follows the fault plan's contract with the hot loop: a nil config
// leaves the kernel on its telemetry-free fast path (every telemetry
// branch is guarded and not taken). Hot-path counters are single-writer
// under the sharding ownership rules: linkMoved[li] is incremented only
// by the draining (destination) shard, the per-flow ledgers only by the
// flow's destination shard, and per-shard latency buckets live on the
// shard itself (shard.telLat). Everything merges in take(), which runs
// single-threaded at the slot barrier, so emitted series are
// bit-identical for any shard count. Sampling reuses one sample struct
// and never allocates; only the caller's sink does.
type telCollector struct {
	// Sampler keeps the interval clock and differences the routers'
	// energy, drop and DPM ledgers; the last* fields are the end-to-end
	// baselines. Both are rebased to zero when beginMeasurement resets
	// the underlying ledgers.
	sim.Sampler
	sample          TelemetrySample
	lastOffered     uint64
	lastDelivered   uint64
	lastLinkDropped uint64

	linkMoved []uint64 // per-link cells drained this interval

	// Whole-run per-flow ledgers (destination-shard single-writer).
	flowDelivered []uint64
	flowHist      [][]uint64
}

func newTelCollector(n *Network) *telCollector {
	t := &telCollector{
		Sampler:       sim.NewSampler(n.cfg.Telemetry, n.cfg.Model.Tech.CellTimeNS(n.cfg.CellBits)),
		linkMoved:     make([]uint64, len(n.links)),
		flowDelivered: make([]uint64, len(n.flows)),
		flowHist:      make([][]uint64, len(n.flows)),
	}
	for fi := range t.flowHist {
		t.flowHist[fi] = make([]uint64, latencyBuckets)
	}
	t.sample = TelemetrySample{
		Kind:       "net_sample",
		NodeQueues: make([]int, n.topo.Nodes),
		Links:      make([]LinkSample, len(n.links)),
		Latency:    make([]uint64, latencyBuckets),
	}
	for li := range n.links {
		t.sample.Links[li].From = n.topo.Links[li].From
		t.sample.Links[li].To = n.topo.Links[li].To
	}
	return t
}

// take closes the interval ending at slot, fills the reused sample
// and hands it to the sink. Runs single-threaded between slots (from
// Step before the phases, from beginMeasurement, and at the end of
// Run), so every ledger it reads is quiescent. Allocation-free.
func (n *Network) take(slot uint64) {
	var mergeStart int64
	if n.prof != nil {
		mergeStart = n.prof.rec.Now()
	}
	n.catchUpAll(slot)
	t := n.tel
	interval := t.Close(slot)
	if interval == 0 {
		return
	}
	smp := &t.sample
	smp.Slot = slot
	smp.Interval = interval

	// Power, drops and DPM activity: the routers' cumulative ledgers,
	// read and differenced as the single-router probe does.
	var now sim.Ledger
	queued := 0
	for u, r := range n.routers {
		now.Read(r, n.mgrs[u])
		q := r.QueuedCells()
		smp.NodeQueues[u] = q
		queued += q
	}
	smp.DynamicMW, smp.StaticMW, smp.NodeDroppedCells, smp.DPM = t.Difference(now, interval)
	smp.QueuedCells = queued

	// End-to-end counters and latency buckets: merge the shard-private
	// ledgers. Sums are order-independent, so the merged values cannot
	// depend on the partition.
	var offered, delivered, linkDropped uint64
	for i := range smp.Latency {
		smp.Latency[i] = 0
	}
	for w := range n.shards {
		s := &n.shards[w]
		offered += s.offered
		delivered += s.delivered
		linkDropped += s.linkDropped
		for i, c := range s.telLat {
			smp.Latency[i] += c
			s.telLat[i] = 0
		}
	}
	smp.OfferedCells = offered - t.lastOffered
	smp.DeliveredCells = delivered - t.lastDelivered
	smp.LinkDroppedCells = linkDropped - t.lastLinkDropped
	t.lastOffered, t.lastDelivered, t.lastLinkDropped = offered, delivered, linkDropped

	smp.DownNodes, smp.DownLinks = 0, 0
	if n.fail != nil {
		for _, down := range n.fail.nodeDown {
			if down {
				smp.DownNodes++
			}
		}
	}
	cap64 := float64(interval)
	for li := range n.links {
		ls := &smp.Links[li]
		ls.Moved = t.linkMoved[li]
		t.linkMoved[li] = 0
		ls.Utilization = float64(ls.Moved) / (cap64 * float64(n.topo.Links[li].Capacity))
		ls.Queue = n.links[li].size
		ls.Up = n.fail == nil || n.fail.linkUp[li]
		if !ls.Up {
			smp.DownLinks++
		}
	}

	t.Emit(smp)
	if n.prof != nil {
		// The telemetry merge is coordinator work; show it on the
		// coordinator row so sampling cost is visible in the trace.
		n.prof.coordTrk.Emit("merge", mergeStart, n.prof.rec.Now())
	}
}

// rebase zeroes the delta baselines after beginMeasurement reset the
// cumulative ledgers underneath them.
func (t *telCollector) rebase() {
	t.Rebase()
	t.lastOffered, t.lastDelivered, t.lastLinkDropped = 0, 0, 0
}

// summarize builds the per-flow wrap-up (allocates; called once per
// Run).
func (n *Network) summarize(slot uint64) *TelemetrySummary {
	t := n.tel
	sum := &TelemetrySummary{
		Kind:  "net_flows",
		Slot:  slot,
		Flows: make([]FlowTelemetry, len(n.flows)),
	}
	for fi := range n.flows {
		hist := make([]uint64, len(t.flowHist[fi]))
		copy(hist, t.flowHist[fi])
		sum.Flows[fi] = FlowTelemetry{
			Flow:           fi,
			Src:            n.flows[fi].Src,
			Dst:            n.flows[fi].Dst,
			DeliveredCells: t.flowDelivered[fi],
			Latency:        hist,
		}
	}
	if n.prof != nil {
		sum.NodeCostNS = append([]uint64(nil), n.prof.nodeBusyNS...)
	}
	return sum
}

// Shard-worker occupancy and construction counters on the process-wide
// registry (expvar-visible once published). A K-shard network holds
// K−1 worker goroutines from its first Step to Close; the goroutine
// calling Step is the K-th.
var (
	telShardWorkers  = telemetry.Default().Gauge("netsim.shard.workers")
	telNetworksBuilt = telemetry.Default().Counter("netsim.networks.built")
)
