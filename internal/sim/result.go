package sim

import (
	"fabricpower/internal/core"
	"fabricpower/internal/dpm"
)

// Power is a per-component power report in milliwatts.
type Power struct {
	SwitchMW float64 `json:"switchMW"`
	BufferMW float64 `json:"bufferMW"`
	WireMW   float64 `json:"wireMW"`
	// StaticMW is the always-on (leakage + clock) power drawn over the
	// window, including state-transition overhead (and, on a network
	// with a fault plan, the parked and re-convergence power). Zero
	// unless a power manager with a non-zero static model drove the run.
	StaticMW float64 `json:"staticMW"`
}

// TotalMW sums all components.
func (p Power) TotalMW() float64 { return p.SwitchMW + p.BufferMW + p.WireMW + p.StaticMW }

// DynamicMW sums the dynamic components only.
func (p Power) DynamicMW() float64 { return p.SwitchMW + p.BufferMW + p.WireMW }

// Result is the measurement of one window: a single router's (Run,
// Snapshot) or a whole network's (internal/netsim), in which case Net
// is set and the power and latency fields hold the network-wide
// totals (end-to-end latency, summed power). It is also the public
// result record (study.Result) and its JSON form.
type Result struct {
	// Arch and Ports identify the fabric configuration (for networks:
	// each router's).
	Arch  string `json:"arch"`
	Ports int    `json:"ports"`
	// Slots is the measured window; SlotNS its per-slot duration.
	Slots  uint64  `json:"slots"`
	SlotNS float64 `json:"slotNS"`
	// Throughput is the measured egress throughput as a fraction of
	// aggregate port capacity, the paper's x-axis (single routers;
	// networks report Net.DeliveryRatio instead).
	Throughput float64 `json:"throughput"`
	// AvgLatencySlots and MaxLatencySlots summarize cell latency.
	AvgLatencySlots float64 `json:"avgLatencySlots"`
	MaxLatencySlots uint64  `json:"maxLatencySlots"`
	// Energy is the fabric's energy breakdown over the window (DVFS
	// adjustment included); Power is Energy over the window's
	// wall-clock time, plus static power.
	Energy core.Breakdown `json:"energy"`
	Power  Power          `json:"power"`
	// EnergyPerBitFJ is the average fabric energy per delivered bit.
	EnergyPerBitFJ float64 `json:"energyPerBitFJ"`
	// BufferEvents counts fabric-internal bufferings (Banyan only).
	BufferEvents uint64 `json:"bufferEvents,omitempty"`
	// DroppedCells counts ingress-queue overflows.
	DroppedCells uint64 `json:"droppedCells,omitempty"`
	// QueuedCells is the ingress backlog at the end of the window (a
	// saturation indicator).
	QueuedCells int `json:"queuedCells,omitempty"`
	// DPM is the power manager's ledger over the window: static and
	// transition energy, DVFS dynamic adjustment, and state-change
	// counters. Nil when no manager drove the run.
	DPM *dpm.Report `json:"dpm,omitempty"`
	// Net holds the network-level measurements; nil for a single
	// router.
	Net *NetReport `json:"net,omitempty"`
}

// NetReport carries the network-level measurements of a network run.
type NetReport struct {
	// Topology and Nodes identify the run.
	Topology string `json:"topology"`
	Nodes    int    `json:"nodes"`
	// OfferedCells counts source-injection attempts; DeliveredCells
	// counts cells that reached their destination host.
	OfferedCells   uint64 `json:"offeredCells"`
	DeliveredCells uint64 `json:"deliveredCells"`
	// NodeDroppedCells sums ingress-queue overflows (almost always at
	// the source edge: transit forwarding backpressures instead);
	// LinkDroppedCells counts full-link drops at fabric egress.
	NodeDroppedCells uint64 `json:"nodeDroppedCells"`
	LinkDroppedCells uint64 `json:"linkDroppedCells"`
	// DeliveryRatio is DeliveredCells/OfferedCells; AvgHops the mean
	// link count of delivered cells' paths.
	DeliveryRatio float64 `json:"deliveryRatio"`
	AvgHops       float64 `json:"avgHops"`
	// Resilience is filled only when the run carried a non-empty fault
	// plan; nil on fault-free runs.
	Resilience *ResilienceReport `json:"resilience,omitempty"`
}

// FlowStats is one flow's measured-window cell ledger under a fault
// plan. Lost counts every cell the failure model cost the flow: cells
// offered while the flow was parked (endpoint down or unreachable),
// cells flushed from failed routers and links, cells stranded on a
// stale route after a re-convergence, and cells refused by down or
// full links.
type FlowStats struct {
	Src       int    `json:"src"`
	Dst       int    `json:"dst"`
	Offered   uint64 `json:"offered"`
	Delivered uint64 `json:"delivered"`
	Lost      uint64 `json:"lost"`
}

// LinkAvailability is one undirected link pair's measured-window
// availability: the fraction of slots the pair was usable (itself
// healthy and both endpoints up).
type LinkAvailability struct {
	From         int     `json:"from"`
	To           int     `json:"to"`
	DownSlots    uint64  `json:"downSlots"`
	Availability float64 `json:"availability"`
}

// ResilienceReport is the failure ledger a fault plan fills in: the
// per-flow delivery ledger, per-link availability, and the energy the
// failures themselves cost (parked routers, re-convergence).
type ResilienceReport struct {
	// LostCells sums every flow's Lost column.
	LostCells uint64 `json:"lostCells"`
	// Flows is the per-flow ledger, in flow order.
	Flows []FlowStats `json:"flows,omitempty"`
	// Links is the per-pair availability, in pair order (ascending
	// (From, To)).
	Links []LinkAvailability `json:"links,omitempty"`
	// NodeDownSlots sums down slots over all routers.
	NodeDownSlots uint64 `json:"nodeDownSlots"`
	// ReconvergeEvents counts topology changes that triggered
	// re-routing; ReroutedFlows sums the flows whose installed path
	// actually changed (parked flows are not charged).
	ReconvergeEvents uint64 `json:"reconvergeEvents"`
	ReroutedFlows    uint64 `json:"reroutedFlows"`
	// ReconvergeFJ is ReroutedFlows × ReconvergeCostFJ; ResidualFJ is
	// the parked power of down routers integrated over the window.
	// Both are folded into the network's Power.StaticMW.
	ReconvergeFJ float64 `json:"reconvergeFJ"`
	ResidualFJ   float64 `json:"residualFJ"`
}
