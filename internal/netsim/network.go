package netsim

import (
	"fmt"
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"fabricpower/internal/core"
	"fabricpower/internal/dpm"
	"fabricpower/internal/fabric"
	"fabricpower/internal/packet"
	"fabricpower/internal/rng"
	"fabricpower/internal/router"
	"fabricpower/internal/sim"
	"fabricpower/internal/tech"
	"fabricpower/internal/telemetry"
)

// Config assembles a network simulation.
type Config struct {
	// Topology wires the routers together.
	Topology *Topology
	// Arch selects every node's switch-fabric architecture.
	Arch core.Architecture
	// Model supplies the energy model shared by all nodes. Attach
	// Model.Static (core.DefaultStaticPower) to study power management;
	// the zero static model reproduces dynamic-only accounting.
	Model core.Model
	// CellBits is the fixed cell size (default 1024).
	CellBits int
	// Queue selects each router's ingress discipline (default FIFO).
	Queue router.QueueDiscipline
	// MaxQueueCells caps each ingress queue (default 64). Link
	// forwarding backpressures against it: a cell stays on its link
	// until the next-hop ingress has room.
	MaxQueueCells int
	// LinkQueueCells caps each inter-router link queue (default 32).
	// A cell delivered to a full link is dropped and counted.
	LinkQueueCells int
	// Policy, when non-empty, runs one dpm.Manager per router under the
	// named policy: a dpm built-in, or the policy NewPolicy constructs.
	// Empty means unmanaged routers with the paper's dynamic-only
	// accounting.
	Policy string
	// NewPolicy, when non-nil, constructs each managed router's policy
	// — the hook the study layer uses for a registered policy, as
	// Traffic.New is for a registered traffic kind. Nil resolves Policy
	// among dpm's built-ins (dpm.NewPolicy).
	NewPolicy func() (dpm.Policy, error)
	// Routing maps flows to paths (default ShortestPath).
	Routing RoutingPolicy
	// Matrix generates the demand between host nodes (default
	// UniformMatrix). Ignored when Flows is non-empty.
	Matrix TrafficMatrix
	// Load is the per-host offered load in cells per slot, fed to
	// Matrix. Ignored when Flows is non-empty.
	Load float64
	// Flows overrides Matrix+Load with an explicit demand list
	// (rates in cells/slot); tests use it to pin exact flows.
	Flows []Flow
	// Traffic selects the per-flow injection process (default: a
	// Bernoulli stream per flow at its matrix rate). See FlowSource.
	Traffic Traffic
	// Seed drives every flow's injection and payload streams
	// deterministically: each flow derives its own substreams from
	// (Seed, flow index), so results are bit-identical for any shard
	// count.
	Seed int64
	// Faults schedules deterministic link/router failures (see
	// FaultPlan). Nil — or an empty plan — leaves the kernel on its
	// fault-free fast path, byte-identical to a build without the
	// field.
	Faults *FaultPlan
	// Telemetry attaches an every-K-slots sampling collector (power,
	// per-link utilization, queue occupancy, DPM residency, fault
	// state, latency histograms — see TelemetryConfig). Nil leaves the
	// kernel on its telemetry-free fast path: no telemetry branch is
	// taken and results are byte-identical to a run without the field.
	Telemetry *TelemetryConfig
	// Trace attaches the execution profiler (see TraceConfig): sampled
	// per-shard phase spans, barrier waits and per-node cost onto a
	// trace.Recorder. Same contract as Telemetry: nil means the
	// profiler-free fast path, and a traced run's results are
	// bit-identical — the profiler observes wall-clock time only.
	Trace *TraceConfig
	// Shards partitions the routers into that many shards. Each slot's
	// compute phase (inject, drain incoming links, step the routers)
	// runs as one fork-join: the goroutine calling Step and Shards−1
	// worker goroutines claim shards until none is left, and after the
	// join the caller exchanges each shard's staged cells onto the link
	// queues. Results are bit-identical for any shard count; the speed
	// depends on free cores, since on a busy or small machine the caller
	// may compute every shard itself. 0 or 1 runs single-threaded;
	// negative uses GOMAXPROCS. Sharded networks hold worker goroutines —
	// call Close when done with one.
	Shards int
	// Partition overrides the node→shard assignment: Partition[u] is
	// the shard owning node u, with values in [0, effective shard
	// count). Results never depend on the partition — it decides only
	// which goroutine does the work — so a measured assignment
	// (ExecProfile().SuggestPartition from a profiled warmup run) is
	// free to feed back into a sweep. Nil picks the built-in
	// cost-weighted default: greedy LPT over a static per-node estimate
	// of traversal work.
	Partition []int
	// IdleSkip controls the idle fast path: "auto" or "on" (and the
	// empty default) let the kernel fast-forward provably idle nodes —
	// no queued or in-flight cells, no arrivals this slot — through a
	// reduced per-slot path that replays the full path's state changes
	// bit-identically, and put a node to sleep until its next event
	// once every further idle slot would replay identically; "off"
	// forces every node through the full step every slot. Both settings
	// produce byte-identical results; "off" exists so a suspected
	// divergence can be bisected.
	IdleSkip string
}

func (c Config) withDefaults() Config {
	if c.CellBits == 0 {
		c.CellBits = 1024
	}
	if c.MaxQueueCells == 0 {
		c.MaxQueueCells = 64
	}
	if c.LinkQueueCells == 0 {
		c.LinkQueueCells = 32
	}
	if c.Routing == nil {
		c.Routing = ShortestPath{}
	}
	if c.Matrix == nil {
		c.Matrix = UniformMatrix{}
	}
	if c.NewPolicy == nil {
		name := c.Policy
		c.NewPolicy = func() (dpm.Policy, error) { return dpm.NewPolicy(name) }
	}
	if c.Shards < 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	return c
}

// linkQueue is a fixed-capacity ring buffer of cells in flight on one
// link — fixed so the forwarding path never allocates. The backing
// array is sized to the next power of two so ring arithmetic is a mask
// instead of a modulo, and the hot paths move cells in blocks: drains
// walk contiguous segment views and fills reserve runs, instead of
// popping and pushing cell-at-a-time. Each queue has exactly one
// writer per phase: the claimant of the destination's shard pops in
// the compute phase, the coordinator pushes for the source's shard in
// the exchange phase, and the join between the phases orders them.
type linkQueue struct {
	buf        []*packet.Cell // power-of-two length
	mask       int
	cap        int // logical capacity (Config.LinkQueueCells)
	head, size int
}

func newLinkQueue(capacity int) linkQueue {
	n := 1
	for n < capacity {
		n <<= 1
	}
	return linkQueue{buf: make([]*packet.Cell, n), mask: n - 1, cap: capacity}
}

func (q *linkQueue) full() bool  { return q.size == q.cap }
func (q *linkQueue) empty() bool { return q.size == 0 }

func (q *linkQueue) push(c *packet.Cell) {
	q.buf[(q.head+q.size)&q.mask] = c
	q.size++
}

func (q *linkQueue) pop() *packet.Cell {
	c := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) & q.mask
	q.size--
	return c
}

// segment returns the contiguous run of queued cells starting off
// cells past the head, capped at k cells — the ring's occupied region
// as at most two slices split at the wrap point, so a drain walks
// blocks instead of popping cell-at-a-time.
func (q *linkQueue) segment(off, k int) []*packet.Cell {
	start := (q.head + off) & q.mask
	if start+k <= len(q.buf) {
		return q.buf[start : start+k]
	}
	return q.buf[start:]
}

// discard drops the k cells at the head — already consumed from a
// segment view — clearing their slots so delivered cells can be
// collected.
func (q *linkQueue) discard(k int) {
	for i := 0; i < k; i++ {
		q.buf[(q.head+i)&q.mask] = nil
	}
	q.head = (q.head + k) & q.mask
	q.size -= k
}

// pushBlock appends up to len(cells) cells as one reserved run and
// returns how many fit; the remainder overflowed a full queue.
func (q *linkQueue) pushBlock(cells []*packet.Cell) int {
	m := q.cap - q.size
	if m > len(cells) {
		m = len(cells)
	}
	base := q.head + q.size
	for i := 0; i < m; i++ {
		q.buf[(base+i)&q.mask] = cells[i]
	}
	q.size += m
	return m
}

// shard is one worker's partition of the network: a contiguous node
// range plus the measurement counters it accumulates privately (merged
// at report time, so no counter is ever shared between goroutines).
type shard struct {
	id    int
	nodes []int

	// Measured-window counters (end-to-end, across hops).
	offered      uint64
	delivered    uint64
	linkDropped  uint64
	latencySlots uint64
	maxLatency   uint64
	hopSlots     uint64

	// Per-flow ledgers, allocated only under an active fault plan.
	// Shard-private like every other counter: a flow's offered/lost
	// cells are counted by its source node's shard, delivered cells by
	// the destination's, and the report sums across shards.
	flowOffered   []uint64
	flowDelivered []uint64
	flowLost      []uint64

	// telLat is this shard's private latency-histogram buffer for the
	// current telemetry interval, allocated only with a collector
	// attached (its non-nilness doubles as the hot-path guard) and
	// merged+reset at sample time.
	telLat []uint64

	// pool recycles the cells this shard's sources inject and the cells
	// its nodes deliver, drop or lose. A cell injected on one shard may
	// end its life on another, so the network rebalances free cells
	// across shard pools at the slot barrier (balancePools); maxInject,
	// the number of flows sourced at the shard's nodes, is the most
	// cells its sources can take in one slot.
	pool      *packet.Pool
	maxInject int

	_ [8]uint64 // keep neighboring shards off one cache line
}

// Network is the slot-synchronous multi-router kernel: per slot it
// injects each flow's cells at its source edge port, moves cells across
// the inter-router links into next-hop ingress queues (capacity-limited,
// with backpressure), and steps every router — fabric transport, DPM
// hooks and energy accounting included — in lockstep.
//
// The routers are partitioned into Config.Shards shards and every slot
// runs as two phases separated by a join:
//
//	compute:  the Step caller and the K−1 workers claim shards (see
//	          forkJoin); each claimed shard injects its flows, drains
//	          its routers' incoming links and steps its routers,
//	          staging transit cells in per-node outboxes;
//	exchange: after the join, the Step caller moves each shard's
//	          outboxes onto the link queues, in shard order.
//
// Every piece of mutable state has exactly one owning shard per phase,
// and all measurement counters are shard-private until merged, so the
// results are bit-identical for any shard count — the partition only
// decides which goroutine does the work.
type Network struct {
	cfg     Config
	topo    *Topology
	routers []*router.Router
	mgrs    []*dpm.Manager // nil entries when unmanaged
	links   []linkQueue
	flows   []Flow
	words   int
	slot    uint64 // next slot to simulate; Run continues from here

	// Per-flow streams: the arrival process, the payload stream and the
	// cell-ID counter, each a pure function of (Seed, flow index). The
	// streams are single heap objects from streamPool, not elements of a
	// []rng.Stream slab (see README, "Random streams"); Close recycles
	// them.
	srcs    []FlowSource
	payload []*rng.Stream
	nextID  []uint64

	arrivals []nodeArrivals // per node, owned by the node's shard

	nodeFlows   [][]int32        // flows sourced at each node, ascending
	nodeInLinks [][]int32        // incoming link indices per node, ascending
	outbox      [][]*packet.Cell // staged transit cells per node

	// idleSkip enables the hybrid kernel's idle fast path; nodeBusy[u]
	// records whether node u's router held queued or in-flight cells
	// after its last full step, and inbound[u] whether its incoming
	// links may hold cells: the exchange phase sets it on every push,
	// drainInLinks clears it once the links are empty, so a stale true
	// costs a full step and never a result. sleep[u] is the node's
	// sleep record. The compute phase touches these only on the node's
	// owning shard; the exchange phase and the catch-up points run on
	// the coordinator, ordered against it by the fork and the join.
	idleSkip bool
	nodeBusy []bool
	inbound  []bool
	sleep    []sleepState

	shards     []shard
	fork       *forkJoin // nil until the first Step
	bufferBase []uint64

	// fail is non-nil only under a non-empty fault plan; every fault
	// branch in the hot paths is guarded on it, so a plan-free network
	// runs the exact instruction stream it always did. tel follows the
	// same contract for the telemetry collector.
	fail   *faultState
	tel    *telCollector
	prof   *execProf
	closed bool
}

// New builds the network: one router (and one manager, if a policy is
// named) per topology node, routed flows, per-flow traffic sources and
// empty link queues.
func New(cfg Config) (*Network, error) {
	cfg = cfg.withDefaults()
	t := cfg.Topology
	if t == nil {
		return nil, fmt.Errorf("netsim: topology is required")
	}
	if cfg.LinkQueueCells < 1 {
		return nil, fmt.Errorf("netsim: link queue must hold >= 1 cell, got %d", cfg.LinkQueueCells)
	}
	idleSkip := false
	switch cfg.IdleSkip {
	case "", "auto", "on":
		idleSkip = true
	case "off":
	default:
		return nil, fmt.Errorf("netsim: unknown IdleSkip %q (want auto, on or off)", cfg.IdleSkip)
	}
	flows := cfg.Flows
	if len(flows) == 0 {
		var err error
		flows, err = buildFlows(t, cfg.Matrix, cfg.Load)
		if err != nil {
			return nil, err
		}
	} else {
		flows = append([]Flow(nil), flows...)
	}
	for i := range flows {
		f := &flows[i]
		if f.Src < 0 || f.Src >= t.Nodes || f.Dst < 0 || f.Dst >= t.Nodes || f.Src == f.Dst {
			return nil, fmt.Errorf("netsim: flow %d: bad endpoints %d→%d", i, f.Src, f.Dst)
		}
		if len(t.EdgePorts(f.Src)) == 0 || len(t.EdgePorts(f.Dst)) == 0 {
			return nil, fmt.Errorf("netsim: flow %d: endpoints %d→%d must both have edge ports", i, f.Src, f.Dst)
		}
		if f.Rate < 0 || f.Rate > 1 {
			return nil, fmt.Errorf("netsim: flow %d: rate %g out of [0,1]", i, f.Rate)
		}
	}

	paths, err := cfg.Routing.Route(t, flows)
	if err != nil {
		return nil, err
	}
	if len(paths) != len(flows) {
		return nil, fmt.Errorf("netsim: routing %s returned %d paths for %d flows", cfg.Routing.Name(), len(paths), len(flows))
	}
	for i := range flows {
		if err := wireFlow(t, &flows[i], i, paths[i]); err != nil {
			return nil, err
		}
	}

	srcs, err := cfg.Traffic.newSources(flows, cfg.CellBits, cfg.Seed)
	if err != nil {
		return nil, err
	}

	n := &Network{
		cfg:         cfg,
		topo:        t,
		routers:     make([]*router.Router, t.Nodes),
		mgrs:        make([]*dpm.Manager, t.Nodes),
		links:       make([]linkQueue, len(t.Links)),
		flows:       flows,
		srcs:        srcs,
		payload:     make([]*rng.Stream, len(flows)),
		nextID:      make([]uint64, len(flows)),
		arrivals:    make([]nodeArrivals, t.Nodes),
		nodeFlows:   make([][]int32, t.Nodes),
		nodeInLinks: make([][]int32, t.Nodes),
		outbox:      make([][]*packet.Cell, t.Nodes),
		words:       packet.Config{CellBits: cfg.CellBits, BusWidth: 32}.Words(),
		bufferBase:  make([]uint64, t.Nodes),
		idleSkip:    idleSkip,
		nodeBusy:    make([]bool, t.Nodes),
		inbound:     make([]bool, t.Nodes),
		sleep:       make([]sleepState, t.Nodes),
	}
	for fi := range flows {
		n.payload[fi] = flowStream(flowSeed(cfg.Seed, fi, saltPayload))
		n.nodeFlows[flows[fi].Src] = append(n.nodeFlows[flows[fi].Src], int32(fi))
	}
	masks := make([]uint64, len(flows))
	for u, fs := range n.nodeFlows {
		n.arrivals[u].flows, masks = masks[:len(fs):len(fs)], masks[len(fs):]
	}
	for li := range n.links {
		if c := t.Links[li].Capacity; c < 1 {
			return nil, fmt.Errorf("netsim: link %d→%d capacity must be >= 1, got %d",
				t.Links[li].From, t.Links[li].To, c)
		}
		n.links[li] = newLinkQueue(cfg.LinkQueueCells)
		n.nodeInLinks[t.Links[li].To] = append(n.nodeInLinks[t.Links[li].To], int32(li))
	}
	cell := packet.Config{CellBits: cfg.CellBits, BusWidth: 32}
	for u := 0; u < t.Nodes; u++ {
		// A router delivers at most one cell per port per slot, so the
		// staging outbox never outgrows the port count.
		n.outbox[u] = make([]*packet.Cell, 0, t.Ports)
		rcfg := router.Config{
			Arch:          cfg.Arch,
			Fabric:        fabric.Config{Ports: t.Ports, Cell: cell, Model: cfg.Model},
			Queue:         cfg.Queue,
			MaxQueueCells: cfg.MaxQueueCells,
		}
		if cfg.Policy != "" {
			pol, err := cfg.NewPolicy()
			if err != nil {
				return nil, err
			}
			mgr, err := dpm.New(dpm.Config{
				Arch: cfg.Arch, Ports: t.Ports, Model: cfg.Model,
				CellBits: cfg.CellBits, Policy: pol,
			})
			if err != nil {
				return nil, fmt.Errorf("netsim: node %d: %w", u, err)
			}
			n.mgrs[u] = mgr
			rcfg.Gate = mgr
		}
		r, err := router.New(rcfg)
		if err != nil {
			return nil, fmt.Errorf("netsim: node %d: %w", u, err)
		}
		n.routers[u] = r
	}

	// Cost-weighted node partition: by default each shard gets nodes by
	// greedy LPT over a static per-node cost estimate, so a fat-tree
	// spine carrying most of the transit traffic no longer rides in
	// whatever contiguous block its number fell into. Config.Partition
	// overrides the assignment outright (a warmup run's measured
	// ExecProfile().SuggestPartition, typically). The partition only
	// affects which goroutine does the work, never the result.
	shards := cfg.Shards
	if shards > t.Nodes {
		shards = t.Nodes
	}
	part := cfg.Partition
	if part != nil {
		if len(part) != t.Nodes {
			return nil, fmt.Errorf("netsim: partition has %d entries for %d nodes", len(part), t.Nodes)
		}
		for u, w := range part {
			if w < 0 || w >= shards {
				return nil, fmt.Errorf("netsim: partition assigns node %d to shard %d of %d", u, w, shards)
			}
		}
	} else {
		part = lptPartition(estimateNodeCost(t, flows), shards)
	}
	n.shards = make([]shard, shards)
	for w := range n.shards {
		n.shards[w].id = w
	}
	for u := 0; u < t.Nodes; u++ {
		n.shards[part[u]].nodes = append(n.shards[part[u]].nodes, u)
		n.shards[part[u]].maxInject += len(n.nodeFlows[u])
	}
	// Cap each free list at the network's queue capacity, so cells
	// drifting from one shard to another cannot grow a pool without
	// bound.
	queueCap := t.Nodes*t.Ports*cfg.MaxQueueCells + len(t.Links)*cfg.LinkQueueCells
	for w := range n.shards {
		n.shards[w].pool = packet.NewPool(n.words, queueCap)
	}
	if !cfg.Faults.Empty() {
		fs, err := newFaultState(*cfg.Faults, t, len(flows), cfg.Seed)
		if err != nil {
			return nil, err
		}
		n.fail = fs
		for w := range n.shards {
			n.shards[w].flowOffered = make([]uint64, len(flows))
			n.shards[w].flowDelivered = make([]uint64, len(flows))
			n.shards[w].flowLost = make([]uint64, len(flows))
		}
	}
	if cfg.Telemetry != nil {
		n.tel = newTelCollector(n)
		for w := range n.shards {
			n.shards[w].telLat = make([]uint64, n.tel.cfg.LatencyBuckets)
		}
	}
	if cfg.Trace != nil && cfg.Trace.Recorder != nil {
		n.prof = newExecProf(n)
	}
	telNetworksBuilt.Inc()
	return n, nil
}

// wireFlow resolves a routed node path into per-hop ports and links.
func wireFlow(t *Topology, f *Flow, fi int, path []int) error {
	if len(path) < 2 || path[0] != f.Src || path[len(path)-1] != f.Dst {
		return fmt.Errorf("netsim: flow %d: path %v does not span %d→%d", fi, path, f.Src, f.Dst)
	}
	f.path = path
	f.ports = make([]int, len(path))
	f.links = make([]int, len(path)-1)
	for h := 0; h+1 < len(path); h++ {
		li := t.LinkIndex(path[h], path[h+1])
		if li < 0 {
			return fmt.Errorf("netsim: flow %d: path hop %d→%d is not a link", fi, path[h], path[h+1])
		}
		f.links[h] = li
		f.ports[h] = t.Links[li].FromPort
	}
	// Endpoint edge ports, spread across the available ones by flow
	// index so hosts with several line cards use them all.
	srcEdge := t.EdgePorts(f.Src)
	dstEdge := t.EdgePorts(f.Dst)
	f.src = srcEdge[fi%len(srcEdge)]
	f.ports[len(path)-1] = dstEdge[fi%len(dstEdge)]
	return nil
}

// estimateNodeCost is the static per-node cost model used when no
// measured profile is supplied: one unit of fixed per-slot work (DPM
// accounting, source ticking) plus the summed rates of every flow
// whose path traverses the node — traversal work (draining, admission,
// fabric transport) scales with the traffic a node carries.
func estimateNodeCost(t *Topology, flows []Flow) []float64 {
	cost := make([]float64, t.Nodes)
	for u := range cost {
		cost[u] = 1
	}
	for i := range flows {
		f := &flows[i]
		for _, u := range f.path {
			cost[u] += f.Rate
		}
	}
	return cost
}

// lptPartition assigns nodes to shards by greedy LPT (longest
// processing time first): nodes in descending cost order, each onto
// the currently lightest shard. Deterministic — ties break toward the
// lower node index and the lower shard id.
func lptPartition(cost []float64, shards int) []int {
	order := make([]int, len(cost))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return cost[order[a]] > cost[order[b]] })
	load := make([]float64, shards)
	part := make([]int, len(cost))
	for _, u := range order {
		w := 0
		for v := 1; v < shards; v++ {
			if load[v] < load[w] {
				w = v
			}
		}
		part[u] = w
		load[w] += cost[u]
	}
	return part
}

// Flows returns the routed flow list (paths filled in).
func (n *Network) Flows() []Flow { return n.flows }

// Router exposes one node's router (tests observe per-node state),
// brought up to date if the node is asleep.
func (n *Network) Router(u int) *router.Router {
	n.catchUp(u, n.slot)
	return n.routers[u]
}

// Shards reports the effective shard count.
func (n *Network) Shards() int { return len(n.shards) }

// Step advances the whole network one slot: the compute phase (source
// injection, link draining, router stepping) across all shards, joined,
// followed by the exchange phase (staged transit cells onto the links),
// shard by shard. Fault events are applied first, single-threaded
// before the fork, so every shard observes the same topology for the
// whole slot and the results stay bit-identical for any shard count.
// slot must be the network's next slot — 0 on a fresh network, then
// consecutive — and Step advances the clock Run continues from.
func (n *Network) Step(slot uint64) {
	if n.closed {
		panic("netsim: Step on a closed Network")
	}
	if slot != n.slot {
		panic(fmt.Sprintf("netsim: Step(%d) out of order: the next slot is %d", slot, n.slot))
	}
	if n.tel != nil && slot >= n.tel.nextSlot {
		// Close the interval before this slot's fault events apply, so
		// a sample's instantaneous state matches the slots it covers.
		n.take(slot)
	}
	if n.fail != nil && slot >= n.fail.nextSlot {
		// A fault event can change any node's next event: wake them all.
		n.catchUpAll(slot)
		clear(n.sleep)
		n.applyFaults(slot)
	}
	if n.prof != nil {
		n.prof.beginSlot(slot)
	}
	if n.fork == nil {
		n.fork = newForkJoin(n)
	}
	n.balancePools()
	n.fork.compute(slot)
	for w := range n.shards {
		n.exchangePhase(&n.shards[w], slot)
	}
	if n.prof != nil && n.prof.sampling {
		// The join ordered every shard's compute timings before the
		// exchanges; fold the sampled slot into the profile.
		n.prof.closeSlot(slot)
	}
	n.slot++
}

// balancePools tops up, before each slot's fork, every shard pool that
// could run dry this slot from the other pools' surplus. Cells return
// to the pool of the shard where their life ends, which under
// asymmetric traffic is not the shard that injected them; without this
// the injecting shard would allocate forever while the other filled
// its cap. A pool gives only what it holds beyond its own worst case,
// so two short pools never trade the same cells back and forth. It
// runs on the coordinator between slots, where no shard touches its
// pool; a lone shard has no one to trade with.
func (n *Network) balancePools() {
	for w := range n.shards {
		s := &n.shards[w]
		short := s.maxInject - s.pool.Free()
		for v := range n.shards {
			if short <= 0 {
				break
			}
			d := &n.shards[v]
			if surplus := d.pool.Free() - d.maxInject; surplus > 0 {
				k := min(short, surplus)
				s.pool.Take(d.pool, k)
				short -= k
			}
		}
	}
}

// Close releases the shard worker goroutines, if a sharded Step started
// any, and recycles the flows' random streams. Close is idempotent, and
// a closed network refuses to step: Step panics and Run errors with a
// message naming the misuse instead of silently respawning workers.
func (n *Network) Close() {
	if n.closed {
		return
	}
	n.closed = true
	// The pool hands streams back last in, first out, so returning them
	// in reverse build order lets the next build take them in its own
	// order: adjacent flows keep adjacent streams, on which net-lowload's
	// per-slot coin draws ran 5–8% faster than on a scrambled order.
	for fi := len(n.payload) - 1; fi >= 0; fi-- {
		streamPool.Put(n.payload[fi])
	}
	for fi := len(n.srcs) - 1; fi >= 0; fi-- {
		recycleStream(n.srcs[fi])
	}
	n.srcs, n.payload = nil, nil
	if n.fork != nil {
		n.fork.stop()
		n.fork = nil
	}
}

// computePhase runs phase 1 for one shard: for each owned node, in
// ascending order — source injection, incoming-link draining, then the
// router's slot. Everything it touches (per-flow streams, the owned
// routers, the head side of incoming link queues, the shard counters)
// is owned by this shard during the phase.
func (n *Network) computePhase(s *shard, slot uint64) {
	if n.prof != nil && n.prof.sampling {
		n.computePhaseProf(s, slot)
		return
	}
	for _, u := range s.nodes {
		if n.sleep[u].wake > slot {
			continue
		}
		n.nodeSlot(s, u, slot)
	}
}

// computePhaseProf is computePhase on a sampled slot: the same node
// walk, with the shard's phase span and each node's cost timed. The
// span lands on the shard's own track whichever goroutine claimed the
// shard; one claimant per slot makes every write (the track, the
// timing slot, the nodes' cost cells) single-writer.
func (n *Network) computePhaseProf(s *shard, slot uint64) {
	p := n.prof
	start := p.rec.Now()
	last := start
	visits := uint64(0)
	for _, u := range s.nodes {
		if n.sleep[u].wake > slot {
			continue
		}
		n.nodeSlot(s, u, slot)
		now := p.rec.Now()
		p.nodeBusyNS[u] += uint64(now - last)
		last = now
		visits++
	}
	p.tracks[s.id].EmitArg("compute", start, last, int64(slot))
	p.computeNS[s.id] = last - start
	p.visits[s.id] += visits
}

// nodeSlot runs one node's compute-phase work: source injection,
// incoming-link draining, the router's slot. A provably idle node — no
// queued or in-flight cells after its last full step, no arrivals this
// slot, nothing waiting on its incoming links — takes the idle fast
// path instead: the DPM manager and arbiter replay their exact per-slot
// state changes (policy decisions, wakeup countdowns, static-energy
// ledgers, tie-break rotation) while the fabric walk, queue scans and
// link drains — all no-ops on an empty router — are skipped. Once the
// manager is on its steady-idle memo (or there is none), the node goes
// to sleep until its next event (see sleepState), and a waking node
// first replays the slots it slept through. The paths are
// bit-identical; Config.IdleSkip "off" forces the full one.
func (n *Network) nodeSlot(s *shard, u int, slot uint64) {
	if n.sleep[u].from != 0 {
		n.catchUp(u, slot)
		n.sleep[u].from = 0
	}
	arrived := n.injectNode(s, u, slot)
	if n.fail != nil && n.fail.nodeDown[u] {
		// A failed router neither forwards nor burns fabric
		// energy; it parks at the plan's residual power (charged
		// in the resilience ledger). Its sources still tick —
		// their cells are lost, not deferred — and its incident
		// links are all down, so nothing waits on them.
		return
	}
	if n.idleSkip && !arrived && !n.nodeBusy[u] && !n.inbound[u] {
		mgr := n.mgrs[u]
		if mgr != nil {
			mgr.IdleSlot(slot)
		}
		n.routers[u].IdleStep(slot)
		if mgr == nil || mgr.IdleSteady() {
			n.sleep[u] = sleepState{from: slot + 1, wake: n.nextWake(u, slot)}
		}
		return
	}
	n.drainInLinks(s, u, slot)
	n.stepNode(s, u, n.routers[u], slot)
}

// sleepState is one node's sleep record. A node on the idle path whose
// manager is on its steady-idle memo (or that has no manager) would
// replay the same state change every slot until an event reaches it:
// an arrival, a cell pushed onto an incoming link, a fault. So the
// compute phase skips it until wake, and the skipped stretch is
// replayed in one call (catchUp) when it wakes or when a catch-up point
// — a fault event, a telemetry sample, the measurement boundary, the
// end of Run, Router — reads its state. from is the first slot not yet
// replayed, 0 while the node is awake; wake is the next slot the node
// must be visited, at most the current slot while it is awake.
type sleepState struct {
	from, wake uint64
}

// nextWake returns the slot a node falling asleep after slot must next
// be visited: its next arrival in the loaded block; failing that, the
// next block start if it sources flows, since every source decides
// every block; otherwise never, until a link push or a fault wakes it.
func (n *Network) nextWake(u int, slot uint64) uint64 {
	if i := slot%BlockSlots + 1; i < BlockSlots {
		if rest := n.arrivals[u].any >> i; rest != 0 {
			return slot + 1 + uint64(bits.TrailingZeros64(rest))
		}
	}
	if len(n.nodeFlows[u]) > 0 {
		return slot - slot%BlockSlots + BlockSlots
	}
	return neverSlot
}

// catchUp replays the slots sleeping node u skipped up to slot, leaving
// it asleep. It runs on the node's shard when the node wakes, or on
// the coordinator between slots.
func (n *Network) catchUp(u int, slot uint64) {
	sl := &n.sleep[u]
	if sl.from == 0 {
		return
	}
	k := slot - sl.from
	if mgr := n.mgrs[u]; mgr != nil {
		mgr.IdleSlots(k)
	}
	n.routers[u].IdleSteps(k)
	sl.from = slot
}

// catchUpAll brings every sleeping node up to date before the
// coordinator reads their state at slot.
func (n *Network) catchUpAll(slot uint64) {
	for u := range n.sleep {
		n.catchUp(u, slot)
	}
}

// injectNode injects fresh cells at the source edge port of every
// locally sourced flow whose arrival bit is set for this slot, in
// ascending flow order. It reports whether any cell was presented to
// the router this slot — an arrival makes the node active regardless
// of its previous state.
func (n *Network) injectNode(s *shard, u int, slot uint64) (arrived bool) {
	a := &n.arrivals[u]
	if blk := slot/BlockSlots + 1; a.block != blk {
		a.block = blk
		n.nextBlock(u, slot-slot%BlockSlots)
	}
	bit := uint64(1) << (slot % BlockSlots)
	if a.any&bit == 0 {
		return false
	}
	for j, fi := range n.nodeFlows[u] {
		if a.flows[j]&bit == 0 {
			continue
		}
		f := &n.flows[fi]
		n.nextID[fi]++
		s.offered++
		if n.fail != nil {
			s.flowOffered[fi]++
			// A parked flow (endpoint down or unreachable) or a down
			// source loses its cells at the door.
			if f.path == nil || n.fail.nodeDown[u] {
				s.flowLost[fi]++
				continue
			}
		}
		c := s.pool.Get()
		// IDs are unique network-wide and independent of sharding: the
		// flow index tags the high bits, the flow's own cell count the
		// low.
		c.ID = uint64(fi+1)<<32 | n.nextID[fi]
		c.Src, c.Dest = f.src, f.ports[0]
		c.CreatedSlot, c.FlowID = slot, fi
		c.FillRandom(n.payload[fi])
		// A full source queue drops the cell; the router counts it.
		if !n.routers[u].Inject(c, slot) {
			if n.fail != nil {
				s.flowLost[fi]++
			}
			s.pool.Put(c)
		}
		arrived = true
	}
	return arrived
}

// nodeArrivals holds one node's arrival decisions for the current
// 64-slot block: bit i of flows[j] is flow nodeFlows[u][j]'s decision
// for slot block·64+i, and any ORs them.
type nodeArrivals struct {
	block uint64 // the loaded block plus one; 0 before the first
	any   uint64
	flows []uint64
}

// nextBlock decides node u's arrivals for the block starting at slot
// first, one source after another in flow order, so each source's
// stream stays in cache for its whole block. Every source decides
// every block whatever the fault or queue state — fault state must not
// perturb the injection streams, or runs with different plans would
// see different traffic.
func (n *Network) nextBlock(u int, first uint64) {
	a := &n.arrivals[u]
	a.any = 0
	for j, fi := range n.nodeFlows[u] {
		a.flows[j] = n.srcs[fi].NextBlock(first)
		a.any |= a.flows[j]
	}
}

// drainInLinks moves cells from node u's incoming links into its
// ingress, up to each link's per-slot capacity. A full ingress queue
// backpressures the link: its head cell (and everything behind it)
// waits. Each ring is drained in blocks — at most two contiguous
// segment views split at the wrap point, discarded in one head advance
// — instead of popping cell-at-a-time. It returns at once when no link
// can hold a cell (inbound false), and clears inbound once every link
// is empty.
func (n *Network) drainInLinks(s *shard, u int, slot uint64) {
	if !n.inbound[u] {
		return
	}
	r := n.routers[u]
	pending := false
	for _, li := range n.nodeInLinks[u] {
		q := &n.links[li]
		if q.size == 0 {
			continue
		}
		l := &n.topo.Links[li]
		take := l.Capacity
		if q.size < take {
			take = q.size
		}
		// room mirrors the ingress backpressure check: QueueLen grows
		// only by this loop's own successful injections during the
		// phase, so one read plus a local countdown replays the
		// per-cell re-read exactly.
		room := int(^uint(0) >> 1)
		if n.cfg.MaxQueueCells > 0 {
			room = n.cfg.MaxQueueCells - r.QueueLen(l.ToPort)
			if room <= 0 {
				pending = true
				continue
			}
		}
		moved := 0
	drain:
		for moved < take {
			for _, c := range q.segment(moved, take-moved) {
				if room <= 0 {
					break drain
				}
				moved++
				if n.tel != nil {
					// Single writer: only node u's shard drains link li.
					n.tel.linkMoved[li]++
				}
				f := &n.flows[c.FlowID]
				if n.fail != nil {
					// Re-convergence may have moved the flow off this
					// link while the cell was in flight: a cell whose
					// next hop is no longer node u is stranded here.
					hop := int(c.Hop) + 1
					if f.path == nil || hop >= len(f.path) || f.path[hop] != u {
						s.flowLost[c.FlowID]++
						s.pool.Put(c)
						continue
					}
				}
				c.Hop++
				c.Src = l.ToPort
				c.Dest = f.ports[c.Hop]
				if r.Inject(c, slot) {
					room--
					continue
				}
				if n.fail != nil {
					s.flowLost[c.FlowID]++
				}
				s.pool.Put(c)
			}
		}
		q.discard(moved)
		pending = pending || q.size != 0
	}
	n.inbound[u] = pending
}

// stepNode runs one router's slot (DPM hooks included) and sorts the
// delivered cells: cells at their final node into the end-to-end
// ledger, transit cells into the node's outbox for the exchange phase.
// This per-router loop is allocation-free: flow state rides in the
// cell, link queues are fixed rings, the outbox is a reused
// fixed-capacity slice.
func (n *Network) stepNode(s *shard, u int, r *router.Router, slot uint64) {
	mgr := n.mgrs[u]
	var delivered []*packet.Cell
	if mgr != nil {
		mgr.PreSlot(slot, r)
		delivered = r.Step(slot)
		mgr.PostSlot(slot, delivered, r.Fabric().Energy())
	} else {
		delivered = r.Step(slot)
	}
	out := n.outbox[u][:0]
	for _, c := range delivered {
		f := &n.flows[c.FlowID]
		if n.fail != nil {
			// Validity check at the hop boundary: a re-convergence
			// while the cell crossed this fabric may have moved its
			// flow off node u entirely — the cell is lost here.
			if f.path == nil || int(c.Hop) >= len(f.path) || f.path[c.Hop] != u {
				s.flowLost[c.FlowID]++
				s.pool.Put(c)
				continue
			}
		}
		if int(c.Hop) == len(f.path)-1 {
			s.delivered++
			if n.fail != nil {
				s.flowDelivered[c.FlowID]++
			}
			lat := slot - c.CreatedSlot
			s.latencySlots += lat
			if lat > s.maxLatency {
				s.maxLatency = lat
			}
			s.hopSlots += uint64(len(f.links))
			if s.telLat != nil {
				// This shard owns the flow's destination node, so the
				// per-flow ledgers have a single writer too.
				b := telemetry.Bucket(lat, len(s.telLat))
				s.telLat[b]++
				n.tel.flowDelivered[c.FlowID]++
				n.tel.flowHist[c.FlowID][b]++
			}
			s.pool.Put(c)
			continue
		}
		out = append(out, c)
	}
	n.outbox[u] = out
	// Re-derive the activity flag after the full step — both reads are
	// O(1) counters. A node with nothing queued and nothing in flight
	// can take the idle fast path until a new arrival wakes it.
	n.nodeBusy[u] = r.QueuedCells() > 0 || r.InFlight() > 0
}

// exchangePhase runs phase 2 for one shard on the coordinator, after
// the join: each owned node's staged transit cells move onto their next
// link, in delivery order. Only the source node's shard pushes onto a
// link (a link has one From node), and dropped cells go back to that
// shard's pool, so the shard-by-shard order cannot change a result.
func (n *Network) exchangePhase(s *shard, slot uint64) {
	if n.prof != nil && n.prof.sampling {
		p := n.prof
		start := p.rec.Now()
		n.exchangeNodes(s)
		end := p.rec.Now()
		p.tracks[s.id].Emit("exchange", start, end)
		p.exchangeNS[s.id] = end - start
		return
	}
	n.exchangeNodes(s)
}

// exchangeNodes is the exchange phase's body: each owned node's staged
// cells onto their next links. Runs of consecutive cells bound for the
// same link fill its ring as one reserved block; whatever a block
// cannot fit overflowed a full queue and is dropped, exactly as the
// cell-at-a-time path would have.
func (n *Network) exchangeNodes(s *shard) {
	for _, u := range s.nodes {
		out := n.outbox[u]
		for i := 0; i < len(out); {
			li := n.flows[out[i].FlowID].links[out[i].Hop]
			j := i + 1
			for j < len(out) && n.flows[out[j].FlowID].links[out[j].Hop] == li {
				j++
			}
			if n.fail != nil && !n.fail.linkUp[li] {
				// Down links refuse cells outright.
				for _, c := range out[i:j] {
					s.flowLost[c.FlowID]++
					s.pool.Put(c)
				}
				i = j
				continue
			}
			q := &n.links[li]
			m := q.pushBlock(out[i:j])
			// A push wakes the link's far end, asleep or not.
			v := n.topo.Links[li].To
			n.inbound[v] = true
			n.sleep[v].wake = 0
			for _, c := range out[i+m : j] {
				s.linkDropped++
				if n.fail != nil {
					s.flowLost[c.FlowID]++
				}
				s.pool.Put(c)
			}
			i = j
		}
		n.outbox[u] = out[:0]
	}
}

// forkJoin runs each slot's compute phase as one fork-join. The
// goroutine calling Step (the coordinator) publishes the slot, wakes
// the K−1 parked workers, and then it and any worker already awake
// claim shards from one ticket counter until none is left; the
// coordinator parks only if a worker still holds a shard, until that
// worker finishes the slot's last one. Tickets are absolute — the
// phase-th fork owns phase·K … phase·K+K−1, and a claim never moves
// the counter past its own phase's range — so a worker waking late
// cannot claim a shard of a later slot. The atomics and the join
// channel order a shard's compute writes before the coordinator's
// exchange and a link's exchange pushes before the next slot's pops.
// With one shard there are no workers and no wait: the coordinator
// claims the shard itself.
type forkJoin struct {
	n      *Network
	k      uint64
	slot   atomic.Uint64
	phase  atomic.Uint64 // published phase, stored after slot; only the coordinator writes it
	ticket atomic.Uint64 // next unclaimed shard ticket
	left   atomic.Int64  // shards of the current phase not yet computed
	wake   []chan struct{}
	joined chan struct{} // the worker computing a phase's last shard reports here
	exited sync.WaitGroup
}

func newForkJoin(n *Network) *forkJoin {
	k := uint64(len(n.shards))
	f := &forkJoin{n: n, k: k, wake: make([]chan struct{}, k-1), joined: make(chan struct{}, 1)}
	// Phase 0 is never published, so its tickets start spent.
	f.ticket.Store(k)
	telShardWorkers.Add(int64(len(f.wake)))
	f.exited.Add(len(f.wake))
	for w := range f.wake {
		f.wake[w] = make(chan struct{}, 1)
		go f.work(f.wake[w])
	}
	return f
}

// work is one worker's loop. A wakeup may be stale — left over from a
// slot the coordinator already finished — so the worker reads the
// phase it joins and claims only that phase's tickets.
func (f *forkJoin) work(wake chan struct{}) {
	defer f.exited.Done()
	for range wake {
		phase := f.phase.Load()
		if f.claim(phase, f.slot.Load()) {
			f.joined <- struct{}{}
		}
	}
}

// compute runs one slot's compute phase across every shard and returns
// once all of them are done.
func (f *forkJoin) compute(slot uint64) {
	phase := f.phase.Load() + 1
	f.slot.Store(slot)
	f.left.Store(int64(f.k))
	f.phase.Store(phase)
	for _, ch := range f.wake {
		select {
		case ch <- struct{}{}:
		default: // a wakeup is already pending
		}
	}
	last := f.claim(phase, slot)
	if p := f.n.prof; p != nil && p.sampling {
		start := p.rec.Now()
		if !last {
			<-f.joined
		}
		p.joinWait(start, p.rec.Now())
	} else if !last {
		<-f.joined
	}
}

// claim computes shards of the given phase until its tickets run out
// and reports whether the caller computed the phase's last shard. A
// worker that read a stale phase (or a slot already belonging to the
// next one) finds that phase's tickets spent and claims nothing.
func (f *forkJoin) claim(phase, slot uint64) (last bool) {
	lo := phase * f.k
	for {
		t := f.ticket.Load()
		if t >= lo+f.k {
			return false
		}
		if !f.ticket.CompareAndSwap(t, t+1) {
			continue
		}
		f.n.computePhase(&f.n.shards[t-lo], slot)
		if f.left.Add(-1) == 0 {
			return true
		}
	}
}

// stop releases the workers and returns once they have exited.
func (f *forkJoin) stop() {
	for _, ch := range f.wake {
		close(ch)
	}
	f.exited.Wait()
	telShardWorkers.Add(-int64(len(f.wake)))
}

// beginMeasurement closes the warmup window on every router and ledger.
func (n *Network) beginMeasurement() {
	n.catchUpAll(n.slot)
	if n.tel != nil {
		// Flush the partial warmup interval before the ledgers reset,
		// then rebase the delta baselines to the reset state so the
		// first measured sample isn't differenced against warmup.
		n.take(n.slot)
		n.tel.rebase()
	}
	for u, r := range n.routers {
		r.ResetMetrics()
		r.Fabric().ResetEnergy()
		if n.mgrs[u] != nil {
			n.mgrs[u].BeginMeasurement()
		}
		if bc, ok := r.Fabric().(interface{ BufferEvents() uint64 }); ok {
			n.bufferBase[u] = bc.BufferEvents()
		}
	}
	for w := range n.shards {
		s := &n.shards[w]
		s.offered, s.delivered, s.linkDropped = 0, 0, 0
		s.latencySlots, s.maxLatency, s.hopSlots = 0, 0, 0
		for fi := range s.flowOffered {
			s.flowOffered[fi], s.flowDelivered[fi], s.flowLost[fi] = 0, 0, 0
		}
	}
	if n.fail != nil {
		n.fail.beginFaultMeasurement(n.slot)
	}
	if n.prof != nil {
		// Restart the imbalance gauge's rolling interval at the
		// measurement boundary so warmup skew never pollutes
		// measured-window imbalance readings.
		n.prof.resetInterval()
	}
}

// Run drives the network for warmup plus measure slots and reports the
// measured window. The slot clock continues across calls, so a second
// Run on the same network warms up from the state the first one left
// behind (in-flight cells keep their latency accounting).
func (n *Network) Run(warmup, measure uint64) (*Report, error) {
	if measure == 0 {
		return nil, fmt.Errorf("netsim: measure slots must be positive")
	}
	if n.closed {
		return nil, fmt.Errorf("netsim: Run on a closed Network")
	}
	for end := n.slot + warmup; n.slot < end; {
		n.yield()
		n.Step(n.slot)
	}
	n.beginMeasurement()
	for end := n.slot + measure; n.slot < end; {
		n.yield()
		n.Step(n.slot)
	}
	if n.fail != nil && n.fail.err != nil {
		return nil, n.fail.err
	}
	n.catchUpAll(n.slot)
	if n.tel != nil {
		n.take(n.slot) // flush the final partial interval
		if n.tel.cfg.OnSummary != nil {
			n.tel.cfg.OnSummary(n.summarize(n.slot))
		}
	}
	return n.report(measure), nil
}

// yield gives up the processor every eighth slot. The recycling kernel
// never allocates, so it never enters the Go runtime on its own: it
// would hold its processor until preempted (every 10 ms) and starve
// goroutines sharing the process, such as studyd streaming results.
// A sharded slot need not block either — the coordinator may claim
// every shard itself — so this holds at every shard count.
func (n *Network) yield() {
	if n.slot%8 == 0 {
		runtime.Gosched()
	}
}

// Report is the network-wide account of one measured window: the
// network's Result (Net set, power and energy summed over the routers,
// latency end to end) and each router's own.
type Report struct {
	sim.Result
	// PerNode holds each router's own measurement (sim.Snapshot); note
	// a transit router's latency figures measure cell age at its
	// egress, accumulated since network injection.
	PerNode []sim.Result
}

func (n *Network) report(measure uint64) *Report {
	// Merge the shard-private ledgers; sums and maxes are
	// order-independent, so the merged totals cannot depend on the
	// partition.
	var offered, delivered, linkDropped, latencySlots, maxLatency, hopSlots uint64
	for w := range n.shards {
		s := &n.shards[w]
		offered += s.offered
		delivered += s.delivered
		linkDropped += s.linkDropped
		latencySlots += s.latencySlots
		hopSlots += s.hopSlots
		if s.maxLatency > maxLatency {
			maxLatency = s.maxLatency
		}
	}
	slotNS := n.cfg.Model.Tech.CellTimeNS(n.cfg.CellBits)
	net := &sim.NetReport{
		Topology:         n.topo.Name,
		Nodes:            n.topo.Nodes,
		OfferedCells:     offered,
		DeliveredCells:   delivered,
		LinkDroppedCells: linkDropped,
	}
	rep := &Report{
		Result: sim.Result{
			Arch:            n.cfg.Arch.String(),
			Ports:           n.topo.Ports,
			Slots:           measure,
			SlotNS:          slotNS,
			MaxLatencySlots: maxLatency,
			Net:             net,
		},
		PerNode: make([]sim.Result, n.topo.Nodes),
	}
	for u, r := range n.routers {
		res := sim.Snapshot(r, n.mgrs[u], n.cfg.Model.Tech, n.cfg.CellBits, measure, n.bufferBase[u])
		rep.PerNode[u] = res
		rep.Power.SwitchMW += res.Power.SwitchMW
		rep.Power.BufferMW += res.Power.BufferMW
		rep.Power.WireMW += res.Power.WireMW
		rep.Power.StaticMW += res.Power.StaticMW
		rep.Energy = rep.Energy.Add(res.Energy)
		net.NodeDroppedCells += res.DroppedCells
	}
	if offered > 0 {
		net.DeliveryRatio = float64(delivered) / float64(offered)
	}
	if delivered > 0 {
		rep.AvgLatencySlots = float64(latencySlots) / float64(delivered)
		net.AvgHops = float64(hopSlots) / float64(delivered)
	}
	if bits := float64(delivered) * float64(n.cfg.CellBits); bits > 0 {
		rep.EnergyPerBitFJ = rep.Energy.TotalFJ() / bits
	}
	if n.fail != nil {
		net.Resilience = n.resilienceReport(n.slot, measure, slotNS)
		// Parked routers and re-convergence work draw real power; fold
		// them into the network's static draw so policy comparisons
		// price resilience, not just healthy operation.
		durationNS := float64(measure) * slotNS
		rep.Power.StaticMW += tech.PowerMW(net.Resilience.ResidualFJ+net.Resilience.ReconvergeFJ, durationNS)
	}
	return rep
}
