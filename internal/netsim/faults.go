package netsim

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"fabricpower/internal/packet"
	"fabricpower/internal/rng"
	"fabricpower/internal/sim"
)

// FaultEvent is one scheduled topology change: a link (undirected pair)
// or a router going down or coming back up at a slot boundary.
type FaultEvent struct {
	// Slot is when the event takes effect: before the compute phase of
	// that slot, at the shard barrier, so results are bit-identical for
	// any shard count.
	Slot uint64
	// Node is the failing/recovering router, or -1 for a link event.
	Node int
	// From and To name the undirected link pair of a link event (order
	// is irrelevant; both directions fail together — a cut fiber cuts
	// both lanes).
	From, To int
	// Down is true for a failure, false for a repair.
	Down bool
}

// FaultPlan is the deterministic failure schedule of a network run:
// either statistical (per-entity alternating up/down renewal processes
// derived from the network seed and the MTBF/MTTR means) or an explicit
// event list, or both merged. The zero plan (and a nil one) injects
// nothing and leaves the kernel byte-identical to a fault-free run.
type FaultPlan struct {
	// MTBF and MTTR are each link pair's mean slots between failures
	// and mean slots to repair (exponential draws from a per-pair
	// stream seeded by (Config.Seed, pair index)). MTBF 0 disables
	// generated link faults; MTBF > 0 requires MTTR > 0.
	MTBF, MTTR float64
	// NodeMTBF and NodeMTTR are the router-level analogue.
	NodeMTBF, NodeMTTR float64
	// Events are explicit faults merged with the generated schedule —
	// how tests and studies pin exact failure scenarios.
	Events []FaultEvent
	// ResidualMW is the power a failed router parks at (line-card
	// supervision, management plane) while its fabric is dark. Charged
	// per down router per slot into the resilience ledger.
	ResidualMW float64
	// ReconvergeCostFJ is the control-plane energy charged per
	// rerouted flow at every re-convergence — the price of recomputing
	// and installing forwarding state.
	ReconvergeCostFJ float64
}

// Empty reports whether the plan schedules nothing: no generated
// processes and no explicit events. An empty plan leaves the kernel on
// its fault-free fast path.
func (p *FaultPlan) Empty() bool {
	return p == nil || (p.MTBF == 0 && p.NodeMTBF == 0 && len(p.Events) == 0)
}

func (p *FaultPlan) validate(t *Topology) error {
	// !(v >= 0) also rejects NaN, for which every ordered comparison
	// is false: a NaN MTTR would keep each failed link down for good.
	for _, f := range [...]struct {
		what string
		v    float64
	}{
		{"MTBF", p.MTBF}, {"MTTR", p.MTTR}, {"node MTBF", p.NodeMTBF}, {"node MTTR", p.NodeMTTR},
		{"residual power", p.ResidualMW}, {"reconvergence cost", p.ReconvergeCostFJ},
	} {
		if !(f.v >= 0) || math.IsInf(f.v, 1) {
			return fmt.Errorf("netsim: fault plan %s must be >= 0 and finite, got %g", f.what, f.v)
		}
	}
	if p.MTBF > 0 && p.MTTR <= 0 {
		return fmt.Errorf("netsim: fault plan with MTBF %g needs MTTR > 0", p.MTBF)
	}
	if p.NodeMTBF > 0 && p.NodeMTTR <= 0 {
		return fmt.Errorf("netsim: fault plan with node MTBF %g needs node MTTR > 0", p.NodeMTBF)
	}
	for i, e := range p.Events {
		if e.Node >= 0 {
			if e.Node >= t.Nodes {
				return fmt.Errorf("netsim: fault event %d: node %d out of range [0,%d)", i, e.Node, t.Nodes)
			}
			continue
		}
		if t.LinkIndex(e.From, e.To) < 0 {
			return fmt.Errorf("netsim: fault event %d: no link %d–%d in the topology", i, e.From, e.To)
		}
	}
	return nil
}

// faultState is the kernel's runtime fault machinery. It is touched
// only at the slot barrier (event application) and in report/reset
// paths — never concurrently with the shard phases — except for the
// read-only nodeDown/linkUp masks the phases consult.
type faultState struct {
	plan FaultPlan

	// Pair geometry: undirected link pairs in ascending (From, To)
	// order, with the two directed link indices of each.
	pairs     [][2]int
	pairLinks [][2]int
	pairOf    []int // directed link index -> pair index

	// Current state, read by the shard phases.
	nodeDown []bool // router u is failed
	linkUp   []bool // directed link li is usable (pair healthy, endpoints up)

	pairFailed []bool // the pair itself is failed (independent of endpoints)
	pairUsable []bool // derived: !pairFailed && both endpoints up

	// Generated schedules: per-entity renewal streams, taken from
	// streamPool and returned by Network.Close; only expSlots draws
	// from them. nextPair and nextNode are the absolute slots of each
	// entity's next toggle (maxUint64 when the entity has no
	// generator).
	pairRng  []*rng.Stream
	nodeRng  []*rng.Stream
	nextPair []uint64
	nextNode []uint64

	// Explicit events, sorted by slot; cursor advances through them.
	events []FaultEvent
	cursor int

	// nextSlot is the minimum pending event slot across everything —
	// the only per-slot check the kernel pays.
	nextSlot uint64

	// Measurement-window ledgers. Down time is integrated
	// event-driven: downAt records when an entity went down, the
	// *DownSlots accumulators collect completed outages clamped to the
	// window, and report() adds the still-open tail.
	measureStart  uint64
	pairDownAt    []uint64
	pairDownSlots []uint64
	nodeDownAt    []uint64
	nodeDownSlots []uint64

	reconvergeEvents uint64
	reroutedFlows    uint64

	// Re-convergence scratch, reused from event to event: the routing
	// view of the surviving topology, its component labels and the
	// labelling stack, the indices and routing demands of the flows
	// that survive, and the routing output (which the build fills
	// first).
	masked     Topology
	comp       []int
	compStack  []int
	aliveIdx   []int
	aliveFlows []Flow
	routes     Routes

	// eventLost collects per-flow losses applied at the barrier
	// (queue/link flushes), outside any shard's ledger.
	eventLost []uint64

	// err records a re-convergence failure (a registered routing
	// policy erroring on the surviving topology); Run surfaces it.
	err error
}

const (
	saltLinkFault = 0x94d049bb133111eb
	saltNodeFault = 0xd6e8feb86659fd93
	neverSlot     = ^uint64(0)
)

// newFaultState compiles a validated plan against the topology.
func newFaultState(plan FaultPlan, t *Topology, nflows int, seed int64) (*faultState, error) {
	if err := plan.validate(t); err != nil {
		return nil, err
	}
	fs := &faultState{
		plan:     plan,
		pairOf:   make([]int, len(t.Links)),
		nodeDown: make([]bool, t.Nodes),
		linkUp:   make([]bool, len(t.Links)),
	}
	pairIdx := make(map[[2]int]int)
	for li, l := range t.Links {
		u, v := l.From, l.To
		if u > v {
			u, v = v, u
		}
		key := [2]int{u, v}
		pi, ok := pairIdx[key]
		if !ok {
			pi = len(fs.pairs)
			pairIdx[key] = pi
			fs.pairs = append(fs.pairs, key)
			fs.pairLinks = append(fs.pairLinks, [2]int{-1, -1})
		}
		fs.pairOf[li] = pi
		if l.From == u {
			fs.pairLinks[pi][0] = li
		} else {
			fs.pairLinks[pi][1] = li
		}
		fs.linkUp[li] = true
	}
	np := len(fs.pairs)
	fs.pairFailed = make([]bool, np)
	fs.pairUsable = make([]bool, np)
	for i := range fs.pairUsable {
		fs.pairUsable[i] = true
	}
	fs.nextPair = make([]uint64, np)
	fs.nextNode = make([]uint64, t.Nodes)
	fs.pairDownAt = make([]uint64, np)
	fs.pairDownSlots = make([]uint64, np)
	fs.nodeDownAt = make([]uint64, t.Nodes)
	fs.nodeDownSlots = make([]uint64, t.Nodes)
	fs.eventLost = make([]uint64, nflows)

	for i := range fs.nextPair {
		fs.nextPair[i] = neverSlot
	}
	for u := range fs.nextNode {
		fs.nextNode[u] = neverSlot
	}
	if plan.MTBF > 0 {
		fs.pairRng = make([]*rng.Stream, np)
		for i := range fs.pairRng {
			fs.pairRng[i] = flowStream(flowSeed(seed, i, saltLinkFault))
			fs.nextPair[i] = expSlots(fs.pairRng[i], plan.MTBF)
		}
	}
	if plan.NodeMTBF > 0 {
		fs.nodeRng = make([]*rng.Stream, t.Nodes)
		for u := range fs.nodeRng {
			fs.nodeRng[u] = flowStream(flowSeed(seed, u, saltNodeFault))
			fs.nextNode[u] = expSlots(fs.nodeRng[u], plan.NodeMTBF)
		}
	}
	fs.events = append([]FaultEvent(nil), plan.Events...)
	sort.SliceStable(fs.events, func(a, b int) bool { return fs.events[a].Slot < fs.events[b].Slot })
	fs.recomputeNextSlot()
	return fs, nil
}

// maxFaultSlots caps one renewal duration. A plan's means have no upper
// bound, and Go leaves the conversion of a float64 at or above 2⁶⁴ to
// uint64 implementation-dependent: a result near 2⁶⁴ would wrap the
// next toggle slot below the current one. 2⁶² slots outlasts any run.
const maxFaultSlots = 1 << 62

// expSlots draws an exponential duration with the given mean from s, in
// [1, maxFaultSlots] slots, as an offset.
func expSlots(s *rng.Stream, mean float64) uint64 {
	d := s.ExpFloat64() * mean
	if !(d < maxFaultSlots) { // also +Inf and NaN
		return maxFaultSlots
	}
	if d < 1 {
		return 1
	}
	return uint64(d)
}

// recycleStreams returns the renewal streams to streamPool, in reverse
// build order.
func (fs *faultState) recycleStreams() {
	for u := len(fs.nodeRng) - 1; u >= 0; u-- {
		streamPool.Put(fs.nodeRng[u])
	}
	for i := len(fs.pairRng) - 1; i >= 0; i-- {
		streamPool.Put(fs.pairRng[i])
	}
	fs.pairRng, fs.nodeRng = nil, nil
}

func (fs *faultState) recomputeNextSlot() {
	next := neverSlot
	for _, s := range fs.nextPair {
		if s < next {
			next = s
		}
	}
	for _, s := range fs.nextNode {
		if s < next {
			next = s
		}
	}
	if fs.cursor < len(fs.events) && fs.events[fs.cursor].Slot < next {
		next = fs.events[fs.cursor].Slot
	}
	fs.nextSlot = next
}

// applyFaults applies every event due at or before slot, flushes the
// cells the failures strand, and re-converges the routing when the
// usable topology actually changed. Called at the slot barrier, before
// any shard's compute phase, so every shard observes identical state.
func (n *Network) applyFaults(slot uint64) {
	fs := n.fail
	changed := false
	for {
		// Generated pair toggles.
		for pi := range fs.nextPair {
			for fs.nextPair[pi] <= slot {
				at := fs.nextPair[pi]
				if fs.setPairFailed(pi, !fs.pairFailed[pi], at) {
					changed = true
				}
				if fs.pairFailed[pi] {
					fs.nextPair[pi] = at + expSlots(fs.pairRng[pi], fs.plan.MTTR)
				} else {
					fs.nextPair[pi] = at + expSlots(fs.pairRng[pi], fs.plan.MTBF)
				}
			}
		}
		// Generated node toggles.
		for u := range fs.nextNode {
			for fs.nextNode[u] <= slot {
				at := fs.nextNode[u]
				if fs.setNodeDown(u, !fs.nodeDown[u], at) {
					changed = true
				}
				if fs.nodeDown[u] {
					fs.nextNode[u] = at + expSlots(fs.nodeRng[u], fs.plan.NodeMTTR)
				} else {
					fs.nextNode[u] = at + expSlots(fs.nodeRng[u], fs.plan.NodeMTBF)
				}
			}
		}
		// Explicit events.
		for fs.cursor < len(fs.events) && fs.events[fs.cursor].Slot <= slot {
			e := fs.events[fs.cursor]
			fs.cursor++
			if e.Node >= 0 {
				if fs.setNodeDown(e.Node, e.Down, e.Slot) {
					changed = true
				}
			} else {
				// validate guarantees the link exists.
				pi := fs.pairOf[n.topo.LinkIndex(e.From, e.To)]
				if fs.setPairFailed(pi, e.Down, e.Slot) {
					changed = true
				}
			}
		}
		fs.recomputeNextSlot()
		if fs.nextSlot > slot {
			break
		}
	}
	if changed {
		n.refreshUsable(slot)
		n.reconverge(slot)
	}
}

// setPairFailed toggles a pair's own health. Returns whether the state
// actually changed.
func (fs *faultState) setPairFailed(pi int, failed bool, at uint64) bool {
	if fs.pairFailed[pi] == failed {
		return false
	}
	fs.pairFailed[pi] = failed
	return true
}

// setNodeDown toggles a router and accounts its down time. Returns
// whether the state actually changed.
func (fs *faultState) setNodeDown(u int, down bool, at uint64) bool {
	if fs.nodeDown[u] == down {
		return false
	}
	fs.nodeDown[u] = down
	if down {
		fs.nodeDownAt[u] = at
	} else {
		fs.nodeDownSlots[u] += windowSlots(fs.nodeDownAt[u], at, fs.measureStart)
	}
	return true
}

// windowSlots returns the portion of [from, to) at or after start.
func windowSlots(from, to, start uint64) uint64 {
	if from < start {
		from = start
	}
	if to <= from {
		return 0
	}
	return to - from
}

// refreshUsable rederives each pair's usability (pair healthy, both
// endpoints up) and each directed link's up mask, flushing the queues
// of links that just became unusable and of routers that just went
// down. Flushed cells are charged to their flows' loss ledger and
// released into the first shard's pool: this runs at the barrier, where
// no shard touches its pool.
func (n *Network) refreshUsable(slot uint64) {
	fs := n.fail
	pool := n.shards[0].pool
	for pi, p := range fs.pairs {
		usable := !fs.pairFailed[pi] && !fs.nodeDown[p[0]] && !fs.nodeDown[p[1]]
		if usable == fs.pairUsable[pi] {
			continue
		}
		fs.pairUsable[pi] = usable
		if usable {
			fs.pairDownSlots[pi] += windowSlots(fs.pairDownAt[pi], slot, fs.measureStart)
		} else {
			fs.pairDownAt[pi] = slot
			// Cells in flight on a freshly failed pair are lost.
			for _, li := range fs.pairLinks[pi] {
				q := &n.links[li]
				for !q.empty() {
					c := q.pop()
					fs.eventLost[c.FlowID]++
					pool.Put(c)
				}
			}
		}
		for _, li := range fs.pairLinks[pi] {
			fs.linkUp[li] = usable
		}
	}
	// Freshly failed routers drop their ingress queues.
	for u, down := range fs.nodeDown {
		if down && fs.nodeDownAt[u] == slot {
			n.routers[u].FlushQueues(func(c *packet.Cell) {
				fs.eventLost[c.FlowID]++
				pool.Put(c)
			})
		}
	}
}

// reconverge re-routes every flow over the surviving topology: flows
// whose endpoints are down or disconnected park (path emptied, their
// injections count as lost), the rest re-route under the configured
// policy, and each flow whose installed path changed is charged the
// plan's reconfiguration cost. Cells already in flight keep moving and
// are validity-checked at every hop boundary — a cell whose position no
// longer lies on its flow's path is lost there. Routing and wiring
// write into storage the network keeps, which is safe because this
// runs at the slot barrier, when no shard reads a flow.
func (n *Network) reconverge(slot uint64) {
	fs := n.fail
	fs.reconvergeEvents++
	masked := &fs.masked
	n.topo.maskInto(masked, fs.nodeDown, fs.linkUp)
	fs.comp, fs.compStack = components(masked, fs.comp, fs.compStack)
	comp := fs.comp

	aliveIdx := slices.Grow(fs.aliveIdx[:0], len(n.flows))
	aliveFlows := slices.Grow(fs.aliveFlows[:0], len(n.flows))
	for fi := range n.flows {
		f := &n.flows[fi]
		if fs.nodeDown[f.Src] || fs.nodeDown[f.Dst] || comp[f.Src] != comp[f.Dst] {
			f.path, f.ports, f.links = f.path[:0], f.ports[:0], f.links[:0]
			continue
		}
		aliveIdx = append(aliveIdx, fi)
		aliveFlows = append(aliveFlows, Flow{Src: f.Src, Dst: f.Dst, Rate: f.Rate})
	}
	fs.aliveIdx, fs.aliveFlows = aliveIdx, aliveFlows
	routes := &fs.routes
	routes.reset(len(aliveFlows))
	if err := n.cfg.Routing.Route(masked, aliveFlows, routes); err != nil {
		fs.err = fmt.Errorf("netsim: re-convergence at slot %d: %w", slot, err)
		return
	}
	for k, fi := range aliveIdx {
		f := &n.flows[fi]
		path := routes.path(k)
		if slices.Equal(f.path, path) {
			continue
		}
		if err := wireFlow(n.topo, f, fi, path); err != nil {
			fs.err = fmt.Errorf("netsim: re-convergence at slot %d: %w", slot, err)
			return
		}
		fs.reroutedFlows++
	}
}

// maskInto makes m a read-only routing view of the topology with down
// nodes and unusable links removed from the adjacency, reusing m's
// adjacency storage. Links, ports, hosts and edge assignments are
// shared with the original, so paths found on the view wire directly
// against the full topology. The first call carves m's rows from one
// slab, each row as long as the full one, so no later call allocates.
func (t *Topology) maskInto(m *Topology, nodeDown []bool, linkUp []bool) {
	adj, linkIdx := m.adj, m.linkIdx
	if len(adj) != t.Nodes {
		rows := make([][]int, 2*t.Nodes)
		adj, linkIdx = rows[:t.Nodes:t.Nodes], rows[t.Nodes:]
		ints := make([]int, 2*len(t.Links))
		a, l := ints[:len(t.Links)], ints[len(t.Links):]
		for u := range adj {
			d := len(t.adj[u])
			adj[u], a = a[:0:d], a[d:]
			linkIdx[u], l = l[:0:d], l[d:]
		}
	}
	*m = *t
	for u := range adj {
		adj[u], linkIdx[u] = adj[u][:0], linkIdx[u][:0]
		if nodeDown[u] {
			continue
		}
		for i, v := range t.adj[u] {
			li := t.linkIdx[u][i]
			if nodeDown[v] || !linkUp[li] {
				continue
			}
			adj[u] = append(adj[u], v)
			linkIdx[u] = append(linkIdx[u], li)
		}
	}
	m.adj, m.linkIdx = adj, linkIdx
}

// components labels each node with its connected-component id on the
// (masked) topology. It reuses comp's and stack's storage and returns
// both for reuse.
func components(t *Topology, comp, stack []int) ([]int, []int) {
	comp = resize(comp, t.Nodes)
	stack = slices.Grow(stack[:0], t.Nodes) // a node is pushed at most once
	for i := range comp {
		comp[i] = -1
	}
	next := 0
	for s := 0; s < t.Nodes; s++ {
		if comp[s] >= 0 {
			continue
		}
		comp[s] = next
		stack = append(stack[:0], s)
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, v := range t.adj[u] {
				if comp[v] < 0 {
					comp[v] = next
					stack = append(stack, v)
				}
			}
		}
		next++
	}
	return comp, stack
}

// beginFaultMeasurement opens the resilience measurement window at the
// given slot: ledgers reset, open outages restart at the window edge.
func (fs *faultState) beginFaultMeasurement(slot uint64) {
	fs.measureStart = slot
	for i := range fs.pairDownSlots {
		fs.pairDownSlots[i] = 0
	}
	for u := range fs.nodeDownSlots {
		fs.nodeDownSlots[u] = 0
	}
	for i := range fs.eventLost {
		fs.eventLost[i] = 0
	}
	fs.reconvergeEvents, fs.reroutedFlows = 0, 0
}

// resilienceReport assembles the window's resilience account. end is
// the slot after the last measured one; slotNS prices the residual
// power integral.
func (n *Network) resilienceReport(end uint64, measure uint64, slotNS float64) *sim.ResilienceReport {
	fs := n.fail
	rep := &sim.ResilienceReport{
		Flows: make([]sim.FlowStats, len(n.flows)),
		Links: make([]sim.LinkAvailability, len(fs.pairs)),
	}
	for fi := range n.flows {
		st := sim.FlowStats{Src: n.flows[fi].Src, Dst: n.flows[fi].Dst, Lost: fs.eventLost[fi]}
		for w := range n.shards {
			s := &n.shards[w]
			st.Offered += s.flowOffered[fi]
			st.Delivered += s.flowDelivered[fi]
			st.Lost += s.flowLost[fi]
		}
		rep.Flows[fi] = st
		rep.LostCells += st.Lost
	}
	for pi, p := range fs.pairs {
		down := fs.pairDownSlots[pi]
		if !fs.pairUsable[pi] {
			down += windowSlots(fs.pairDownAt[pi], end, fs.measureStart)
		}
		rep.Links[pi] = sim.LinkAvailability{
			From:         p[0],
			To:           p[1],
			DownSlots:    down,
			Availability: 1 - float64(down)/float64(measure),
		}
	}
	for u := range fs.nodeDownSlots {
		down := fs.nodeDownSlots[u]
		if fs.nodeDown[u] {
			down += windowSlots(fs.nodeDownAt[u], end, fs.measureStart)
		}
		rep.NodeDownSlots += down
	}
	rep.ReconvergeEvents = fs.reconvergeEvents
	rep.ReroutedFlows = fs.reroutedFlows
	rep.ReconvergeFJ = float64(fs.reroutedFlows) * fs.plan.ReconvergeCostFJ
	// mW × ns = pJ; ×1e3 = fJ.
	rep.ResidualFJ = float64(rep.NodeDownSlots) * fs.plan.ResidualMW * slotNS * 1e3
	return rep
}
