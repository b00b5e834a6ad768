package netsim

import (
	"fmt"
	"math"
	"slices"
)

// RoutingPolicy maps every flow to a loop-free node path over the
// topology. Implementations must be deterministic pure functions of
// (topology, flows): the study runner relies on bit-identical results
// for any sweep worker count.
type RoutingPolicy interface {
	// Name is the policy's CLI/report identifier.
	Name() string
	// Route writes one node path per flow into out: the path of
	// flows[k] fills the nodes out.reserve(k, n) sets aside, and must
	// start at the flow's source node and end at its destination. out
	// arrives holding len(flows) empty paths, and any path left empty
	// is an error.
	// The network owns out and reuses it, with flows, on every
	// re-convergence, so Route must keep neither after it returns.
	Route(t *Topology, flows []Flow, out *Routes) error
}

// Routes is a routing policy's output: one node path per flow, kept in
// one flat node arena with per-flow bounds. It also holds the built-in
// policies' search scratch. A network routes its build and every
// re-convergence into one Routes, so once the arena and the scratch
// have grown to size, routing allocates nothing.
type Routes struct {
	arena []int
	span  [][2]int // per flow: [start, end) into arena

	// ShortestPath scratch: one distance block of Topology.Nodes hop
	// counts per distinct destination, found through slotOf (node →
	// block index, -1 = none yet), the BFS queue and the candidate
	// list.
	slotOf      []int
	dist        []int
	queue, cand []int

	// Consolidate scratch: the search arrays, the per-link routed rate,
	// the routers some flow already wakes, and the routing order.
	dij      dijkstraScratch
	linkRate []float64
	nodeUsed []bool
	order    []int
}

// reset empties the routes and sizes them for flows paths, the arena
// for at least the two endpoints of each.
func (r *Routes) reset(flows int) {
	r.arena = slices.Grow(r.arena[:0], 2*flows)
	r.span = resize(r.span, flows)
	clear(r.span)
}

// reserve sets aside n arena nodes as the path of flow k and returns
// them for the caller to fill.
func (r *Routes) reserve(k, n int) []int {
	start := len(r.arena)
	r.arena = slices.Grow(r.arena, n)[:start+n]
	r.span[k] = [2]int{start, start + n}
	return r.arena[start : start+n]
}

// path returns flow k's path, a view valid until the next reset.
func (r *Routes) path(k int) []int {
	s := r.span[k]
	return r.arena[s[0]:s[1]:s[1]]
}

// resize returns s with length n, reusing its storage when it is large
// enough. The contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// ShortestPath is the baseline: hop-count shortest paths with the
// equal-cost choices spread deterministically across flows (ECMP-like),
// so a fat-tree balances its spines instead of herding every flow over
// spine 0. Balanced spreading is the throughput-friendly default — and
// exactly what keeps lightly-loaded routers from ever going idle, which
// is the behavior the consolidating policy exists to contrast.
type ShortestPath struct{}

// Name implements RoutingPolicy.
func (ShortestPath) Name() string { return "shortest" }

// Route implements RoutingPolicy.
func (ShortestPath) Route(t *Topology, flows []Flow, out *Routes) error {
	// One BFS per distinct destination, not per flow: a uniform matrix
	// over H hosts has H·(H-1) flows but only H destinations. The
	// distance blocks, the BFS queue and the candidate list live in
	// out, so a re-convergence reuses them.
	slotOf := resize(out.slotOf, t.Nodes)
	for i := range slotOf {
		slotOf[i] = -1
	}
	out.slotOf, out.dist = slotOf, out.dist[:0]
	for fi := range flows {
		f := &flows[fi]
		if f.Dst < 0 || f.Dst >= t.Nodes {
			return fmt.Errorf("netsim: node %d out of range", f.Dst)
		}
		if slotOf[f.Dst] < 0 {
			slotOf[f.Dst] = len(out.dist) / t.Nodes
			start := len(out.dist)
			out.dist = slices.Grow(out.dist, t.Nodes)[:start+t.Nodes]
			out.queue = bfsDist(t, f.Dst, out.dist[start:], out.queue)
		}
		dist := out.dist[slotOf[f.Dst]*t.Nodes:][:t.Nodes]
		if dist[f.Src] < 0 {
			return fmt.Errorf("netsim: no path %d→%d", f.Src, f.Dst)
		}
		path := out.reserve(fi, dist[f.Src]+1)
		path[0] = f.Src
		for h := 1; h < len(path); h++ {
			// Candidates one step closer to the destination, in
			// ascending node order; the flow index picks among them so
			// equal-cost flows fan out across the alternatives.
			u := path[h-1]
			out.cand = out.cand[:0]
			for _, v := range t.Neighbors(u) {
				if dist[v] == dist[u]-1 {
					out.cand = append(out.cand, v)
				}
			}
			path[h] = out.cand[fi%len(out.cand)]
		}
	}
	return nil
}

// bfsDist fills dist with hop counts to dst (-1 = unreachable); dst
// must be a node of t. It uses queue's storage as the BFS queue and
// returns it for reuse.
func bfsDist(t *Topology, dst int, dist, queue []int) []int {
	for i := range dist {
		dist[i] = -1
	}
	dist[dst] = 0
	queue = append(queue[:0], dst)
	for h := 0; h < len(queue); h++ {
		u := queue[h]
		for _, v := range t.Neighbors(u) {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return queue
}

// The consolidating policy's hop prices, in hop units: first use of an
// idle router or link, and a hop over a link the flow would push past
// consolidateFill of its capacity.
const (
	nodeWakeCost    = 1
	linkWakeCost    = 0.25
	consolidateFill = 0.9
	overloadCost    = 8
)

// Consolidate is the energy-aware policy: it routes flows sequentially
// (heaviest first) and prices each candidate hop by what it would wake
// up — an unused router costs 1 on top of the hop, an unused link 0.25
// — so later flows are pulled onto the routers and links earlier flows
// already keep busy. Routers the final assignment never touches stay
// completely idle, which is precisely the state a gating/sleeping DPM
// policy converts into static-power savings. A soft capacity penalty
// (8 for a hop past 0.9 of the link's capacity) spills flows onto fresh
// paths once the consolidated ones fill up, bounding the latency cost
// of the concentration.
type Consolidate struct{}

// Name implements RoutingPolicy.
func (Consolidate) Name() string { return "consolidate" }

// Route implements RoutingPolicy.
func (c Consolidate) Route(t *Topology, flows []Flow, out *Routes) error {
	linkRate := resize(out.linkRate, len(t.Links))
	nodeUsed := resize(out.nodeUsed, t.Nodes)
	clear(linkRate)
	clear(nodeUsed)
	out.linkRate, out.nodeUsed = linkRate, nodeUsed
	// Endpoints are awake regardless of routing: they source/sink.
	for _, f := range flows {
		nodeUsed[f.Src] = true
		nodeUsed[f.Dst] = true
	}
	// One set of search arrays serves every flow; dijkstra resets them.
	sc := &out.dij
	sc.dist = resize(sc.dist, t.Nodes)
	sc.prev = resize(sc.prev, t.Nodes)
	sc.done = resize(sc.done, t.Nodes)
	out.order = sortFlowsForRouting(flows, out.order)
	for _, fi := range out.order {
		f := &flows[fi]
		path, err := c.dijkstra(t, f, fi, out)
		if err != nil {
			return err
		}
		for h := 0; h+1 < len(path); h++ {
			nodeUsed[path[h]] = true
			nodeUsed[path[h+1]] = true
			linkRate[t.LinkIndex(path[h], path[h+1])] += f.Rate
		}
	}
	return nil
}

// dijkstraScratch holds the per-node search arrays, sized to the
// topology and reused across the flows of every Route call.
type dijkstraScratch struct {
	dist []float64
	prev []int
	done []bool
}

// dijkstra finds the cheapest path under the consolidation costs, with
// deterministic tie-breaks (smaller cost, then smaller node index), and
// writes it into out as the path of flow fi.
func (c Consolidate) dijkstra(t *Topology, f *Flow, fi int, out *Routes) ([]int, error) {
	const inf = math.MaxFloat64
	dist, prev, done := out.dij.dist, out.dij.prev, out.dij.done
	linkRate, nodeUsed := out.linkRate, out.nodeUsed
	for i := range dist {
		dist[i] = inf
		prev[i] = -1
		done[i] = false
	}
	dist[f.Src] = 0
	for {
		u, best := -1, inf
		for i := 0; i < t.Nodes; i++ {
			if !done[i] && dist[i] < best {
				u, best = i, dist[i]
			}
		}
		if u < 0 {
			return nil, fmt.Errorf("netsim: no path %d→%d", f.Src, f.Dst)
		}
		if u == f.Dst {
			break
		}
		done[u] = true
		// NewTopology de-duplicates edges, so linkIdx[u][i] is exactly
		// the link u→adj[u][i].
		links := t.linkIdx[u]
		for i, v := range t.adj[u] {
			if done[v] {
				continue
			}
			li := links[i]
			cost := 1.0
			if !nodeUsed[v] {
				cost += nodeWakeCost
			}
			if linkRate[li] == 0 {
				cost += linkWakeCost
			}
			cap := float64(t.Links[li].Capacity)
			if linkRate[li]+f.Rate > consolidateFill*cap {
				cost += overloadCost
			}
			if d := dist[u] + cost; d < dist[v] {
				dist[v] = d
				prev[v] = u
			}
		}
	}
	hops := 0
	for u := f.Dst; u != f.Src; u = prev[u] {
		hops++
	}
	path := out.reserve(fi, hops+1)
	for u, h := f.Dst, hops; h >= 0; u, h = prev[u], h-1 {
		path[h] = u
	}
	return path, nil
}

// NewRouting builds a built-in routing policy from its name.
func NewRouting(name string) (RoutingPolicy, error) {
	switch name {
	case "shortest":
		return ShortestPath{}, nil
	case "consolidate":
		return Consolidate{}, nil
	}
	return nil, fmt.Errorf("netsim: unknown routing policy %q (want one of %v)", name, RoutingNames())
}

// RoutingNames lists the built-in routing policies, baseline first.
func RoutingNames() []string { return []string{"shortest", "consolidate"} }
