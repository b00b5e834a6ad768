package netsim

import (
	"fmt"
	"math"
)

// RoutingPolicy maps every flow to a loop-free node path over the
// topology. Implementations must be deterministic pure functions of
// (topology, flows): the study runner relies on bit-identical results
// for any sweep worker count.
type RoutingPolicy interface {
	// Name is the policy's CLI/report identifier.
	Name() string
	// Route returns one node path per flow, in flow order. Each path
	// starts at the flow's source node and ends at its destination.
	// Route must not keep flows after it returns: re-convergence
	// reuses the slice.
	Route(t *Topology, flows []Flow) ([][]int, error)
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
func (ShortestPath) Route(t *Topology, flows []Flow) ([][]int, error) {
	paths := make([][]int, len(flows))
	// One BFS per distinct destination, not per flow: a uniform matrix
	// over H hosts has H·(H-1) flows but only H destinations. Route
	// runs on every re-convergence, so the BFS queue and the candidate
	// list are reused across flows and each path is allocated once, at
	// its final length.
	distTo := make(map[int][]int, len(t.Hosts))
	var queue, cand []int
	for fi := range flows {
		f := &flows[fi]
		dist, ok := distTo[f.Dst]
		if !ok {
			dist = make([]int, t.Nodes)
			var err error
			if queue, err = bfsDist(t, f.Dst, dist, queue); err != nil {
				return nil, err
			}
			distTo[f.Dst] = dist
		}
		if dist[f.Src] < 0 {
			return nil, fmt.Errorf("netsim: no path %d→%d", f.Src, f.Dst)
		}
		path := make([]int, dist[f.Src]+1)
		path[0] = f.Src
		for h := 1; h < len(path); h++ {
			// Candidates one step closer to the destination, in
			// ascending node order; the flow index picks among them so
			// equal-cost flows fan out across the alternatives.
			u := path[h-1]
			cand = cand[:0]
			for _, v := range t.Neighbors(u) {
				if dist[v] == dist[u]-1 {
					cand = append(cand, v)
				}
			}
			path[h] = cand[fi%len(cand)]
		}
		paths[fi] = path
	}
	return paths, nil
}

// bfsDist fills dist with hop counts to dst (-1 = unreachable). It uses
// queue's storage as the BFS queue and returns it for reuse.
func bfsDist(t *Topology, dst int, dist, queue []int) ([]int, error) {
	if dst < 0 || dst >= t.Nodes {
		return queue, fmt.Errorf("netsim: node %d out of range", dst)
	}
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
	return queue, nil
}

// Consolidate is the energy-aware policy: it routes flows sequentially
// (heaviest first) and prices each candidate hop by what it would wake
// up — an unused router costs NodeWakeCost on top of the hop, an unused
// link LinkWakeCost — so later flows are pulled onto the routers and
// links earlier flows already keep busy. Routers the final assignment
// never touches stay completely idle, which is precisely the state a
// gating/sleeping DPM policy converts into static-power savings. A soft
// capacity penalty spills flows onto fresh paths once the consolidated
// ones fill up, bounding the latency cost of the concentration.
type Consolidate struct {
	// NodeWakeCost prices first use of an idle router, in hop units
	// (default 1).
	NodeWakeCost float64
	// LinkWakeCost prices first use of an idle link (default 0.25).
	LinkWakeCost float64
	// CapacityFraction is the fill level of a link's capacity beyond
	// which OverloadCost applies (default 0.9).
	CapacityFraction float64
	// OverloadCost prices a hop over a link the flow would push past
	// CapacityFraction (default 8).
	OverloadCost float64
}

// Name implements RoutingPolicy.
func (Consolidate) Name() string { return "consolidate" }

func (c Consolidate) withDefaults() Consolidate {
	if c.NodeWakeCost == 0 {
		c.NodeWakeCost = 1
	}
	if c.LinkWakeCost == 0 {
		c.LinkWakeCost = 0.25
	}
	if c.CapacityFraction == 0 {
		c.CapacityFraction = 0.9
	}
	if c.OverloadCost == 0 {
		c.OverloadCost = 8
	}
	return c
}

// Route implements RoutingPolicy.
func (c Consolidate) Route(t *Topology, flows []Flow) ([][]int, error) {
	c = c.withDefaults()
	paths := make([][]int, len(flows))
	linkRate := make([]float64, len(t.Links))
	nodeUsed := make([]bool, t.Nodes)
	// Endpoints are awake regardless of routing: they source/sink.
	for _, f := range flows {
		nodeUsed[f.Src] = true
		nodeUsed[f.Dst] = true
	}
	// One set of search arrays serves every flow; dijkstra resets them.
	sc := dijkstraScratch{
		dist: make([]float64, t.Nodes),
		prev: make([]int, t.Nodes),
		done: make([]bool, t.Nodes),
	}
	for _, fi := range sortFlowsForRouting(flows) {
		f := &flows[fi]
		path, err := c.dijkstra(t, f, linkRate, nodeUsed, &sc)
		if err != nil {
			return nil, err
		}
		paths[fi] = path
		for h := 0; h+1 < len(path); h++ {
			nodeUsed[path[h]] = true
			nodeUsed[path[h+1]] = true
			linkRate[t.LinkIndex(path[h], path[h+1])] += f.Rate
		}
	}
	return paths, nil
}

// dijkstraScratch holds the per-node search arrays, sized to the
// topology and reused across the flows of one Route call.
type dijkstraScratch struct {
	dist []float64
	prev []int
	done []bool
}

// dijkstra finds the cheapest path under the consolidation costs, with
// deterministic tie-breaks (smaller cost, then smaller node index).
func (c Consolidate) dijkstra(t *Topology, f *Flow, linkRate []float64, nodeUsed []bool, sc *dijkstraScratch) ([]int, error) {
	const inf = math.MaxFloat64
	dist, prev, done := sc.dist, sc.prev, sc.done
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
				cost += c.NodeWakeCost
			}
			if linkRate[li] == 0 {
				cost += c.LinkWakeCost
			}
			cap := float64(t.Links[li].Capacity)
			if linkRate[li]+f.Rate > c.CapacityFraction*cap {
				cost += c.OverloadCost
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
	path := make([]int, hops+1)
	for u, h := f.Dst, hops; h >= 0; u, h = prev[u], h-1 {
		path[h] = u
	}
	return path, nil
}

// NewRouting builds a built-in routing policy from its name with
// default tuning.
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
