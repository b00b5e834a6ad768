// Package netsim composes the single-device power model into a network:
// every node of a topology is a full fabric+router simulation
// (internal/router, optionally managed by internal/dpm), cells traverse
// multi-hop paths over finite-capacity inter-router links, and the
// network kernel aggregates the per-router power reports into one
// network-wide power/throughput/latency account.
//
// The DAC 2002 framework prices one switch fabric; the questions its
// numbers raise — where the power goes when routers are wired into a
// backbone, and how much traffic engineering can save — are network
// level. Following the switch-off routing line of work (Giroire et al.)
// the package pairs a topology layer (chain, ring, star, 2-level
// fat-tree, arbitrary adjacency), a flow layer (built-in traffic
// matrices routed by a built-in policy: shortest-path baseline or an
// energy-aware consolidating policy, each picked by name with one fixed
// tuning; per-flow injection processes behind the FlowSource seam:
// Bernoulli, bursty, segmented packets, trace replay), and a
// slot-synchronous kernel that steps all routers in
// lockstep and forwards delivered cells to next-hop ingress with
// backpressure.
//
// The kernel shards: Config.Shards partitions the routers, and every
// slot runs a compute phase as one fork-join over the shards, then an
// exchange phase, in which each piece of mutable state has exactly one
// owning shard — so results are bit-identical for any shard count. See
// Network for the phase contract.
package netsim

import (
	"fmt"
	"sort"
)

// Link is one directed inter-router connection. Topologies are built
// from undirected edges, so links always come in opposite-direction
// pairs sharing the same port at each endpoint (a port is a full-duplex
// line card: its ingress side receives from the neighbor, its egress
// side transmits to it).
type Link struct {
	// From and To are node indices.
	From, To int
	// FromPort is the egress port at From that transmits onto the link;
	// ToPort is the ingress port at To that receives from it.
	FromPort, ToPort int
	// Capacity is the number of cells the link carries per slot
	// (default 1: the link runs at port speed).
	Capacity int
}

// Topology is a connected multi-router wiring: per-node routers of a
// uniform fabric size, directed links between them, and the remaining
// host-facing edge ports where traffic enters and leaves the network.
type Topology struct {
	// Name identifies the builder ("chain", "ring", ...).
	Name string
	// Nodes is the router count.
	Nodes int
	// Ports is the uniform fabric size of every router: a power of two
	// at least max-degree, so every architecture (including the
	// multistage fabrics) can instantiate it.
	Ports int
	// Links lists every directed link. Mutate Capacity before handing
	// the topology to New if links should run faster than port speed.
	Links []Link

	// Hosts lists the nodes allowed to source and sink traffic (every
	// node with at least one edge port, unless a builder restricts it —
	// the fat-tree's spines are pure transit).
	Hosts []int

	adj     [][]int // sorted neighbor list per node
	linkIdx [][]int // parallel to adj: index into Links of node->neighbor
	edge    [][]int // host-facing ports per node
}

// NewTopology builds a topology from an undirected edge list. ports is
// the uniform router fabric size; 0 auto-sizes to the smallest power of
// two ≥ max degree + 1 (and ≥ 4), leaving at least one host-facing edge
// port on every node.
func NewTopology(name string, nodes int, edges [][2]int, ports int) (*Topology, error) {
	if nodes < 2 {
		return nil, fmt.Errorf("netsim: topology needs >= 2 nodes, got %d", nodes)
	}
	// Adjacency rows are carved from one slab in node order, each row
	// sized by the node's edge count before duplicates are dropped.
	deg := make([]int, nodes+1)
	for _, e := range edges {
		u, v := e[0], e[1]
		if u < 0 || u >= nodes || v < 0 || v >= nodes {
			return nil, fmt.Errorf("netsim: edge (%d,%d) out of range for %d nodes", u, v, nodes)
		}
		if u == v {
			return nil, fmt.Errorf("netsim: self-loop at node %d", u)
		}
		deg[u+1]++
		deg[v+1]++
	}
	for u := 0; u < nodes; u++ {
		deg[u+1] += deg[u] // deg[u] is now row u's offset
	}
	nbr := make([]int, deg[nodes])
	fill := append([]int(nil), deg[:nodes]...)
	for _, e := range edges {
		u, v := e[0], e[1]
		nbr[fill[u]], nbr[fill[v]] = v, u
		fill[u]++
		fill[v]++
	}
	// Sort each row and drop repeated neighbors, compacting the rows
	// to the front of the slab; fill[u] becomes row u's degree.
	links, maxDeg := 0, 0
	for u := 0; u < nodes; u++ {
		row := nbr[deg[u]:deg[u+1]]
		sort.Ints(row)
		d, last := 0, -1
		for _, v := range row {
			if v != last {
				nbr[links+d], last = v, v
				d++
			}
		}
		if d == 0 {
			return nil, fmt.Errorf("netsim: node %d is isolated", u)
		}
		fill[u] = d
		links += d
		maxDeg = max(maxDeg, d)
	}
	if ports == 0 {
		ports = nextPow2(maxDeg + 1)
		if ports < 4 {
			ports = 4
		}
	}
	if ports < maxDeg {
		return nil, fmt.Errorf("netsim: %d ports cannot host degree-%d node", ports, maxDeg)
	}
	if ports&(ports-1) != 0 || ports < 2 {
		return nil, fmt.Errorf("netsim: ports must be a power of two >= 2, got %d", ports)
	}

	rows := make([][]int, 3*nodes)
	t := &Topology{
		Name:    name,
		Nodes:   nodes,
		Ports:   ports,
		Links:   make([]Link, 0, links),
		adj:     rows[:nodes:nodes],
		linkIdx: rows[nodes : 2*nodes : 2*nodes],
		edge:    rows[2*nodes:],
	}
	// Port p of node u faces its p-th smallest neighbor; the remaining
	// ports are host-facing. The assignment is a pure function of the
	// adjacency, so identical topologies wire identically. The link
	// indices and the edge ports together fill nodes·ports ints.
	ints := make([]int, nodes*ports)
	linkIdx, edge := ints[:links], ints[links:]
	for u := 0; u < nodes; u++ {
		d := fill[u]
		t.adj[u], nbr = nbr[:d:d], nbr[d:]
		t.linkIdx[u], linkIdx = linkIdx[:d:d], linkIdx[d:]
		t.edge[u], edge = edge[:ports-d:ports-d], edge[ports-d:]
		for i := range t.edge[u] {
			t.edge[u][i] = d + i
		}
	}
	for u := 0; u < nodes; u++ {
		for i, v := range t.adj[u] {
			t.linkIdx[u][i] = len(t.Links)
			t.Links = append(t.Links, Link{
				From: u, To: v,
				FromPort: i, ToPort: sort.SearchInts(t.adj[v], u),
				Capacity: 1,
			})
		}
	}
	t.Hosts = make([]int, 0, nodes)
	for u := 0; u < nodes; u++ {
		if len(t.edge[u]) > 0 {
			t.Hosts = append(t.Hosts, u)
		}
	}
	if len(t.Hosts) < 2 {
		return nil, fmt.Errorf("netsim: topology needs >= 2 host nodes, got %d", len(t.Hosts))
	}
	if !t.connected() {
		return nil, fmt.Errorf("netsim: topology is not connected")
	}
	return t, nil
}

// connected reports whether every node is reachable from node 0.
func (t *Topology) connected() bool {
	visited := make([]bool, t.Nodes)
	stack := []int{0}
	visited[0] = true
	n := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range t.adj[u] {
			if !visited[v] {
				visited[v] = true
				n++
				stack = append(stack, v)
			}
		}
	}
	return n == t.Nodes
}

// Neighbors returns node u's neighbors in ascending order.
func (t *Topology) Neighbors(u int) []int { return t.adj[u] }

// Degree returns the number of links at node u.
func (t *Topology) Degree(u int) int { return len(t.adj[u]) }

// EdgePorts returns node u's host-facing ports.
func (t *Topology) EdgePorts(u int) []int { return t.edge[u] }

// LinkIndex returns the index into Links of the directed link u→v, or
// -1 when the nodes are not adjacent.
func (t *Topology) LinkIndex(u, v int) int {
	for i, w := range t.adj[u] {
		if w == v {
			return t.linkIdx[u][i]
		}
	}
	return -1
}

// Chain builds a linear chain 0–1–…–n-1.
func Chain(n int) (*Topology, error) {
	edges := make([][2]int, 0, n-1)
	for i := 0; i+1 < n; i++ {
		edges = append(edges, [2]int{i, i + 1})
	}
	return NewTopology("chain", n, edges, 0)
}

// Ring builds a cycle 0–1–…–n-1–0.
func Ring(n int) (*Topology, error) {
	if n < 3 {
		return nil, fmt.Errorf("netsim: ring needs >= 3 nodes, got %d", n)
	}
	edges := make([][2]int, 0, n)
	for i := 0; i < n; i++ {
		edges = append(edges, [2]int{i, (i + 1) % n})
	}
	return NewTopology("ring", n, edges, 0)
}

// Star builds a hub-and-spoke topology: node 0 is the hub, nodes
// 1…n-1 its leaves.
func Star(n int) (*Topology, error) {
	if n < 3 {
		return nil, fmt.Errorf("netsim: star needs >= 3 nodes, got %d", n)
	}
	edges := make([][2]int, 0, n-1)
	for i := 1; i < n; i++ {
		edges = append(edges, [2]int{0, i})
	}
	return NewTopology("star", n, edges, 0)
}

// FatTree2 builds a 2-level fat-tree: spines 0…s-1 each connect to every
// leaf s…s+l-1. Only the leaves are hosts; the spines are pure transit,
// which is what gives routing policies a choice — every leaf pair is
// reachable via any spine.
func FatTree2(spines, leaves int) (*Topology, error) {
	if spines < 2 || leaves < 2 {
		return nil, fmt.Errorf("netsim: fat-tree needs >= 2 spines and >= 2 leaves, got %d/%d", spines, leaves)
	}
	edges := make([][2]int, 0, spines*leaves)
	for s := 0; s < spines; s++ {
		for l := 0; l < leaves; l++ {
			edges = append(edges, [2]int{s, spines + l})
		}
	}
	t, err := NewTopology("fattree", spines+leaves, edges, 0)
	if err != nil {
		return nil, err
	}
	hosts := make([]int, 0, leaves)
	for l := 0; l < leaves; l++ {
		hosts = append(hosts, spines+l)
	}
	t.Hosts = hosts
	return t, nil
}

// BuildTopology constructs a built-in topology at a size, the factory
// the study runner and the CLI share. For "fattree", n counts the
// leaves (hosts) and max(2, n/2) spines are added on top; for every
// other built-in, n is the total node count.
func BuildTopology(name string, n int) (*Topology, error) {
	switch name {
	case "chain":
		return Chain(n)
	case "ring":
		return Ring(n)
	case "star":
		return Star(n)
	case "fattree":
		return FatTree2(max(2, n/2), n)
	}
	return nil, fmt.Errorf("netsim: unknown topology %q (want one of %v)", name, TopologyNames())
}

// TopologyNames lists the built-in topology builders.
func TopologyNames() []string { return []string{"chain", "ring", "star", "fattree"} }

// nextPow2 returns the smallest power of two >= v.
func nextPow2(v int) int {
	p := 1
	for p < v {
		p <<= 1
	}
	return p
}
