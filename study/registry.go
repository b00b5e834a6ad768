package study

import (
	"fmt"
	"sort"
	"sync"

	"fabricpower/internal/dpm"
	"fabricpower/internal/netsim"
	"fabricpower/internal/packet"
	"fabricpower/internal/rng"
	"fabricpower/internal/sim"
	"fabricpower/internal/traffic"
)

// ---------------------------------------------------------------------
// Traffic generators
// ---------------------------------------------------------------------

// Injection is one cell injected by a TrafficSource: at the given
// ingress port, destined for the given egress port.
type Injection struct {
	Port int
	Dest int
}

// TrafficSource is the public face of a pluggable traffic generator:
// each slot it emits zero or more injections (at most one per port is
// admitted by the ingress). Implementations must be deterministic
// functions of their construction seed and the slot sequence, and must
// not read simulation state: a network run asks each flow's source
// about a 64-slot block of slots at once, ahead of the slots it
// simulates.
type TrafficSource interface {
	Cells(slot uint64, emit func(Injection))
}

// TrafficFactory builds a TrafficSource for one run. spec carries the
// scenario's traffic block (Load, and any tuning the kind reads from
// the generic fields), ports the fabric size, and seed the
// coordinate-derived stream seed.
type TrafficFactory func(spec TrafficSpec, ports int, seed int64) (TrafficSource, error)

var (
	trafficMu       sync.RWMutex
	trafficRegistry = map[string]TrafficFactory{}
)

// builtinTraffic lists the kinds the executor implements directly on
// internal/traffic.
func builtinTraffic(kind string) bool {
	switch kind {
	case "uniform", "bursty", "packet", "hotspot", "trace":
		return true
	}
	return false
}

// RegisterTraffic makes a traffic kind available to scenarios. Built-in
// and already-registered kinds are rejected.
func RegisterTraffic(kind string, factory TrafficFactory) error {
	if kind == "" || factory == nil {
		return fmt.Errorf("study: traffic registration needs a kind and a factory")
	}
	if builtinTraffic(kind) {
		return fmt.Errorf("study: traffic kind %q is built in", kind)
	}
	trafficMu.Lock()
	defer trafficMu.Unlock()
	if _, ok := trafficRegistry[kind]; ok {
		return fmt.Errorf("study: traffic kind %q already registered", kind)
	}
	trafficRegistry[kind] = factory
	return nil
}

// TrafficKinds lists the built-in kinds followed by any registered
// extensions, sorted.
func TrafficKinds() []string {
	kinds := []string{"uniform", "bursty", "packet", "hotspot", "trace"}
	trafficMu.RLock()
	var extra []string
	for k := range trafficRegistry {
		extra = append(extra, k)
	}
	trafficMu.RUnlock()
	sort.Strings(extra)
	return append(kinds, extra...)
}

// sourceGenerator adapts a TrafficSource to the simulation kernel's
// generator interface, assembling full cells (IDs, random payloads)
// around the source's injections. Cells come from a pool and return to
// it on Release; each slot's slice is carved from shared chunks, so a
// returned slice is never overwritten by a later Generate.
type sourceGenerator struct {
	src     TrafficSource
	ports   int
	stream  *rng.Stream
	nextID  uint64
	pool    *packet.Pool
	batches packet.Batches
	err     error

	// Per-call state of the emit callback, bound once at construction
	// so Generate does not allocate a closure every slot.
	emit  func(Injection)
	slot  uint64
	cells []*packet.Cell
}

func newSourceGenerator(src TrafficSource, cfg packet.Config, ports int, seed int64) *sourceGenerator {
	g := &sourceGenerator{src: src, ports: ports, stream: rng.New(seed), pool: packet.NewPool(cfg.Words(), 0)}
	g.emit = g.add
	return g
}

func (g *sourceGenerator) Generate(slot uint64) []*packet.Cell {
	g.slot, g.cells = slot, g.batches.Open(g.ports)
	g.src.Cells(slot, g.emit)
	out := g.batches.Close(g.cells)
	g.cells = nil
	return out
}

// Release hands a delivered or refused cell back for reuse.
func (g *sourceGenerator) Release(c *packet.Cell) { g.pool.Put(c) }

func (g *sourceGenerator) add(in Injection) {
	if in.Port < 0 || in.Port >= g.ports || in.Dest < 0 || in.Dest >= g.ports {
		if g.err == nil {
			g.err = fmt.Errorf("study: traffic source injected %d→%d outside [0,%d)", in.Port, in.Dest, g.ports)
		}
		return
	}
	g.nextID++
	c := g.pool.Get()
	c.ID, c.Src, c.Dest, c.CreatedSlot = g.nextID, in.Port, in.Dest, g.slot
	c.FillRandom(g.stream)
	g.cells = append(g.cells, c)
}

// registeredTraffic builds the generator for a non-built-in kind.
func registeredTraffic(spec TrafficSpec, ports int, cfg packet.Config, seed int64) (*sourceGenerator, error) {
	trafficMu.RLock()
	factory, ok := trafficRegistry[spec.Kind]
	trafficMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("study: unknown traffic kind %q (want one of %v)", spec.Kind, TrafficKinds())
	}
	src, err := factory(spec, ports, seed)
	if err != nil {
		return nil, err
	}
	return newSourceGenerator(src, cfg, ports, seed), nil
}

// ---------------------------------------------------------------------
// DPM policies
// ---------------------------------------------------------------------

// PolicyObservation is the per-slot activity snapshot a pluggable
// policy decides from. The slices alias the manager's buffers — do not
// retain them across slots.
type PolicyObservation = dpm.Observation

// PolicyDecision is what a pluggable policy requests for the upcoming
// slot; it is zeroed before every Decide call. GatePort aliases the
// manager's decision buffer.
type PolicyDecision = dpm.Decision

// Policy is a pluggable power-management policy: the manager's
// dpm.Policy contract without Name, which registration supplies.
// Implementations must be deterministic and must not allocate in
// Decide (it runs on the slot hot path).
type Policy interface {
	Reset(ports int)
	Decide(obs *PolicyObservation, dec *PolicyDecision)
}

// namedPolicy gives a registered Policy the name it was registered
// under.
type namedPolicy struct {
	Policy
	name string
}

func (p namedPolicy) Name() string { return p.name }

// RegisterDPMPolicy makes a power-management policy available to
// scenarios by name. Each run constructs a fresh policy via factory, so
// implementations carry no state across sweep points. Built-in and
// already-registered names are rejected.
func RegisterDPMPolicy(name string, factory func() Policy) error {
	if factory == nil {
		return fmt.Errorf("study: policy registration needs a factory")
	}
	return dpm.RegisterPolicy(name, func() dpm.Policy {
		return namedPolicy{Policy: factory(), name: name}
	})
}

// DPMPolicyNames lists the available policies, baseline first.
func DPMPolicyNames() []string { return dpm.PolicyNames() }

// ---------------------------------------------------------------------
// Routing policies
// ---------------------------------------------------------------------

// NetworkView is the read-only topology picture a pluggable routing
// policy sees: node count, the host nodes allowed to source and sink
// traffic, and each node's neighbors in ascending order.
type NetworkView struct {
	Nodes     int
	Hosts     []int
	Neighbors [][]int
}

// FlowDemand is one (source, destination, rate) demand to route.
type FlowDemand struct {
	Src, Dst int
	Rate     float64
}

// RoutingFunc maps every flow to a loop-free node path (src…dst), in
// flow order. It must be a deterministic pure function of its inputs.
type RoutingFunc func(v NetworkView, flows []FlowDemand) ([][]int, error)

// routingAdapter bridges a RoutingFunc into the internal policy
// interface.
type routingAdapter struct {
	name string
	fn   RoutingFunc
}

func (r routingAdapter) Name() string { return r.name }

func (r routingAdapter) Route(t *netsim.Topology, flows []netsim.Flow) ([][]int, error) {
	v := NetworkView{
		Nodes:     t.Nodes,
		Hosts:     append([]int(nil), t.Hosts...),
		Neighbors: make([][]int, t.Nodes),
	}
	for u := 0; u < t.Nodes; u++ {
		v.Neighbors[u] = append([]int(nil), t.Neighbors(u)...)
	}
	demands := make([]FlowDemand, len(flows))
	for i, f := range flows {
		demands[i] = FlowDemand{Src: f.Src, Dst: f.Dst, Rate: f.Rate}
	}
	return r.fn(v, demands)
}

// RegisterRouting makes a routing policy available to network
// scenarios by name. Built-in and already-registered names are
// rejected.
func RegisterRouting(name string, fn RoutingFunc) error {
	if fn == nil {
		return fmt.Errorf("study: routing registration needs a function")
	}
	return netsim.RegisterRouting(name, func() netsim.RoutingPolicy {
		return routingAdapter{name: name, fn: fn}
	})
}

// RoutingNames lists the available routing policies, baseline first.
func RoutingNames() []string { return netsim.RoutingNames() }

// ---------------------------------------------------------------------
// Topologies
// ---------------------------------------------------------------------

// Graph is the public description a pluggable topology builder
// returns: an undirected edge list over Nodes nodes. Ports sizes every
// router's fabric (0 auto-sizes to the smallest power of two that
// leaves a host-facing port on the max-degree node); Hosts, when
// non-nil, restricts which nodes source and sink traffic (every listed
// node must keep at least one host-facing port).
type Graph struct {
	Nodes int
	Edges [][2]int
	Ports int
	Hosts []int
}

// RegisterTopology makes a topology builder available to network
// scenarios by name: build receives the scenario's node count and
// returns the graph to wire. Built-in and already-registered names are
// rejected.
func RegisterTopology(name string, build func(nodes int) (Graph, error)) error {
	if build == nil {
		return fmt.Errorf("study: topology registration needs a builder")
	}
	return netsim.RegisterTopology(name, func(n int) (*netsim.Topology, error) {
		g, err := build(n)
		if err != nil {
			return nil, err
		}
		t, err := netsim.NewTopology(name, g.Nodes, g.Edges, g.Ports)
		if err != nil {
			return nil, err
		}
		if g.Hosts != nil {
			for _, h := range g.Hosts {
				if h < 0 || h >= t.Nodes {
					return nil, fmt.Errorf("study: topology %q host %d out of range", name, h)
				}
				if len(t.EdgePorts(h)) == 0 {
					return nil, fmt.Errorf("study: topology %q host %d has no host-facing port", name, h)
				}
			}
			if len(g.Hosts) < 2 {
				return nil, fmt.Errorf("study: topology %q needs >= 2 hosts, got %d", name, len(g.Hosts))
			}
			t.Hosts = append([]int(nil), g.Hosts...)
		}
		return t, nil
	})
}

// TopologyNames lists the available topology builders.
func TopologyNames() []string { return netsim.TopologyNames() }

// ---------------------------------------------------------------------
// Traffic matrices
// ---------------------------------------------------------------------

// MatrixFunc generates the demand rates between a network's host
// nodes: rates[i][j] is the cells-per-slot demand from host i to host
// j, the diagonal must be zero, and each row should sum to load (every
// host sources load cells per slot on average).
type MatrixFunc func(hosts int, load float64) ([][]float64, error)

// matrixAdapter bridges a MatrixFunc into the internal interface.
type matrixAdapter struct {
	name string
	fn   MatrixFunc
}

func (m matrixAdapter) Name() string { return m.name }
func (m matrixAdapter) Rates(hosts int, load float64) ([][]float64, error) {
	return m.fn(hosts, load)
}

// RegisterMatrix makes a traffic matrix available to network scenarios
// by name. Built-in and already-registered names are rejected.
func RegisterMatrix(name string, fn MatrixFunc) error {
	if fn == nil {
		return fmt.Errorf("study: matrix registration needs a function")
	}
	return netsim.RegisterMatrix(name, func() netsim.TrafficMatrix {
		return matrixAdapter{name: name, fn: fn}
	})
}

// MatrixNames lists the available traffic matrices.
func MatrixNames() []string { return netsim.MatrixNames() }

// builtinGenerator builds the internal generator for the built-in
// traffic kinds, matching the experiment runners' construction exactly.
func builtinGenerator(spec TrafficSpec, ports int, cfg packet.Config, seed int64) (sim.Generator, error) {
	switch spec.Kind {
	case "uniform":
		return traffic.NewInjector(ports, spec.Load, cfg, nil, seed)
	case "bursty":
		return traffic.NewOnOffInjector(ports, spec.MeanBurstSlots, spec.Load, cfg, nil, seed)
	case "packet":
		return traffic.NewPacketInjector(ports, spec.Load, cfg, nil, seed)
	case "hotspot":
		return traffic.NewInjector(ports, spec.Load, cfg,
			traffic.Hotspot{Port: spec.HotspotPort, Fraction: *spec.HotspotFraction}, seed)
	case "trace":
		return tracePlayer(spec.Trace, cfg)
	}
	return registeredTraffic(spec, ports, cfg, seed)
}

// flowSourceAdapter lifts a per-port TrafficSource into the network
// kernel's per-flow seam: the source is constructed as a 1-port view
// of one flow, and any cell it emits in a slot injects one cell on
// that flow. NextBlock asks the source about each slot of the block in
// turn. The emit callback is bound once at construction so NextBlock
// stays allocation-free on the slot hot path.
type flowSourceAdapter struct {
	src   TrafficSource
	mark  func(Injection)
	fired bool
}

func newFlowSourceAdapter(src TrafficSource) *flowSourceAdapter {
	a := &flowSourceAdapter{src: src}
	a.mark = func(Injection) { a.fired = true }
	return a
}

func (a *flowSourceAdapter) NextBlock(first uint64) uint64 {
	var m uint64
	for i := uint64(0); i < netsim.BlockSlots; i++ {
		a.fired = false
		a.src.Cells(first+i, a.mark)
		if a.fired {
			m |= 1 << i
		}
	}
	return m
}

// networkTraffic resolves a scenario's traffic block into the network
// kernel's per-flow process. Built-in kinds map onto netsim's native
// sources; a registered kind is instantiated per flow through its
// TrafficFactory with ports=1 and Load set to the flow's matrix rate,
// then adapted onto the FlowSource seam.
func networkTraffic(spec TrafficSpec, tr *traffic.Trace) (netsim.Traffic, error) {
	switch spec.Kind {
	case "", "uniform", "bursty", "packet":
		return netsim.Traffic{Kind: spec.Kind, MeanBurstSlots: spec.MeanBurstSlots}, nil
	case "trace":
		return netsim.Traffic{Kind: spec.Kind, Trace: tr}, nil
	case "hotspot":
		// Validate rejects this earlier; keep the executor honest.
		return netsim.Traffic{}, fmt.Errorf("study: traffic kind hotspot is single-router only; use network.matrix \"hotspot\"")
	}
	trafficMu.RLock()
	factory, ok := trafficRegistry[spec.Kind]
	trafficMu.RUnlock()
	if !ok {
		return netsim.Traffic{}, fmt.Errorf("study: unknown traffic kind %q (want one of %v)", spec.Kind, TrafficKinds())
	}
	return netsim.Traffic{New: func(f netsim.Flow, fi int, seed int64) (netsim.FlowSource, error) {
		perFlow := spec
		perFlow.Load = f.Rate
		src, err := factory(perFlow, 1, seed)
		if err != nil {
			return nil, err
		}
		return newFlowSourceAdapter(src), nil
	}}, nil
}
