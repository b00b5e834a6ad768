package study

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"fabricpower/internal/dpm"
	"fabricpower/internal/netsim"
	"fabricpower/internal/packet"
	"fabricpower/internal/rng"
	"fabricpower/internal/sim"
	"fabricpower/internal/traffic"
)

// Registry resolves the names scenarios use — sweep axes, traffic
// kinds, DPM policies, routing policies, topologies and traffic
// matrices — to their implementations. Every registry knows the
// built-ins; an extension registered into one registry is known to
// that registry alone. A grid run resolves against
// RunOptions.Registry, or Default when that is nil. A Registry is safe
// for concurrent use: names may be registered while a run resolves
// them. Every Register method rejects an empty name, a nil
// implementation, a built-in name and a name already registered. Make
// one with NewRegistry.
type Registry struct {
	mu         sync.RWMutex
	axes       table[AxisApplier]
	traffic    table[TrafficFactory]
	policies   table[func() Policy]
	routing    table[RoutingFunc]
	topologies table[func(nodes int) (Graph, error)]
	matrices   table[MatrixFunc]
}

// Default is the registry RunScenario and Grid.Enumerate resolve
// against, and Grid.Run when RunOptions.Registry is nil.
var Default = NewRegistry()

// NewRegistry returns a registry that knows only the built-ins.
func NewRegistry() *Registry {
	axes := make([]string, 0, len(builtinAxes))
	for name := range builtinAxes {
		axes = append(axes, name)
	}
	sort.Strings(axes)
	return &Registry{
		axes:       newTable[AxisApplier]("axis", axes),
		traffic:    newTable[TrafficFactory]("traffic kind", []string{"uniform", "bursty", "packet", "hotspot", "trace"}),
		policies:   newTable[func() Policy]("DPM policy", dpm.PolicyNames()),
		routing:    newTable[RoutingFunc]("routing policy", netsim.RoutingNames()),
		topologies: newTable[func(nodes int) (Graph, error)]("topology", netsim.TopologyNames()),
		matrices:   newTable[MatrixFunc]("traffic matrix", netsim.MatrixNames()),
	}
}

// RegisterAxis makes a new axis name sweepable in grids.
func (r *Registry) RegisterAxis(name string, apply AxisApplier) error {
	return register(r, &r.axes, name, apply)
}

// RegisterTraffic makes a traffic kind available to scenarios.
func (r *Registry) RegisterTraffic(kind string, factory TrafficFactory) error {
	return register(r, &r.traffic, kind, factory)
}

// RegisterDPMPolicy makes a power-management policy available to
// scenarios by name. Each managed router constructs a fresh policy via
// factory, so implementations carry no state across sweep points or
// routers.
func (r *Registry) RegisterDPMPolicy(name string, factory func() Policy) error {
	return register(r, &r.policies, name, factory)
}

// RegisterRouting makes a routing policy available to network
// scenarios by name.
func (r *Registry) RegisterRouting(name string, fn RoutingFunc) error {
	return register(r, &r.routing, name, fn)
}

// RegisterTopology makes a topology builder available to network
// scenarios by name: build receives the scenario's node count and
// returns the graph to wire.
func (r *Registry) RegisterTopology(name string, build func(nodes int) (Graph, error)) error {
	return register(r, &r.topologies, name, build)
}

// RegisterMatrix makes a traffic matrix available to network scenarios
// by name.
func (r *Registry) RegisterMatrix(name string, fn MatrixFunc) error {
	return register(r, &r.matrices, name, fn)
}

// AxisNames lists the sweepable axes: the built-ins sorted, then the
// registered extensions sorted.
func (r *Registry) AxisNames() []string { return names(r, &r.axes) }

// TrafficKinds lists the built-in traffic kinds followed by the
// registered extensions, sorted.
func (r *Registry) TrafficKinds() []string { return names(r, &r.traffic) }

// DPMPolicyNames lists the built-in policies (baseline first) followed
// by the registered extensions, sorted.
func (r *Registry) DPMPolicyNames() []string { return names(r, &r.policies) }

// RoutingNames lists the built-in routing policies (baseline first)
// followed by the registered extensions, sorted.
func (r *Registry) RoutingNames() []string { return names(r, &r.routing) }

// TopologyNames lists the built-in topology builders followed by the
// registered extensions, sorted.
func (r *Registry) TopologyNames() []string { return names(r, &r.topologies) }

// MatrixNames lists the built-in traffic matrices followed by the
// registered extensions, sorted.
func (r *Registry) MatrixNames() []string { return names(r, &r.matrices) }

// extension is the set of implementation types a Registry holds.
type extension interface {
	AxisApplier | TrafficFactory | func() Policy | RoutingFunc | func(nodes int) (Graph, error) | MatrixFunc
}

// table is one name space of a Registry: its built-in names, fixed at
// construction, and the registered extensions, which the Registry's
// mutex guards.
type table[T extension] struct {
	what     string
	builtins []string
	extra    map[string]T
}

func newTable[T extension](what string, builtins []string) table[T] {
	return table[T]{what: what, builtins: builtins, extra: map[string]T{}}
}

// register adds an extension to one of r's tables, rejecting an empty
// name, a nil implementation, a built-in name and a name already
// registered.
func register[T extension](r *Registry, t *table[T], name string, v T) error {
	if name == "" || v == nil {
		return fmt.Errorf("study: %s registration needs a name and an implementation", t.what)
	}
	if slices.Contains(t.builtins, name) {
		return fmt.Errorf("study: %s %q is built in", t.what, name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := t.extra[name]; ok {
		return fmt.Errorf("study: %s %q already registered", t.what, name)
	}
	t.extra[name] = v
	return nil
}

// lookup returns the extension registered under a non-built-in name.
func lookup[T extension](r *Registry, t *table[T], name string) (T, error) {
	r.mu.RLock()
	v, ok := t.extra[name]
	r.mu.RUnlock()
	if !ok {
		return v, fmt.Errorf("study: unknown %s %q (want one of %v)", t.what, name, names(r, t))
	}
	return v, nil
}

// names lists a table's built-ins followed by its extensions, sorted.
func names[T extension](r *Registry, t *table[T]) []string {
	r.mu.RLock()
	extra := make([]string, 0, len(t.extra))
	for name := range t.extra {
		extra = append(extra, name)
	}
	r.mu.RUnlock()
	sort.Strings(extra)
	return append(slices.Clone(t.builtins), extra...)
}

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
func (r *Registry) registeredTraffic(spec TrafficSpec, ports int, cfg packet.Config, seed int64) (*sourceGenerator, error) {
	factory, err := lookup(r, &r.traffic, spec.Kind)
	if err != nil {
		return nil, err
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
// Decide (it runs on the slot hot path). Two optional methods are
// forwarded to the manager as a built-in's are: DVFSLevels()
// []dpm.DVFSLevel names the ladder DVFSLevel indexes (without it, or
// when it is empty, every level clamps to full speed), and IdleHorizon()
// uint64 (dpm.HorizonPolicy) lets the manager skip Decide on idle slots
// and the network kernel put the policy's routers to sleep (without
// it, Decide runs every slot).
type Policy interface {
	Reset(ports int)
	Decide(obs *PolicyObservation, dec *PolicyDecision)
}

// namedPolicy gives a registered Policy the name it was registered
// under and forwards its optional methods.
type namedPolicy struct {
	Policy
	name string
}

func (p namedPolicy) Name() string { return p.name }

func (p namedPolicy) DVFSLevels() []dpm.DVFSLevel {
	if l, ok := p.Policy.(interface{ DVFSLevels() []dpm.DVFSLevel }); ok {
		return l.DVFSLevels()
	}
	return nil
}

func (p namedPolicy) IdleHorizon() uint64 {
	if h, ok := p.Policy.(dpm.HorizonPolicy); ok {
		return h.IdleHorizon()
	}
	return 0
}

// dpmPolicy resolves a policy name to the constructor each managed
// router calls: a dpm built-in, or a policy registered in r.
func (r *Registry) dpmPolicy(name string) (func() (dpm.Policy, error), error) {
	if slices.Contains(r.policies.builtins, name) {
		return func() (dpm.Policy, error) { return dpm.NewPolicy(name) }, nil
	}
	factory, err := lookup(r, &r.policies, name)
	if err != nil {
		return nil, err
	}
	return func() (dpm.Policy, error) { return namedPolicy{Policy: factory(), name: name}, nil }, nil
}

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

// Route implements netsim.RoutingPolicy: it copies the user function's
// paths into out.
func (r routingAdapter) Route(t *netsim.Topology, flows []netsim.Flow, out *netsim.Routes) error {
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
	paths, err := r.fn(v, demands)
	if err != nil {
		return err
	}
	if len(paths) != len(flows) {
		return fmt.Errorf("study: routing %s returned %d paths for %d flows", r.name, len(paths), len(flows))
	}
	for k, p := range paths {
		out.Set(k, p)
	}
	return nil
}

// routingPolicy resolves a routing name: a netsim built-in, or a
// RoutingFunc registered in r.
func (r *Registry) routingPolicy(name string) (netsim.RoutingPolicy, error) {
	if slices.Contains(r.routing.builtins, name) {
		return netsim.NewRouting(name)
	}
	fn, err := lookup(r, &r.routing, name)
	if err != nil {
		return nil, err
	}
	return routingAdapter{name: name, fn: fn}, nil
}

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

// topology builds a named topology at a size: a netsim built-in, or
// the Graph of a builder registered in r, wired and checked.
func (r *Registry) topology(name string, nodes int) (*netsim.Topology, error) {
	if slices.Contains(r.topologies.builtins, name) {
		return netsim.BuildTopology(name, nodes)
	}
	build, err := lookup(r, &r.topologies, name)
	if err != nil {
		return nil, err
	}
	g, err := build(nodes)
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
}

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

// matrix resolves a traffic-matrix name: a netsim built-in, or a
// MatrixFunc registered in r.
func (r *Registry) matrix(name string) (netsim.TrafficMatrix, error) {
	if slices.Contains(r.matrices.builtins, name) {
		return netsim.NewMatrix(name)
	}
	fn, err := lookup(r, &r.matrices, name)
	if err != nil {
		return nil, err
	}
	return matrixAdapter{name: name, fn: fn}, nil
}

// generator builds the single-router traffic generator: the built-in
// kinds match the experiment runners' construction exactly, any other
// kind is registered in r.
func (r *Registry) generator(spec TrafficSpec, ports int, cfg packet.Config, seed int64) (sim.Generator, error) {
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
	return r.registeredTraffic(spec, ports, cfg, seed)
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
func (r *Registry) networkTraffic(spec TrafficSpec, tr *traffic.Trace) (netsim.Traffic, error) {
	switch spec.Kind {
	case "", "uniform", "bursty", "packet":
		return netsim.Traffic{Kind: spec.Kind, MeanBurstSlots: spec.MeanBurstSlots}, nil
	case "trace":
		return netsim.Traffic{Kind: spec.Kind, Trace: tr}, nil
	case "hotspot":
		// Validate rejects this earlier; keep the executor honest.
		return netsim.Traffic{}, fmt.Errorf("study: traffic kind hotspot is single-router only; use network.matrix \"hotspot\"")
	}
	factory, err := lookup(r, &r.traffic, spec.Kind)
	if err != nil {
		return netsim.Traffic{}, err
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
