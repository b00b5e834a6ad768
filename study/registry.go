package study

import (
	"fmt"
	"slices"
	"sync"

	"fabricpower/internal/netsim"
	"fabricpower/internal/packet"
	"fabricpower/internal/rng"
	"fabricpower/internal/sim"
	"fabricpower/internal/traffic"
)

// Registry resolves the traffic kinds scenarios name to their
// implementations: the built-in kinds, plus those registered with
// RegisterTraffic. A kind registered into one registry is known to that
// registry alone. A grid run resolves against RunOptions.Registry, or
// Default when that is nil. A Registry is safe for concurrent use:
// kinds may be registered while a run resolves them. Make one with
// NewRegistry.
type Registry struct {
	mu      sync.RWMutex
	traffic map[string]TrafficFactory
}

// Default is the registry RunScenario resolves against, and Grid.Run
// when RunOptions.Registry is nil.
var Default = NewRegistry()

// NewRegistry returns a registry that knows only the built-ins.
func NewRegistry() *Registry {
	return &Registry{traffic: map[string]TrafficFactory{}}
}

// builtinTraffic lists the traffic kinds every registry knows.
var builtinTraffic = []string{"uniform", "bursty", "packet", "hotspot", "trace"}

// RegisterTraffic makes a traffic kind available to scenarios. It
// rejects an empty kind, a nil factory, a built-in kind and a kind
// already registered.
func (r *Registry) RegisterTraffic(kind string, factory TrafficFactory) error {
	if kind == "" || factory == nil {
		return fmt.Errorf("study: traffic kind registration needs a name and an implementation")
	}
	if slices.Contains(builtinTraffic, kind) {
		return fmt.Errorf("study: traffic kind %q is built in", kind)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.traffic[kind]; ok {
		return fmt.Errorf("study: traffic kind %q already registered", kind)
	}
	r.traffic[kind] = factory
	return nil
}

// trafficFactory returns the factory registered under a non-built-in
// kind.
func (r *Registry) trafficFactory(kind string) (TrafficFactory, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	factory, ok := r.traffic[kind]
	if !ok {
		known := slices.Clone(builtinTraffic)
		for k := range r.traffic {
			known = append(known, k)
		}
		slices.Sort(known[len(builtinTraffic):])
		return nil, fmt.Errorf("study: unknown traffic kind %q (want one of %v)", kind, known)
	}
	return factory, nil
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
	factory, err := r.trafficFactory(spec.Kind)
	if err != nil {
		return nil, err
	}
	src, err := factory(spec, ports, seed)
	if err != nil {
		return nil, err
	}
	return newSourceGenerator(src, cfg, ports, seed), nil
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
			&traffic.Hotspot{Port: spec.HotspotPort, Fraction: *spec.HotspotFraction}, seed)
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
	factory, err := r.trafficFactory(spec.Kind)
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
