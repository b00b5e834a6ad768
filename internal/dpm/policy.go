package dpm

import (
	"fmt"
	"sort"
	"sync"
)

// Observation is the per-slot activity snapshot a policy decides from.
// The manager owns and reuses one instance across slots (the slot loop
// is allocation-free); policies must not retain it.
type Observation struct {
	// Slot is the current slot number.
	Slot uint64
	// Ports is the fabric size N.
	Ports int
	// QueueLen is the ingress occupancy per port at slot start.
	QueueLen []int
	// PortActive marks ports that delivered a cell at their egress
	// during the previous slot.
	PortActive []bool
	// Backlog is the total ingress occupancy (sum of QueueLen).
	Backlog int
	// BufferedCells counts cells parked in fabric-internal SRAM.
	BufferedCells int
	// Load is the manager's exponentially-weighted moving average of
	// delivered throughput (fraction of aggregate port capacity).
	Load float64
}

// Decision is what a policy requests for the upcoming slot. The manager
// zeroes it before every Decide call and translates the requests into
// state machines: gating takes effect immediately, ungating pays the
// configured wakeup latency, and DVFS level changes pay a transition
// freeze. Policies write desired states; they never see latency.
type Decision struct {
	// GatePort requests the clock-gated state for a port's switch and
	// wire-driver domain.
	GatePort []bool
	// BufferSleep requests the drowsy state for the fabric SRAM banks.
	BufferSleep bool
	// DVFSLevel indexes the policy's DVFSLevels table (0 = full speed).
	DVFSLevel int
}

// Policy observes per-slot fabric activity and decides component power
// states. Implementations must be deterministic pure functions of their
// own state and the observation stream: the sweep engine relies on
// bit-identical results for any worker count.
type Policy interface {
	// Name is the policy's CLI/report identifier.
	Name() string
	// Reset sizes internal state for a fabric of the given port count
	// and clears any history. Called once by Manager construction.
	Reset(ports int)
	// Decide fills dec with the desired states for the upcoming slot.
	Decide(obs *Observation, dec *Decision)
}

// FixpointPolicy is an optional Policy extension the manager's
// steady-idle fast path consults. IdleFixpoint reports that the policy
// has converged for sustained idleness: given any further observation
// whose QueueLen entries are all zero, PortActive flags all false, and
// Backlog and BufferedCells zero — Slot and Load arbitrary — Decide
// would mutate no internal state and fill the decision exactly as it
// did last slot. The certificate lets the manager stop re-running
// Decide on provably idle slots and replay the constant decision in
// O(1); a policy whose idle behaviour depends on Load or Slot (for
// example LoadDVFS, which walks the ladder as the load EWMA decays)
// must not implement it, and then always takes the full path.
type FixpointPolicy interface {
	IdleFixpoint() bool
}

// AlwaysOn is the baseline policy: every component powered, full speed,
// forever. With zero static power it reproduces the paper's accounting
// bit-identically; with static power attached it shows what an
// unmanaged fabric pays at idle.
type AlwaysOn struct{}

// Name implements Policy.
func (AlwaysOn) Name() string { return "alwayson" }

// Reset implements Policy.
func (AlwaysOn) Reset(int) {}

// Decide implements Policy: the zeroed decision is exactly "all on".
func (AlwaysOn) Decide(*Observation, *Decision) {}

// IdleFixpoint implements FixpointPolicy: stateless, so always at the
// fixpoint.
func (AlwaysOn) IdleFixpoint() bool { return true }

// IdleGate clock-gates a port's switch/wire domain after the port has
// been idle — empty ingress queue and no egress delivery — for
// TimeoutSlots consecutive slots. Pending work reopens the gate at the
// cost of the model's wakeup latency, which queued cells pay as extra
// measured latency.
type IdleGate struct {
	// TimeoutSlots is the idle streak required before gating
	// (default 8).
	TimeoutSlots int

	idle []int
}

// Name implements Policy.
func (g *IdleGate) Name() string { return "idlegate" }

// Reset implements Policy.
func (g *IdleGate) Reset(ports int) {
	if g.TimeoutSlots <= 0 {
		g.TimeoutSlots = 8
	}
	g.idle = make([]int, ports)
}

// Decide implements Policy.
func (g *IdleGate) Decide(obs *Observation, dec *Decision) {
	// Re-sliced to one length up front, so the loop indexes without
	// bounds checks.
	n := obs.Ports
	queue, active, idle, gate := obs.QueueLen[:n], obs.PortActive[:n], g.idle[:n], dec.GatePort[:n]
	timeout := g.TimeoutSlots
	for p := range idle {
		if queue[p] > 0 || active[p] {
			idle[p] = 0
			continue
		}
		if idle[p] < timeout {
			idle[p]++
		}
		gate[p] = idle[p] >= timeout
	}
}

// IdleFixpoint implements FixpointPolicy: the idle counters saturate at
// TimeoutSlots, so once every port's streak is there an all-idle
// observation increments nothing and every gate request stays true.
func (g *IdleGate) IdleFixpoint() bool {
	for _, streak := range g.idle {
		if streak < g.TimeoutSlots {
			return false
		}
	}
	return true
}

// BufferSleep puts the fabric's SRAM banks into the drowsy
// (retention-voltage) state once they have drained: zero buffered cells
// for DrainSlots consecutive slots. A buffering event while drowsy
// wakes the banks — the manager charges the transition energy; the
// write itself proceeds at full speed (drowsy wakeup is sub-slot).
// Only the Banyan has internal buffers; on bufferless fabrics the
// policy is a no-op.
type BufferSleep struct {
	// DrainSlots is the empty streak required before sleeping
	// (default 4).
	DrainSlots int

	empty int
}

// Name implements Policy.
func (b *BufferSleep) Name() string { return "buffersleep" }

// Reset implements Policy.
func (b *BufferSleep) Reset(int) {
	if b.DrainSlots <= 0 {
		b.DrainSlots = 4
	}
	b.empty = 0
}

// Decide implements Policy.
func (b *BufferSleep) Decide(obs *Observation, dec *Decision) {
	if obs.BufferedCells > 0 {
		b.empty = 0
		return
	}
	if b.empty < b.DrainSlots {
		b.empty++
	}
	dec.BufferSleep = b.empty >= b.DrainSlots
}

// IdleFixpoint implements FixpointPolicy: the drain streak saturates at
// DrainSlots, mirroring IdleGate's counters.
func (b *BufferSleep) IdleFixpoint() bool { return b.empty >= b.DrainSlots }

// DVFSLevel is one frequency/voltage operating point of the LoadDVFS
// policy. Speed is the relative admission rate (frequency scale): at
// Speed 0.5 the fabric admits new cells on half of the slots, so load
// above the speed backs up into the ingress queues as latency. VScale
// is the relative supply voltage; the manager derives the dynamic
// (V²) and static (V) energy scale factors from it via
// tech.Params.Scaled.
type DVFSLevel struct {
	Name   string
	Speed  float64
	VScale float64
}

// DefaultDVFSLevels returns the three-point ladder LoadDVFS uses unless
// configured otherwise: full speed, a 0.75× mid point and a 0.5× low
// point with correspondingly scaled rails.
func DefaultDVFSLevels() []DVFSLevel {
	return []DVFSLevel{
		{Name: "full", Speed: 1.00, VScale: 1.00},
		{Name: "mid", Speed: 0.75, VScale: 0.85},
		{Name: "low", Speed: 0.50, VScale: 0.70},
	}
}

// LoadDVFS tracks delivered load and walks the DVFS ladder: it drops to
// a slower/lower-voltage level only after the load has justified it for
// HoldSlots consecutive slots (one level per step), and jumps straight
// back to the speed the load demands when traffic returns or queues
// build. Every level change pays the manager's transition freeze, so
// the hysteresis is what keeps the policy from thrashing.
type LoadDVFS struct {
	// Levels is the operating ladder, fastest first (default
	// DefaultDVFSLevels).
	Levels []DVFSLevel
	// HoldSlots is the evidence required before slowing down
	// (default 64).
	HoldSlots int
	// Headroom is the load fraction of a level's speed above which the
	// level is considered too slow (default 0.7): level l serves
	// ewma-load up to Headroom·Speed(l).
	Headroom float64

	level int
	hold  int
}

// Name implements Policy.
func (d *LoadDVFS) Name() string { return "loaddvfs" }

// Reset implements Policy.
func (d *LoadDVFS) Reset(int) {
	if len(d.Levels) == 0 {
		d.Levels = DefaultDVFSLevels()
	}
	if d.HoldSlots <= 0 {
		d.HoldSlots = 64
	}
	if d.Headroom <= 0 || d.Headroom > 1 {
		d.Headroom = 0.7
	}
	d.level = 0
	d.hold = 0
}

// DVFSLevels exposes the ladder to the manager.
func (d *LoadDVFS) DVFSLevels() []DVFSLevel { return d.Levels }

// Decide implements Policy.
func (d *LoadDVFS) Decide(obs *Observation, dec *Decision) {
	// The slowest level whose speed still covers the load with headroom.
	target := 0
	if obs.Backlog <= obs.Ports {
		for i := len(d.Levels) - 1; i > 0; i-- {
			if obs.Load <= d.Headroom*d.Levels[i].Speed {
				target = i
				break
			}
		}
	}
	switch {
	case target < d.level: // need speed: react immediately
		d.level = target
		d.hold = 0
	case target > d.level: // could slow down: require sustained evidence
		d.hold++
		if d.hold >= d.HoldSlots {
			d.level++ // one rung at a time
			d.hold = 0
		}
	default:
		d.hold = 0
	}
	dec.DVFSLevel = d.level
}

// Composite stacks IdleGate, BufferSleep and LoadDVFS: ports gate on
// idleness, SRAM sleeps when drained and the whole fabric tracks load
// down the DVFS ladder. It demonstrates that the decision channels are
// orthogonal — each sub-policy writes its own part of the Decision.
type Composite struct {
	Gate   IdleGate
	Buffer BufferSleep
	DVFS   LoadDVFS
}

// Name implements Policy.
func (c *Composite) Name() string { return "composite" }

// Reset implements Policy.
func (c *Composite) Reset(ports int) {
	c.Gate.Reset(ports)
	c.Buffer.Reset(ports)
	c.DVFS.Reset(ports)
}

// Decide implements Policy.
func (c *Composite) Decide(obs *Observation, dec *Decision) {
	c.Gate.Decide(obs, dec)
	c.Buffer.Decide(obs, dec)
	c.DVFS.Decide(obs, dec)
}

// DVFSLevels exposes the inner ladder to the manager.
func (c *Composite) DVFSLevels() []DVFSLevel { return c.DVFS.Levels }

// builtinPolicies maps the built-in names to their default-tuned
// constructors.
func builtinPolicy(name string) (Policy, bool) {
	switch name {
	case "alwayson":
		return AlwaysOn{}, true
	case "idlegate":
		return &IdleGate{}, true
	case "buffersleep":
		return &BufferSleep{}, true
	case "loaddvfs":
		return &LoadDVFS{}, true
	case "composite":
		return &Composite{}, true
	}
	return nil, false
}

var (
	registryMu sync.RWMutex
	registry   = map[string]func() Policy{}
)

// RegisterPolicy makes a policy constructible by name through NewPolicy
// — the extension point the study layer exposes to external callers.
// Each NewPolicy call invokes factory afresh, so registered policies
// carry no state across sweep points. Built-in and already-registered
// names are rejected. Safe for concurrent use with NewPolicy (sweeps
// construct policies from many goroutines).
func RegisterPolicy(name string, factory func() Policy) error {
	if name == "" || factory == nil {
		return fmt.Errorf("dpm: policy registration needs a name and a factory")
	}
	if _, ok := builtinPolicy(name); ok {
		return fmt.Errorf("dpm: policy %q is built in", name)
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, ok := registry[name]; ok {
		return fmt.Errorf("dpm: policy %q already registered", name)
	}
	registry[name] = factory
	return nil
}

// NewPolicy builds a policy from its name with default tuning,
// consulting the built-ins first and then the registry.
func NewPolicy(name string) (Policy, error) {
	if p, ok := builtinPolicy(name); ok {
		return p, nil
	}
	registryMu.RLock()
	factory, ok := registry[name]
	registryMu.RUnlock()
	if ok {
		return factory(), nil
	}
	return nil, fmt.Errorf("dpm: unknown policy %q (want one of %v)", name, PolicyNames())
}

// PolicyNames lists the available policies: baseline first, then the
// remaining built-ins and any registered extensions, sorted.
func PolicyNames() []string {
	names := []string{"idlegate", "buffersleep", "loaddvfs", "composite"}
	registryMu.RLock()
	for name := range registry {
		names = append(names, name)
	}
	registryMu.RUnlock()
	sort.Strings(names)
	return append([]string{"alwayson"}, names...)
}
