package dpm

import (
	"fmt"
)

// Observation is the per-slot activity snapshot a policy decides from.
// The manager owns and reuses one instance across slots (the slot loop
// is allocation-free); policies must not retain it.
type Observation struct {
	// Slot is the current slot number.
	Slot uint64
	// Tick counts the slots the manager advanced before this one (Slot
	// less any it was not driven, as a failed router is not), including
	// idle slots it replayed without calling Decide.
	Tick uint64
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
	// IdleHorizon, asked right after a Decide, reports for how many
	// following all-idle slots (zero queues, flags and buffers; Load
	// arbitrary) Decide would fill the same decision and change no
	// state a later Decide reads: 0 means the next slot may differ,
	// Unbounded never. The manager skips Decide on those slots, so a
	// policy that counts idle slots or follows Load answers 0 and runs
	// every slot.
	IdleHorizon() uint64
}

// Unbounded is the idle horizon of a policy at its fixpoint: no run of
// idle slots changes its decision.
const Unbounded = ^uint64(0)

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

// IdleHorizon implements Policy: stateless, so always at the
// fixpoint.
func (AlwaysOn) IdleHorizon() uint64 { return Unbounded }

// idleGateTimeout is the idle streak, in slots, after which IdleGate
// gates a port.
const idleGateTimeout = 8

// IdleGate clock-gates a port's switch/wire domain after the port has
// been idle — empty ingress queue and no egress delivery — for 8
// consecutive slots (idleGateTimeout). Pending work reopens the gate at
// the cost of the model's wakeup latency, which queued cells pay as
// extra measured latency.
type IdleGate struct {
	// gateAt[p] is the first tick port p asks to be gated: its last
	// busy tick plus idleGateTimeout, which an idle Decide leaves alone.
	gateAt []uint64
	now    uint64 // the tick last decided
}

// Name implements Policy.
func (g *IdleGate) Name() string { return "idlegate" }

// Reset implements Policy.
func (g *IdleGate) Reset(ports int) {
	g.gateAt = make([]uint64, ports)
	for p := range g.gateAt {
		g.gateAt[p] = idleGateTimeout - 1 // as if busy at tick −1
	}
}

// Decide implements Policy.
func (g *IdleGate) Decide(obs *Observation, dec *Decision) {
	// Re-sliced to one length up front, so the loop indexes without
	// bounds checks.
	n := obs.Ports
	queue, active, gateAt, gate := obs.QueueLen[:n], obs.PortActive[:n], g.gateAt[:n], dec.GatePort[:n]
	tick := obs.Tick
	for p := range gateAt {
		if queue[p] > 0 || active[p] {
			gateAt[p] = tick + idleGateTimeout
			continue
		}
		gate[p] = tick >= gateAt[p]
	}
	g.now = tick
}

// IdleHorizon implements Policy: the idle slots before the next
// port still open reaches its gateAt, Unbounded once every port asks to
// be gated.
func (g *IdleGate) IdleHorizon() uint64 {
	h := Unbounded
	for _, at := range g.gateAt {
		if at > g.now {
			h = min(h, at-g.now-1)
		}
	}
	return h
}

// bufferDrainSlots is the empty streak, in slots, after which
// BufferSleep puts the SRAM banks to sleep.
const bufferDrainSlots = 4

// BufferSleep puts the fabric's SRAM banks into the drowsy
// (retention-voltage) state once they have drained: zero buffered cells
// for 4 consecutive slots (bufferDrainSlots). A buffering event while
// drowsy wakes the banks — the manager charges the transition energy;
// the write itself proceeds at full speed (drowsy wakeup is sub-slot).
// Only the Banyan has internal buffers; on bufferless fabrics the
// policy is a no-op.
type BufferSleep struct {
	// sleepAt is the first tick the banks ask to sleep, stamped like
	// IdleGate's gateAt.
	sleepAt, now uint64
}

// Name implements Policy.
func (b *BufferSleep) Name() string { return "buffersleep" }

// Reset implements Policy.
func (b *BufferSleep) Reset(int) {
	b.sleepAt = bufferDrainSlots - 1
}

// Decide implements Policy.
func (b *BufferSleep) Decide(obs *Observation, dec *Decision) {
	b.now = obs.Tick
	if obs.BufferedCells > 0 {
		b.sleepAt = obs.Tick + bufferDrainSlots
		return
	}
	dec.BufferSleep = obs.Tick >= b.sleepAt
}

// IdleHorizon implements Policy: the rest of the drain streak.
func (b *BufferSleep) IdleHorizon() uint64 {
	if b.sleepAt <= b.now {
		return Unbounded
	}
	return b.sleepAt - b.now - 1
}

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

// dvfsLadder is LoadDVFS's operating ladder, fastest first: full
// speed, a 0.75× mid point and a 0.5× low point with correspondingly
// scaled rails. Every speed and voltage scale lies in (0,1]. The
// manager only reads it.
var dvfsLadder = []DVFSLevel{
	{Name: "full", Speed: 1.00, VScale: 1.00},
	{Name: "mid", Speed: 0.75, VScale: 0.85},
	{Name: "low", Speed: 0.50, VScale: 0.70},
}

const (
	// dvfsHoldSlots is the evidence, in slots, LoadDVFS requires
	// before slowing down.
	dvfsHoldSlots = 64
	// dvfsHeadroom is the load fraction of a level's speed above which
	// the level is too slow: level l serves ewma-load up to
	// dvfsHeadroom·Speed(l).
	dvfsHeadroom = 0.7
)

// LoadDVFS tracks delivered load and walks the DVFS ladder: it drops to
// a slower/lower-voltage level only after the load has justified it for
// 64 consecutive slots (one level per step), and jumps straight back to
// the speed the load demands when traffic returns or queues build. A
// level serves load up to 0.7 of its speed. Every level change pays the
// manager's transition freeze, so the hysteresis is what keeps the
// policy from thrashing.
type LoadDVFS struct {
	level int
	hold  int
}

// Name implements Policy.
func (d *LoadDVFS) Name() string { return "loaddvfs" }

// Reset implements Policy.
func (d *LoadDVFS) Reset(int) {
	d.level = 0
	d.hold = 0
}

// DVFSLevels exposes the ladder to the manager.
func (d *LoadDVFS) DVFSLevels() []DVFSLevel { return dvfsLadder }

// IdleHorizon implements Policy: 0, as idle slots count toward the
// hold.
func (d *LoadDVFS) IdleHorizon() uint64 { return 0 }

// Decide implements Policy.
func (d *LoadDVFS) Decide(obs *Observation, dec *Decision) {
	// The slowest level whose speed still covers the load with headroom.
	target := 0
	if obs.Backlog <= obs.Ports {
		for i := len(dvfsLadder) - 1; i > 0; i-- {
			if obs.Load <= dvfsHeadroom*dvfsLadder[i].Speed {
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
		if d.hold >= dvfsHoldSlots {
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

// IdleHorizon implements Policy: the nearest of its parts'.
func (c *Composite) IdleHorizon() uint64 {
	return min(c.Gate.IdleHorizon(), c.Buffer.IdleHorizon(), c.DVFS.IdleHorizon())
}

// DVFSLevels exposes the inner ladder to the manager.
func (c *Composite) DVFSLevels() []DVFSLevel { return dvfsLadder }

// builtinPolicy maps a built-in name to a fresh policy.
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

// NewPolicy builds a built-in policy from its name.
func NewPolicy(name string) (Policy, error) {
	if p, ok := builtinPolicy(name); ok {
		return p, nil
	}
	return nil, fmt.Errorf("dpm: unknown policy %q (want one of %v)", name, PolicyNames())
}

// PolicyNames lists the built-in policies: baseline first, then the
// rest sorted.
func PolicyNames() []string {
	return []string{"alwayson", "buffersleep", "composite", "idlegate", "loaddvfs"}
}
