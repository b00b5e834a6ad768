// Package dpm is the dynamic power-management subsystem: a policy layer
// that observes per-slot switch-fabric activity and drives component
// power states — clock-gated port domains, drowsy SRAM banks and
// frequency/voltage scaling — over the static-power extension of the
// bit-energy model (core.StaticPower, core.Inventory).
//
// The DAC 2002 framework charges only dynamic bit energy, so the fabric
// is implicitly always-on and no power-saving technique can be studied.
// This package closes that gap, following the direction of the
// equipment-level gating/sleep surveys (Ceuppens et al.) and the
// switch-off routing results (Giroire et al.): an always-on baseline now
// pays idle power every slot, and policies trade static savings against
// transition energy and wakeup latency.
//
// The Manager mediates between a Policy and the simulation:
//
//   - Each slot it snapshots activity (ingress queue occupancy from the
//     router, internal buffer occupancy from the fabric, last slot's
//     egress deliveries), lets the policy decide desired states, and
//     runs the state machines: gating is immediate, ungating pays the
//     configured wakeup latency, DVFS level changes pay a transition
//     freeze. Gated and frozen ingress ports refuse admission: the
//     manager publishes an open-port bitset (router.PortGate), kept up
//     to date on every power-state change, so power-state latency feeds
//     back into measured cell latency.
//   - It keeps the energy ledgers: static energy actually drawn (by
//     state and voltage; the per-port sum is cached and recomputed only
//     when the gated set or the SRAM state changes), the always-on
//     static reference, transition energy, and the DVFS adjustment to
//     dynamic energy (V² scaling of each slot's dynamic delta).
//
// The per-slot path is allocation-free: observation, decision and state
// vectors are sized at construction and reused, preserving the
// simulator's 0 allocs/slot hot-path invariant.
package dpm

import (
	"fmt"

	"fabricpower/internal/core"
	"fabricpower/internal/packet"
)

// Source is the per-slot observation surface the manager reads, met by
// *router.Router.
type Source interface {
	// QueueLens returns the ingress occupancy of every port, indexed by
	// port. It is a read-only view: the manager copies it into the
	// policy's observation and neither writes nor retains it.
	QueueLens() []int
	// BufferedCells returns the cells parked in fabric-internal SRAM.
	BufferedCells() int
}

// Config assembles a manager for one simulated fabric.
type Config struct {
	// Arch and Ports identify the fabric (for the component inventory).
	Arch  core.Architecture
	Ports int
	// Model supplies the static-power parameters (Model.Static), the
	// component inventory and the technology point.
	Model core.Model
	// CellBits fixes the slot duration (power denominators).
	CellBits int
	// Policy decides power states each slot.
	Policy Policy
}

// Report is the manager's energy ledger and event counters over the
// measured window, reset by BeginMeasurement.
type Report struct {
	// Policy names the deciding policy.
	Policy string `json:"policy"`
	// Slots counts accounted slots.
	Slots uint64 `json:"slots"`
	// StaticFJ is the static energy actually drawn, after gating, sleep
	// and voltage scaling.
	StaticFJ float64 `json:"staticFJ"`
	// AlwaysOnStaticFJ is the reference: what an unmanaged fabric would
	// have drawn over the same slots.
	AlwaysOnStaticFJ float64 `json:"alwaysOnStaticFJ"`
	// TransitionFJ is the energy spent on power-state transitions.
	TransitionFJ float64 `json:"transitionFJ"`
	// DynamicAdjustFJ is the DVFS correction to the fabric's dynamic
	// energy ledger: each slot's dynamic delta is scaled by the level's
	// V², so it is ≤ 0 (savings). Manager.DynamicAdjust breaks it down
	// per component.
	DynamicAdjustFJ float64 `json:"dynamicAdjustFJ"`
	// Transitions, WakeEvents and DVFSShifts count state changes.
	Transitions uint64 `json:"transitions"`
	WakeEvents  uint64 `json:"wakeEvents"`
	DVFSShifts  uint64 `json:"dvfsShifts"`
	// GatedPortSlots counts port-slots spent clock-gated; DrowsySlots
	// counts slots the SRAM spent drowsy; StalledSlots counts slots
	// DVFS throttling or transition freezes blocked admission.
	GatedPortSlots uint64 `json:"gatedPortSlots"`
	DrowsySlots    uint64 `json:"drowsySlots"`
	StalledSlots   uint64 `json:"stalledSlots"`
}

// SavedFJ is the net energy the policy saved against the always-on
// baseline: forgone static power minus transition cost plus DVFS
// dynamic savings. AlwaysOn reports zero.
func (r Report) SavedFJ() float64 {
	return r.AlwaysOnStaticFJ - r.StaticFJ - r.TransitionFJ - r.DynamicAdjustFJ
}

// Port power-domain states.
const (
	portActive = iota
	portGated
	portWaking
)

// Manager runs a Policy over a simulated fabric: it implements
// router.PortGate for admission control and is driven via
// PreSlot/PostSlot by internal/sim for a single router and by
// internal/netsim for every router of a network.
//
// Every write to portState goes through setState, which keeps the
// open-port mask and the static-draw cache in step, so a slot's cost
// tracks power-state changes rather than the port count.
type Manager struct {
	cfg    Config
	static core.StaticPower
	inv    core.Inventory
	slotNS float64

	// Per-port power domain: the port's 1/N share of switches and wire
	// drivers gates as one unit. open has bit p set exactly when
	// portState[p] is portActive; closed is the all-zero mask published
	// on stalled slots.
	portState      []int
	wakeCnt        []int
	open, closed   []uint64
	portIdleMW     float64 // full idle power of one port domain
	portComponents float64 // transition-energy multiplier per domain

	// Static-draw cache: staticMW is accountSlot's unscaled port and
	// SRAM sum and gated its gated-port count, both valid while
	// staticDirty is false. The sum depends only on the gated set and
	// bufDrowsy, so only those changes dirty it. alwaysOnFJ is the
	// per-slot always-on reference.
	staticMW    float64
	gated       int
	staticDirty bool
	alwaysOnFJ  float64

	// Fabric-wide SRAM domain.
	bufMW     float64
	bufDrowsy bool

	// DVFS: ladder, per-level energy scale factors, duty-cycle
	// accumulator and transition freeze.
	levels      []DVFSLevel
	dynScale    []float64
	staticScale []float64
	level       int
	freeze      int
	acc         float64
	stalled     bool

	obs      Observation
	dec      Decision
	ewmaLoad float64
	lastDyn  core.Breakdown
	rep      Report
	// dynAdjust is the DVFS correction per component, kept apart from
	// rep so Snapshot can fold it into the fabric's energy breakdown.
	dynAdjust core.Breakdown

	// Idle horizon: every slot before steadyEnd is idle and motionless
	// — the policy would decide what it last decided (IdleHorizon) and
	// no state machine would move — so IdleSlot and IdleSlots replay it
	// in O(1) without running the policy or walking the ports. Set after
	// each per-slot IdleSlot; zeroed by PreSlot, since a busy
	// observation may move the policy.
	steadyEnd uint64
}

// New builds a manager. The model's static parameters may be zero, in
// which case every ledger stays at zero and an AlwaysOn manager is
// observationally identical to running without one.
func New(cfg Config) (*Manager, error) {
	if cfg.Policy == nil {
		return nil, fmt.Errorf("dpm: policy is required")
	}
	if cfg.Ports < 2 {
		return nil, fmt.Errorf("dpm: ports must be >= 2, got %d", cfg.Ports)
	}
	if cfg.CellBits <= 0 {
		return nil, fmt.Errorf("dpm: cell bits must be positive, got %d", cfg.CellBits)
	}
	if err := cfg.Model.Static.Validate(); err != nil {
		return nil, err
	}
	inv, err := cfg.Model.Inventory(cfg.Arch, cfg.Ports)
	if err != nil {
		return nil, err
	}
	s := cfg.Model.Static
	n, w := cfg.Ports, (cfg.Ports+63)/64
	// The per-port vectors come from one slab per element type.
	ints := make([]int, 3*n)
	masks := make([]uint64, 2*w)
	flags := make([]bool, 2*n)
	m := &Manager{
		cfg:            cfg,
		static:         s,
		inv:            inv,
		slotNS:         cfg.Model.Tech.CellTimeNS(cfg.CellBits),
		portState:      ints[:n:n],
		wakeCnt:        ints[n : 2*n : 2*n],
		open:           masks[:w:w],
		closed:         masks[w:],
		portIdleMW:     (float64(inv.SwitchNodes)*s.SwitchIdleMW + float64(inv.WireDrivers)*s.WireIdleMW) / float64(n),
		portComponents: float64(inv.SwitchNodes+inv.WireDrivers) / float64(n),
		bufMW:          float64(inv.BufferBanks) * float64(inv.BufferBitsPerBank) / 1024 * s.BufferIdleMWPerKbit,
		staticDirty:    true,
	}
	for p := 0; p < n; p++ {
		m.open[p>>6] |= 1 << (p & 63) // every port starts active
	}
	m.alwaysOnFJ = mwFJ(float64(n)*m.portIdleMW+m.bufMW, m.slotNS)
	cfg.Policy.Reset(n)
	m.obs = Observation{
		Ports:      n,
		QueueLen:   ints[2*n:],
		PortActive: flags[:n:n],
	}
	m.dec = Decision{GatePort: flags[n:]}

	m.levels = dvfsLadder[:1:1] // full speed only
	if p, ok := cfg.Policy.(interface{ DVFSLevels() []DVFSLevel }); ok {
		m.levels = p.DVFSLevels()
	}
	k := len(m.levels)
	scale := make([]float64, 2*k)
	m.staticScale, m.dynScale = scale[:k:k], scale[k:]
	vdd := cfg.Model.Tech.VDD
	for i, lv := range m.levels {
		// The level's supply relative to the base technology's, in the
		// float operations tech.Params.Scaled performs.
		v := vdd * lv.VScale / vdd
		m.staticScale[i] = v  // leakage ∝ V (first order)
		m.dynScale[i] = v * v // switching energy ∝ V²
	}
	m.rep.Policy = cfg.Policy.Name()
	return m, nil
}

// Policy returns the deciding policy's name.
func (m *Manager) Policy() string { return m.rep.Policy }

// OpenPorts implements router.PortGate: a port admits cells only when
// its domain is fully active and DVFS is neither throttling this slot
// nor frozen in a level transition. The mask is the manager's own,
// updated in place on every power-state change.
func (m *Manager) OpenPorts(slot uint64) []uint64 {
	if m.stalled {
		return m.closed
	}
	return m.open
}

// setState moves port p's domain to state s, keeping the open mask and
// the static-draw cache in step with portState.
func (m *Manager) setState(p, s int) {
	if (m.portState[p] == portGated) != (s == portGated) {
		m.staticDirty = true
	}
	m.portState[p] = s
	if s == portActive {
		m.open[p>>6] |= 1 << (p & 63)
	} else {
		m.open[p>>6] &^= 1 << (p & 63)
	}
}

// transition charges one power-state change across components instances.
func (m *Manager) transition(components float64) {
	m.rep.Transitions++
	m.rep.TransitionFJ += m.static.TransitionFJ * components
}

// PreSlot observes the slot's starting state, runs the policy, and
// advances the power-state machines. Call after traffic injection and
// before Router.Step.
func (m *Manager) PreSlot(slot uint64, src Source) {
	// A busy slot can move the policy and the state machines; the
	// horizon must be re-read on the next idle slot.
	m.steadyEnd = 0
	m.obs.Slot = slot
	copy(m.obs.QueueLen, src.QueueLens())
	backlog := 0
	for _, l := range m.obs.QueueLen {
		backlog += l
	}
	m.obs.Backlog = backlog
	m.obs.BufferedCells = src.BufferedCells()
	m.decideAndAdvance()
}

// decideAndAdvance is PreSlot's tail, shared with IdleSlot: run the
// policy over the filled observation, then advance the port, buffer and
// DVFS state machines. It counts the ports it leaves in another state
// than the policy asked for (waking, or woken while the request turned
// to gating), which IdleSlot's horizon needs.
func (m *Manager) decideAndAdvance() (unsettled int) {
	m.obs.Load = m.ewmaLoad

	clear(m.dec.GatePort)
	m.dec.BufferSleep = false
	m.dec.DVFSLevel = 0
	m.cfg.Policy.Decide(&m.obs, &m.dec)
	m.obs.Tick++
	clear(m.obs.PortActive) // consumed; PostSlot refills

	gate := m.dec.GatePort[:len(m.portState)]
	for p, st := range m.portState {
		// Settled: active and not asked to gate, or gated and asked
		// to stay gated. A waking port never matches and always ticks.
		want := portActive
		if gate[p] {
			want = portGated
		}
		if st == want {
			continue
		}
		switch st {
		case portActive:
			m.setState(p, portGated)
			m.transition(m.portComponents)
		case portGated:
			m.rep.WakeEvents++
			m.transition(m.portComponents)
			if m.static.WakeupSlots == 0 {
				m.setState(p, portActive)
			} else {
				m.setState(p, portWaking)
				m.wakeCnt[p] = m.static.WakeupSlots
			}
		case portWaking:
			if m.wakeCnt[p]--; m.wakeCnt[p] <= 0 {
				m.setState(p, portActive)
			}
		}
		if m.portState[p] != want {
			unsettled++
		}
	}

	if m.inv.BufferBanks > 0 && m.dec.BufferSleep != m.bufDrowsy {
		m.bufDrowsy = m.dec.BufferSleep
		m.staticDirty = true
		m.transition(float64(m.inv.BufferBanks))
	}

	lv := m.dec.DVFSLevel
	if lv < 0 {
		lv = 0
	}
	if lv >= len(m.levels) {
		lv = len(m.levels) - 1
	}
	if m.freeze > 0 {
		// Level transition in progress (PLL relock): admission frozen.
		m.freeze--
		m.stalled = true
	} else {
		if lv != m.level {
			m.level = lv
			m.rep.DVFSShifts++
			m.transition(float64(m.inv.Components()))
			m.freeze = m.static.WakeupSlots
		}
		if m.freeze > 0 {
			m.stalled = true
		} else {
			// Duty-cycle accumulator: at Speed s, admission opens on a
			// fraction s of slots, deterministically.
			m.acc += m.levels[m.level].Speed
			if m.acc >= 1-1e-12 {
				m.acc -= 1
				m.stalled = false
			} else {
				m.stalled = true
			}
		}
	}
	if m.stalled {
		m.rep.StalledSlots++
	}
	return unsettled
}

// PostSlot accounts the slot: egress activity, the load EWMA, static
// and transition energy, and the DVFS dynamic adjustment. delivered is
// Router.Step's return; dyn is the fabric's cumulative dynamic energy.
func (m *Manager) PostSlot(slot uint64, delivered []*packet.Cell, dyn core.Breakdown) {
	n := m.cfg.Ports
	for _, c := range delivered {
		d := c.Dest
		if d < 0 || d >= n {
			continue
		}
		m.obs.PortActive[d] = true
		if m.portState[d] == portGated {
			// The multi-slot fabric pipeline gives egress drivers
			// advance notice of an arriving cell, so a gated egress
			// domain is awake by landing time: transition energy is
			// paid, but no extra latency. A domain already in
			// portWaking has paid its one transition — leave its
			// ingress-side countdown to finish undisturbed.
			m.setState(d, portActive)
			m.rep.WakeEvents++
			m.transition(m.portComponents)
		}
	}
	m.accountSlot(float64(len(delivered)) / float64(n))

	delta := dyn.Add(m.lastDyn.Scale(-1))
	m.lastDyn = dyn
	if ds := m.dynScale[m.level]; ds != 1 {
		m.dynAdjust = m.dynAdjust.Add(delta.Scale(ds - 1))
	}
	m.rep.Slots++
}

// accountSlot is PostSlot's energy tail, shared with IdleSlot: fold the
// slot's delivered-throughput sample into the load EWMA and charge the
// static ledgers for the current power states. The unscaled static sum
// is re-added port by port, in port order, only after the gated set or
// the SRAM state changed; otherwise the cached sum is the value that
// loop would produce.
func (m *Manager) accountSlot(inst float64) {
	m.ewmaLoad += (inst - m.ewmaLoad) / 32

	if m.staticDirty {
		var mw float64
		gated := 0
		for _, st := range m.portState {
			switch st {
			case portGated:
				mw += m.portIdleMW * m.static.GatedFraction
				gated++
			default:
				mw += m.portIdleMW
			}
		}
		if m.inv.BufferBanks > 0 {
			if m.bufDrowsy {
				mw += m.bufMW * m.static.SleepFraction
			} else {
				mw += m.bufMW
			}
		}
		m.staticMW, m.gated, m.staticDirty = mw, gated, false
	}
	if m.inv.BufferBanks > 0 && m.bufDrowsy {
		m.rep.DrowsySlots++
	}
	m.rep.GatedPortSlots += uint64(m.gated)
	m.rep.StaticFJ += mwFJ(m.staticMW*m.staticScale[m.level], m.slotNS)
	m.rep.AlwaysOnStaticFJ += m.alwaysOnFJ
}

// IdleSlot advances the manager one slot over a provably idle router:
// no queued cells, nothing inside the fabric, nothing delivered, and no
// dynamic energy charged since the last slot. It replays the exact
// PreSlot+PostSlot instruction stream for that case — the policy still
// decides (its own history advances), the port/buffer/DVFS state
// machines and wakeup countdowns still tick, the static ledgers still
// charge and the load EWMA still decays — while skipping only work that
// is identically zero: the observation calls (all queues are known
// empty; last slot's PortActive flags are preserved for the policy to
// consume) and the DVFS dynamic-energy delta (an idle fabric's
// cumulative dynamic energy is unchanged, so the delta is exactly zero
// and adding its ±0 components would leave the adjustment ledger
// bit-identical). Results are therefore bit-for-bit the same as the
// full path.
//
// Within the idle horizon read at the end of the last full IdleSlot
// (steadyEnd), the decision, port states and static power are
// constants, so a slot is one EWMA decay plus the same ledger
// additions.
func (m *Manager) IdleSlot(slot uint64) {
	if slot < m.steadyEnd {
		m.steady(1)
		return
	}
	m.obs.Slot = slot
	clear(m.obs.QueueLen)
	m.obs.Backlog = 0
	m.obs.BufferedCells = 0
	unsettled := m.decideAndAdvance()
	m.accountSlot(0)
	m.rep.Slots++

	// The following slots are motionless while the policy keeps its
	// decision, provided every state machine has settled on it: every
	// port in its requested state and a degenerate duty cycle — full
	// speed, no freeze or stall, with an accumulator the +Speed/-1
	// round trip reproduces exactly — so stalled and acc stay put.
	m.steadyEnd = 0
	if unsettled == 0 && !m.stalled {
		if speed := m.levels[m.level].Speed; speed == 1 && m.acc+speed-1 == m.acc {
			m.steadyEnd = slot + 1 + min(m.cfg.Policy.IdleHorizon(), Unbounded-slot-1)
		}
	}
}

// IdleHorizon reports the policy's idle horizon as of its last
// decision. A caller deciding whether to defer a router's idle slots to
// IdleSlots reads it after the router's slot: with a nonzero horizon
// most of the stretch replays in bulk.
func (m *Manager) IdleHorizon() uint64 { return m.cfg.Policy.IdleHorizon() }

// IdleSlots replays the k idle slots from slot on in one call, leaving
// the manager bit-identical to k IdleSlot calls. Slots inside the idle
// horizon replay in bulk; a slot that consumes PortActive flags or
// where the policy's decision changes (a gate or drowsy transition,
// charged at its own slot) runs the full IdleSlot, which reads the next
// horizon.
func (m *Manager) IdleSlots(slot, k uint64) {
	for end := slot + k; slot < end; {
		if slot >= m.steadyEnd {
			m.IdleSlot(slot)
			slot++
			continue
		}
		j := min(end, m.steadyEnd) - slot
		m.steady(j)
		slot += j
	}
}

// steady replays k motionless idle slots. The load EWMA and the two
// static ledgers are float sums, so they are still added slot by slot,
// in order, at the value accountSlot adds; the integer counters take k
// at once.
func (m *Manager) steady(k uint64) {
	staticFJ := mwFJ(m.staticMW*m.staticScale[m.level], m.slotNS)
	ewma, static, alwaysOn := m.ewmaLoad, m.rep.StaticFJ, m.rep.AlwaysOnStaticFJ
	for i := uint64(0); i < k; i++ {
		ewma += (0 - ewma) / 32
		static += staticFJ
		alwaysOn += m.alwaysOnFJ
	}
	m.ewmaLoad, m.rep.StaticFJ, m.rep.AlwaysOnStaticFJ = ewma, static, alwaysOn
	m.rep.GatedPortSlots += k * uint64(m.gated)
	if m.inv.BufferBanks > 0 && m.bufDrowsy {
		m.rep.DrowsySlots += k
	}
	m.rep.Slots += k
	m.obs.Tick += k
}

// BeginMeasurement zeroes the ledgers after warmup. Power-domain
// states, policy history and the load EWMA carry over — only the
// accounting restarts — mirroring Router.ResetMetrics and
// Fabric.ResetEnergy, whose energy reset lastDyn tracks.
func (m *Manager) BeginMeasurement() {
	m.rep = Report{Policy: m.rep.Policy}
	m.dynAdjust = core.Breakdown{}
	m.lastDyn = core.Breakdown{}
}

// Report returns a copy of the ledger.
func (m *Manager) Report() Report {
	rep := m.rep
	rep.DynamicAdjustFJ = m.dynAdjust.TotalFJ()
	return rep
}

// DynamicAdjust is the ledger's DVFS correction per component; its
// total is Report().DynamicAdjustFJ.
func (m *Manager) DynamicAdjust() core.Breakdown { return m.dynAdjust }

// mwFJ converts power (mW) over a duration (ns) to energy in fJ — the
// inverse of tech.PowerMW: 1 mW · 1 ns = 1000 fJ.
func mwFJ(mw, ns float64) float64 { return mw * ns * 1000 }
