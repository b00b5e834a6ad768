package dpm

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"testing"

	"fabricpower/internal/core"
	"fabricpower/internal/packet"
)

// fuzzPorts are the port counts the differential target draws from:
// power-of-two Banyans with SRAM banks, and crossbars that end a mask
// word early, exactly, or one and two ports into the next word.
var fuzzPorts = []int{2, 8, 63, 64, 65, 130}

// fuzzPolicy builds one of the five built-in policies.
func fuzzPolicy(kind uint8) Policy {
	switch kind % 5 {
	case 0:
		return AlwaysOn{}
	case 1:
		return &IdleGate{}
	case 2:
		return &BufferSleep{}
	case 3:
		return &LoadDVFS{}
	default:
		return &Composite{}
	}
}

// refLedger is the static accounting every port re-summed every slot,
// the way the manager charged it before it cached its static draw.
type refLedger struct {
	staticFJ, alwaysOnFJ float64
	gatedPortSlots       uint64
}

func (r *refLedger) account(m *Manager) {
	n := m.cfg.Ports
	var mw float64
	gated := 0
	for p := 0; p < n; p++ {
		switch m.portState[p] {
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
	r.gatedPortSlots += uint64(gated)
	r.staticFJ += mwFJ(mw*m.staticScale[m.level], m.slotNS)
	r.alwaysOnFJ += mwFJ(float64(n)*m.portIdleMW+m.bufMW, m.slotNS)
}

// refPolicy builds the reference for fuzzPolicy(kind): the same
// policy with IdleGate and BufferSleep counting idle slots in saturating
// counters, the plain reading of their timeouts, and with an idle
// horizon of 0, so its manager runs it every slot.
func refPolicy(kind uint8) Policy {
	switch kind % 5 {
	case 1:
		return &refIdleGate{}
	case 2:
		return &refBufferSleep{}
	case 4:
		return &refComposite{}
	}
	return noHorizon{fuzzPolicy(kind)}
}

// noHorizon reports an idle horizon of 0 in place of a policy's own and
// forwards its DVFS ladder, or the full-speed level of a policy with
// none.
type noHorizon struct{ Policy }

func (noHorizon) IdleHorizon() uint64 { return 0 }

func (p noHorizon) DVFSLevels() []DVFSLevel {
	if l, ok := p.Policy.(interface{ DVFSLevels() []DVFSLevel }); ok {
		return l.DVFSLevels()
	}
	return dvfsLadder[:1:1]
}

type refIdleGate struct{ idle []int }

func (g *refIdleGate) Name() string        { return "idlegate" }
func (g *refIdleGate) Reset(ports int)     { g.idle = make([]int, ports) }
func (g *refIdleGate) IdleHorizon() uint64 { return 0 }
func (g *refIdleGate) Decide(obs *Observation, dec *Decision) {
	for p := range g.idle {
		if obs.QueueLen[p] > 0 || obs.PortActive[p] {
			g.idle[p] = 0
			continue
		}
		g.idle[p] = min(g.idle[p]+1, idleGateTimeout)
		dec.GatePort[p] = g.idle[p] >= idleGateTimeout
	}
}

type refBufferSleep struct{ empty int }

func (b *refBufferSleep) Name() string        { return "buffersleep" }
func (b *refBufferSleep) Reset(int)           { b.empty = 0 }
func (b *refBufferSleep) IdleHorizon() uint64 { return 0 }
func (b *refBufferSleep) Decide(obs *Observation, dec *Decision) {
	if obs.BufferedCells > 0 {
		b.empty = 0
		return
	}
	b.empty = min(b.empty+1, bufferDrainSlots)
	dec.BufferSleep = b.empty >= bufferDrainSlots
}

type refComposite struct {
	gate refIdleGate
	buf  refBufferSleep
	dvfs LoadDVFS
}

func (c *refComposite) Name() string { return "composite" }
func (c *refComposite) Reset(ports int) {
	c.gate.Reset(ports)
	c.buf.Reset(ports)
	c.dvfs.Reset(ports)
}
func (c *refComposite) Decide(obs *Observation, dec *Decision) {
	c.gate.Decide(obs, dec)
	c.buf.Decide(obs, dec)
	c.dvfs.Decide(obs, dec)
}
func (c *refComposite) DVFSLevels() []DVFSLevel { return dvfsLadder }
func (c *refComposite) IdleHorizon() uint64     { return 0 }

// checkTwin asserts that the twin manager, which replays each idle
// stretch with IdleSlots and skips Decide within its policy's horizons,
// matches the per-slot manager m bit for bit: ledgers, load EWMA, power
// states and the published mask.
func checkTwin(t *testing.T, m, twin *Manager, slot uint64, when string) {
	t.Helper()
	if m.Report() != twin.Report() || math.Float64bits(m.ewmaLoad) != math.Float64bits(twin.ewmaLoad) ||
		m.level != twin.level || m.bufDrowsy != twin.bufDrowsy || !slices.Equal(m.portState, twin.portState) ||
		!slices.Equal(m.OpenPorts(slot), twin.OpenPorts(slot)) {
		t.Fatalf("%s: IdleSlots twin diverged:\nper-slot %+v ewma %v ports %v\nIdleSlots %+v ewma %v ports %v", when,
			m.Report(), m.ewmaLoad, m.portState, twin.Report(), twin.ewmaLoad, twin.portState)
	}
}

// checkMask asserts that the published mask is the per-port predicate
// the gate answered before masks: open exactly when DVFS is not
// stalling and the port's domain is active, with no bit past the last
// port.
func checkMask(t *testing.T, m *Manager, slot uint64, when string) {
	t.Helper()
	mask := m.OpenPorts(slot)
	n := m.cfg.Ports
	if len(mask) != (n+63)/64 {
		t.Fatalf("%s: mask has %d words for %d ports", when, len(mask), n)
	}
	for p := 0; p < len(mask)*64; p++ {
		got := mask[p>>6]>>(p&63)&1 == 1
		want := p < n && !m.stalled && m.portState[p] == portActive
		if got != want {
			t.Fatalf("%s: port %d open = %v, per-port predicate %v", when, p, got, want)
		}
	}
}

// checkLedger compares the static ledgers with the re-summing reference
// exactly: the cache must reproduce every rounded sum.
func checkLedger(t *testing.T, m *Manager, ref *refLedger, when string) {
	t.Helper()
	rep := m.Report()
	if rep.StaticFJ != ref.staticFJ || rep.AlwaysOnStaticFJ != ref.alwaysOnFJ || rep.GatedPortSlots != ref.gatedPortSlots {
		t.Fatalf("%s: ledger static %v always-on %v gated %d, reference %v %v %d", when,
			rep.StaticFJ, rep.AlwaysOnStaticFJ, rep.GatedPortSlots, ref.staticFJ, ref.alwaysOnFJ, ref.gatedPortSlots)
	}
}

// runManagerProgram decodes prog into a slot program and runs it on a
// manager, checking the mask and the static ledgers against their
// per-port references after every slot. Each op byte is either an idle
// stretch of 1–16 (or, with bit 5 set, 8–128) IdleSlot calls, a
// measurement restart, or one busy slot:
// queue churn on a few ports, a buffered-cell count, PreSlot, egress
// deliveries (biased toward gated and waking ports), and PostSlot.
// Bit 0 of wake selects WakeupSlots 3 over 0. The manager runs the reference policy (refPolicy) every slot;
// a twin manager runs the same program with the built-in policy and its
// idle horizons, replaying each idle
// stretch — from its first slot, which still carries the busy slot's
// PortActive flags, across any gate and drowsy transitions — with
// IdleSlots up to a third of the way in and the rest with IdleSlots or,
// with bit 4 set, slot by slot with IdleSlot; it must match the
// per-slot manager bit for bit after every op.
func runManagerProgram(t *testing.T, policy, wake, ports uint8, prog []byte) {
	n := fuzzPorts[int(ports)%len(fuzzPorts)]
	arch := core.Crossbar
	if n&(n-1) == 0 {
		arch = core.Banyan
	}
	model := core.PaperModel()
	model.Static = core.DefaultStaticPower()
	model.Static.WakeupSlots = 0
	if wake&1 == 1 {
		model.Static.WakeupSlots = 3
	}
	m, err := New(Config{Arch: arch, Ports: n, Model: model, CellBits: 256, Policy: refPolicy(policy)})
	if err != nil {
		t.Fatal(err)
	}
	twin, err := New(Config{Arch: arch, Ports: n, Model: model, CellBits: 256, Policy: fuzzPolicy(policy)})
	if err != nil {
		t.Fatal(err)
	}
	pos := 0
	next := func() byte {
		if pos >= len(prog) {
			return 0
		}
		pos++
		return prog[pos-1]
	}
	src := &sliceSource{q: make([]int, n)}
	var ref refLedger
	var dyn core.Breakdown
	cells := make([]packet.Cell, 4)
	delivered := make([]*packet.Cell, 0, len(cells))
	var notActive []int
	slot := uint64(0)
	for pos < len(prog) && slot < 4000 {
		switch op := next(); {
		case op == 0xff:
			m.BeginMeasurement()
			twin.BeginMeasurement()
			ref = refLedger{}
		case op < 0x40:
			clear(src.q)
			src.buf = 0
			k := uint64(op&15) + 1
			if op&0x20 != 0 {
				k *= 8 // long enough for IdleSlots to cross a 64-slot count
			}
			twin.IdleSlots(slot, k/3)
			if op&0x10 != 0 {
				for i := k / 3; i < k; i++ {
					twin.IdleSlot(slot + i)
				}
			} else {
				twin.IdleSlots(slot+k/3, k-k/3)
			}
			for end := slot + k; slot < end; slot++ {
				m.IdleSlot(slot)
				ref.account(m)
				when := fmt.Sprintf("idle slot %d", slot)
				checkMask(t, m, slot, when)
				checkLedger(t, m, &ref, when)
			}
			checkTwin(t, m, twin, slot, fmt.Sprintf("idle stretch ending at slot %d", slot))
		default:
			for k := op & 7; k > 0; k-- {
				src.q[int(next())%n] = int(next() % 4)
			}
			if op&8 != 0 {
				src.buf = int(next() % 5)
			}
			m.PreSlot(slot, src)
			twin.PreSlot(slot, src)
			checkMask(t, m, slot, fmt.Sprintf("slot %d after PreSlot", slot))

			notActive = notActive[:0]
			for p, st := range m.portState {
				if st != portActive {
					notActive = append(notActive, p)
				}
			}
			delivered = delivered[:0]
			for k := int(next() % 5); k > 0; k-- {
				c := &cells[len(delivered)%len(cells)]
				if b := next(); b&1 == 1 && len(notActive) > 0 {
					c.Dest = notActive[int(b>>1)%len(notActive)]
				} else {
					c.Dest = (int(b)<<8 | int(next())) % (n + 1) // n is off the fabric
				}
				delivered = append(delivered, c)
			}
			dyn.SwitchFJ += float64(next())
			m.PostSlot(slot, delivered, dyn)
			twin.PostSlot(slot, delivered, dyn)
			ref.account(m)
			when := fmt.Sprintf("slot %d after PostSlot", slot)
			checkMask(t, m, slot, when)
			checkLedger(t, m, &ref, when)
			checkTwin(t, m, twin, slot, when)
			slot++
		}
	}
}

// sliceSource is a Source over plain slices.
type sliceSource struct {
	q   []int
	buf int
}

func (s *sliceSource) QueueLens() []int   { return s.q }
func (s *sliceSource) BufferedCells() int { return s.buf }

// FuzzManagerMatchesPerPortReference is the differential check of the
// manager's incremental bookkeeping: over random slot programs, for
// every built-in policy, wakeup latencies 0 and 3 and port counts on
// both sides of mask-word boundaries, the open-port mask must equal the
// per-port gate predicate, the cached static draw must charge exactly
// what re-summing every port every slot charges, and IdleSlots(slot, k)
// within the policy's idle horizons must leave the manager exactly as k
// IdleSlot calls that run the policy every slot do.
func FuzzManagerMatchesPerPortReference(f *testing.F) {
	// Each program runs as generated and, in a second pass, after a
	// 128-slot idle stretch that replays horizons from the policy's
	// initial state.
	for _, prefix := range [][]byte{nil, {0x2f}} {
		for policy := uint8(0); policy < 5; policy++ {
			for ports := uint8(0); ports < uint8(len(fuzzPorts)); ports++ {
				for wake := uint8(0); wake < 2; wake++ {
					prog := make([]byte, 600)
					x := uint64(policy)<<16 | uint64(ports)<<8 | uint64(wake)
					for i := range prog {
						x = bits.RotateLeft64(x*0x9e3779b97f4a7c15+0xbf58476d1ce4e5b9, 17)
						prog[i] = byte(x >> 56)
					}
					f.Add(policy, wake|ports<<1, ports, append(prefix, prog...))
				}
			}
		}
	}
	f.Fuzz(func(t *testing.T, policy, wake, ports uint8, prog []byte) {
		runManagerProgram(t, policy, wake, ports, prog)
	})
}
