package dpm_test

import (
	"math/rand"
	"testing"

	"fabricpower/internal/core"
	"fabricpower/internal/dpm"
	"fabricpower/internal/fabric"
	"fabricpower/internal/packet"
	"fabricpower/internal/router"
)

// fakeSource drives a manager without a router.
type fakeSource struct {
	q   []int
	buf int
}

func (f *fakeSource) QueueLens() []int   { return f.q }
func (f *fakeSource) BufferedCells() int { return f.buf }

// portOpen reads port p's bit of the manager's open-port mask.
func portOpen(m *dpm.Manager, p int, slot uint64) bool {
	return m.OpenPorts(slot)[p>>6]>>(p&63)&1 == 1
}

func testModel() core.Model {
	m := core.PaperModel()
	m.Static = core.DefaultStaticPower()
	return m
}

func newManager(t *testing.T, arch core.Architecture, ports int, model core.Model, pol dpm.Policy) *dpm.Manager {
	t.Helper()
	m, err := dpm.New(dpm.Config{Arch: arch, Ports: ports, Model: model, CellBits: 1024, Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewPolicyNames(t *testing.T) {
	for _, name := range dpm.PolicyNames() {
		p, err := dpm.NewPolicy(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name() != name {
			t.Errorf("policy %q reports name %q", name, p.Name())
		}
	}
	if _, err := dpm.NewPolicy("turboboost"); err == nil {
		t.Fatal("unknown policy should fail")
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	model := testModel()
	if _, err := dpm.New(dpm.Config{Arch: core.Banyan, Ports: 8, Model: model, CellBits: 1024}); err == nil {
		t.Error("nil policy should fail")
	}
	if _, err := dpm.New(dpm.Config{Arch: core.Banyan, Ports: 8, Model: model, Policy: dpm.AlwaysOn{}}); err == nil {
		t.Error("zero cell bits should fail")
	}
	bad := model
	bad.Static.SleepFraction = 7
	if _, err := dpm.New(dpm.Config{Arch: core.Banyan, Ports: 8, Model: bad, CellBits: 1024, Policy: dpm.AlwaysOn{}}); err == nil {
		t.Error("invalid static model should fail")
	}
	levels := &dpm.LoadDVFS{Levels: []dpm.DVFSLevel{{Speed: 2, VScale: 1}}}
	levels.Reset(8)
	if _, err := dpm.New(dpm.Config{Arch: core.Banyan, Ports: 8, Model: model, CellBits: 1024, Policy: levels}); err == nil {
		t.Error("out-of-range DVFS level should fail")
	}
}

// TestAlwaysOnZeroStaticIsFree pins the compatibility contract: with the
// paper's zero static model, an AlwaysOn manager charges nothing, never
// closes a port and reports zero savings.
func TestAlwaysOnZeroStaticIsFree(t *testing.T) {
	m := newManager(t, core.Banyan, 8, core.PaperModel(), dpm.AlwaysOn{})
	src := &fakeSource{q: make([]int, 8)}
	for slot := uint64(0); slot < 200; slot++ {
		src.q[int(slot)%8] = int(slot) % 3 // some queue churn
		m.PreSlot(slot, src)
		for p := 0; p < 8; p++ {
			if !portOpen(m, p, slot) {
				t.Fatalf("slot %d port %d: AlwaysOn must keep every port open", slot, p)
			}
		}
		m.PostSlot(slot, nil, core.Breakdown{})
	}
	rep := m.Report()
	if rep.StaticFJ != 0 || rep.AlwaysOnStaticFJ != 0 || rep.TransitionFJ != 0 ||
		rep.Transitions != 0 || rep.StalledSlots != 0 || rep.SavedFJ() != 0 {
		t.Fatalf("zero-static AlwaysOn ledger should be all-zero, got %+v", rep)
	}
}

// TestIdleGateWakeLatency walks the gate state machine: idle ports gate
// after the timeout, pending work reopens them only after WakeupSlots,
// and the ledger records the gated slots and transitions.
func TestIdleGateWakeLatency(t *testing.T) {
	model := testModel()
	model.Static.WakeupSlots = 3
	pol := &dpm.IdleGate{TimeoutSlots: 5}
	m := newManager(t, core.Crossbar, 4, model, pol)
	src := &fakeSource{q: make([]int, 4)}

	slot := uint64(0)
	step := func() {
		m.PreSlot(slot, src)
		m.PostSlot(slot, nil, core.Breakdown{})
		slot++
	}
	for i := 0; i < 20; i++ {
		step()
	}
	for p := 0; p < 4; p++ {
		if portOpen(m, p, slot) {
			t.Fatalf("port %d should be gated after 20 idle slots", p)
		}
	}
	rep := m.Report()
	if rep.GatedPortSlots == 0 || rep.Transitions == 0 {
		t.Fatalf("gating should be on the ledger, got %+v", rep)
	}

	// Work arrives at port 2: the gate must stay closed for exactly
	// WakeupSlots more PreSlots, then open.
	src.q[2] = 1
	wokeAt := -1
	for i := 0; i < 10; i++ {
		step()
		if portOpen(m, 2, slot) {
			wokeAt = i
			break
		}
	}
	if wokeAt != model.Static.WakeupSlots {
		t.Fatalf("port woke after %d slots, want %d", wokeAt, model.Static.WakeupSlots)
	}
	if got := m.Report().WakeEvents; got == 0 {
		t.Fatal("wake event should be counted")
	}
}

// TestEgressDeliveryWakesWithoutLatency: a cell landing on a gated
// egress domain wakes it via pipeline advance notice — transition
// energy, no waking state.
func TestEgressDeliveryWakesWithoutLatency(t *testing.T) {
	pol := &dpm.IdleGate{TimeoutSlots: 2}
	m := newManager(t, core.Crossbar, 4, testModel(), pol)
	src := &fakeSource{q: make([]int, 4)}
	for slot := uint64(0); slot < 10; slot++ {
		m.PreSlot(slot, src)
		m.PostSlot(slot, nil, core.Breakdown{})
	}
	if portOpen(m, 3, 10) {
		t.Fatal("port 3 should be gated")
	}
	m.PreSlot(10, src)
	m.PostSlot(10, []*packet.Cell{{Dest: 3}}, core.Breakdown{})
	// PortActive keeps the policy from re-gating on the next decision,
	// and the domain must already be active (no wake latency).
	m.PreSlot(11, src)
	if !portOpen(m, 3, 11) {
		t.Fatal("delivery must wake the egress domain without latency")
	}
}

// TestDeliveryToWakingPortChargesOnce: an egress delivery landing on a
// port already mid-wakeup must not book a second transition or cancel
// the remaining ingress wakeup latency — one gated→active journey is
// one wake event.
func TestDeliveryToWakingPortChargesOnce(t *testing.T) {
	model := testModel()
	model.Static.WakeupSlots = 3
	pol := &dpm.IdleGate{TimeoutSlots: 2}
	m := newManager(t, core.Crossbar, 4, model, pol)
	src := &fakeSource{q: make([]int, 4)}
	slot := uint64(0)
	for ; slot < 10; slot++ {
		m.PreSlot(slot, src)
		m.PostSlot(slot, nil, core.Breakdown{})
	}
	if portOpen(m, 2, slot) {
		t.Fatal("port 2 should be gated")
	}
	// Queued work starts the wake (the one chargeable transition)...
	src.q[2] = 1
	m.PreSlot(slot, src)
	wakes, transitions := m.Report().WakeEvents, m.Report().Transitions
	// ...and a delivery lands on the waking port in the same slot.
	m.PostSlot(slot, []*packet.Cell{{Dest: 2}}, core.Breakdown{})
	slot++
	rep := m.Report()
	if rep.WakeEvents != wakes || rep.Transitions != transitions {
		t.Fatalf("delivery to waking port double-charged: wakes %d→%d transitions %d→%d",
			wakes, rep.WakeEvents, transitions, rep.Transitions)
	}
	// The remaining ingress countdown must still run to completion.
	for i := 0; i < model.Static.WakeupSlots; i++ {
		if portOpen(m, 2, slot) {
			t.Fatalf("delivery cancelled the wakeup latency (%d slots early)", model.Static.WakeupSlots-i)
		}
		m.PreSlot(slot, src)
		m.PostSlot(slot, nil, core.Breakdown{})
		slot++
	}
	if !portOpen(m, 2, slot) {
		t.Fatal("wakeup countdown should have completed")
	}
}

// TestBufferSleepLedger: with empty node buffers the SRAM goes drowsy
// and static energy lands below the always-on reference.
func TestBufferSleepLedger(t *testing.T) {
	m := newManager(t, core.Banyan, 8, testModel(), &dpm.BufferSleep{DrainSlots: 3})
	src := &fakeSource{q: make([]int, 8)}
	for slot := uint64(0); slot < 50; slot++ {
		m.PreSlot(slot, src)
		m.PostSlot(slot, nil, core.Breakdown{})
	}
	rep := m.Report()
	if rep.DrowsySlots == 0 {
		t.Fatal("drained buffers should sleep")
	}
	if rep.StaticFJ >= rep.AlwaysOnStaticFJ {
		t.Fatalf("drowsy static %.1f fJ should undercut always-on %.1f fJ",
			rep.StaticFJ, rep.AlwaysOnStaticFJ)
	}
	if rep.SavedFJ() <= 0 {
		t.Fatalf("net saving should be positive, got %.1f fJ", rep.SavedFJ())
	}
}

// TestLoadDVFSThrottles: at zero load the ladder descends to its slowest
// level and the duty-cycle accumulator stalls admission deterministically
// at 1−Speed of the slots.
func TestLoadDVFSThrottles(t *testing.T) {
	pol := &dpm.LoadDVFS{HoldSlots: 4}
	m := newManager(t, core.FullyConnected, 8, testModel(), pol)
	src := &fakeSource{q: make([]int, 8)}
	for slot := uint64(0); slot < 300; slot++ {
		m.PreSlot(slot, src)
		m.PostSlot(slot, nil, core.Breakdown{})
	}
	m.BeginMeasurement()
	for slot := uint64(300); slot < 500; slot++ {
		m.PreSlot(slot, src)
		m.PostSlot(slot, nil, core.Breakdown{})
	}
	rep := m.Report()
	// Slowest default level runs at Speed 0.5: half the slots stall.
	if rep.StalledSlots != 100 {
		t.Fatalf("want 100/200 stalled slots at speed 0.5, got %d", rep.StalledSlots)
	}
	if rep.StaticFJ >= rep.AlwaysOnStaticFJ {
		t.Fatal("voltage scaling should cut static energy")
	}
}

// TestDVFSDynamicAdjustment: dynamic energy spent in a low-voltage slot
// is scaled by V², recorded as a non-positive adjustment.
func TestDVFSDynamicAdjustment(t *testing.T) {
	pol := &dpm.LoadDVFS{HoldSlots: 2}
	m := newManager(t, core.FullyConnected, 8, testModel(), pol)
	src := &fakeSource{q: make([]int, 8)}
	dyn := core.Breakdown{}
	for slot := uint64(0); slot < 200; slot++ {
		m.PreSlot(slot, src)
		dyn.SwitchFJ += 100 // pretend the fabric burned 100 fJ this slot
		m.PostSlot(slot, nil, dyn)
	}
	if adj := m.DynamicAdjust(); adj.TotalFJ() >= 0 || m.Report().DynamicAdjustFJ != adj.TotalFJ() {
		t.Fatalf("low-voltage slots should yield negative dynamic adjustment, got %+v (report %g)", adj, m.Report().DynamicAdjustFJ)
	}
}

// TestDPMSlotAllocationFree extends the fabric-level hot-path guarantee
// to the managed slot loop: with a composite policy observing the
// router, gating admission and accounting energy every slot, the
// Step+hooks path must still never touch the allocator — under FIFO,
// and under VOQ, whose gated admission masks the occupancy bitsets.
func TestDPMSlotAllocationFree(t *testing.T) {
	for _, queue := range []router.QueueDiscipline{router.FIFO, router.VOQ} {
		t.Run("queue="+queue.String(), func(t *testing.T) {
			managedSlotAllocationFree(t, queue)
		})
	}
}

func managedSlotAllocationFree(t *testing.T, queue router.QueueDiscipline) {
	const ports = 16
	model := testModel()
	pol, err := dpm.NewPolicy("composite")
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := dpm.New(dpm.Config{Arch: core.Banyan, Ports: ports, Model: model, CellBits: 256, Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	r, err := router.New(router.Config{
		Arch: core.Banyan,
		Fabric: fabric.Config{
			Ports: ports,
			Cell:  packet.Config{CellBits: 256, BusWidth: 32},
			Model: model,
		},
		Queue: queue,
		Gate:  mgr,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Pre-load a deep backlog on half the ports (the other half goes
	// idle and exercises the gating paths), so the measured loop admits
	// real traffic without calling Inject.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 700*ports/2; i++ {
		c := &packet.Cell{
			ID:      uint64(i + 1),
			Src:     (i % (ports / 2)) * 2,
			Dest:    rng.Intn(ports),
			Payload: packet.RandomPayload(rng, 8),
		}
		if !r.Inject(c, 0) {
			t.Fatal("inject failed")
		}
	}
	slot := uint64(0)
	step := func() {
		mgr.PreSlot(slot, r)
		delivered := r.Step(slot)
		mgr.PostSlot(slot, delivered, r.Fabric().Energy())
		slot++
	}
	for i := 0; i < 300; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
		t.Errorf("managed slot loop: %.1f allocs per slot, want 0", allocs)
	}
	if r.Metrics().DeliveredCells == 0 {
		t.Fatal("loop should have delivered traffic")
	}
	if rep := mgr.Report(); rep.Slots == 0 || rep.GatedPortSlots == 0 {
		t.Fatalf("manager should have accounted slots with gated ports, got %+v", rep)
	}
}
