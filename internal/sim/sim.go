// Package sim is the time-domain simulation kernel of the platform
// (§5.2): it drives a traffic generator into a router slot by slot,
// excludes a warmup phase, measures egress throughput and latency, and
// converts the fabric's accumulated bit energies into power using the
// cell time on the serial line (100BaseT in the paper's case study).
//
// A run may carry a dynamic power manager (Options.DPM, internal/dpm):
// the kernel then interleaves the manager's observe/decide/account hooks
// with the slot loop, static power joins the report (Power.StaticMW) and
// the manager's ledger lands in Result.DPM.
package sim

import (
	"fmt"
	"runtime"

	"fabricpower/internal/dpm"
	"fabricpower/internal/packet"
	"fabricpower/internal/router"
	"fabricpower/internal/tech"
)

// Generator produces the cells injected at each slot (implemented by
// internal/traffic's injectors and trace players).
//
// Ownership: the slice Generate returns belongs to the caller, and no
// later call overwrites it. Each cell in it belongs to the caller until
// the caller hands it back with Release; the generator may then reuse
// the cell for a later slot, so nothing may read a released cell. A
// cell's payload must not change once the cell is offered: fabrics
// cache its flip count (packet.Cell.Crossing). Run releases every cell
// the router delivers and every cell its ingress refuses; a caller
// that never releases simply gets fresh cells every slot.
type Generator interface {
	Generate(slot uint64) []*packet.Cell
	Release(c *packet.Cell)
}

// Options controls a run.
type Options struct {
	// WarmupSlots run before measurement starts (queues and pipelines
	// fill; energy and metrics are reset afterwards). Zero measures
	// from slot 0 with cold queues and pipelines.
	WarmupSlots uint64
	// MeasureSlots is the measured window length; it must be positive.
	MeasureSlots uint64
	// DPM, when non-nil, runs the dynamic power manager each slot:
	// it observes the router before Step, accounts static/transition
	// energy after, and its ledger lands in Result.DPM and
	// Power.StaticMW. The same manager must also be installed as the
	// router's admission gate (router.Config.Gate) so gated ports
	// refuse cells — study.RunScenario wires both ends. Nil reproduces
	// the paper's always-on, dynamic-only accounting exactly.
	DPM *dpm.Manager
	// Telemetry, when non-nil, samples an every-K-slots time series of
	// power, throughput and DPM activity over the run (warmup
	// included). Purely observational: results are identical with or
	// without it.
	Telemetry *TelemetryConfig
}

// bufferEventCounter is implemented by fabrics with internal buffers.
type bufferEventCounter interface {
	BufferEvents() uint64
}

// Run drives the generator through the router for warmup plus measure
// slots and reports the measured window.
func Run(r *router.Router, gen Generator, tp tech.Params, cellBits int, opt Options) (Result, error) {
	if r == nil || gen == nil {
		return Result{}, fmt.Errorf("sim: router and generator are required")
	}
	if err := tp.Validate(); err != nil {
		return Result{}, err
	}
	if cellBits <= 0 {
		return Result{}, fmt.Errorf("sim: cell bits must be positive, got %d", cellBits)
	}
	if opt.MeasureSlots == 0 {
		return Result{}, fmt.Errorf("sim: measure slots must be positive")
	}

	mgr := opt.DPM
	var pr *probe
	if opt.Telemetry != nil {
		pr = newProbe(opt.Telemetry, tp, cellBits)
	}
	slot := uint64(0)
	for ; slot < opt.WarmupSlots; slot++ {
		if pr != nil && pr.Due(slot) {
			pr.take(slot, r, mgr)
		}
		runSlot(r, gen, mgr, slot)
	}
	if pr != nil {
		// Flush the partial warmup interval, then rebase the baselines
		// over the ledger reset below.
		pr.take(slot, r, mgr)
		pr.rebase()
	}
	bufferBase := BeginWindow(r, mgr)

	end := opt.WarmupSlots + opt.MeasureSlots
	for ; slot < end; slot++ {
		if pr != nil && pr.Due(slot) {
			pr.take(slot, r, mgr)
		}
		runSlot(r, gen, mgr, slot)
	}
	if pr != nil {
		pr.take(slot, r, mgr) // flush the final partial interval
	}

	return Snapshot(r, mgr, tp, cellBits, opt.MeasureSlots, bufferBase), nil
}

// yieldSlots is how many slots Run steps between scheduler yields. The
// recycling slot loop never allocates, so it never enters the runtime
// on its own: without a yield a run would hold its processor until
// the scheduler preempts it (every 10 ms), and goroutines sharing the
// process, such as studyd streaming another study's results, would
// wait that long. 64 slots take well under a millisecond.
const yieldSlots = 64

// runSlot injects one slot's arrivals, steps the router (between the
// manager's hooks, when there is one) and releases the cells the slot
// finished with: those the ingress refused and those the egress
// delivered.
func runSlot(r *router.Router, gen Generator, mgr *dpm.Manager, slot uint64) {
	if slot%yieldSlots == 0 {
		runtime.Gosched()
	}
	for _, c := range gen.Generate(slot) {
		if !r.Inject(c, slot) {
			gen.Release(c)
		}
	}
	var delivered []*packet.Cell
	if mgr != nil {
		mgr.PreSlot(slot, r)
		delivered = r.Step(slot)
		mgr.PostSlot(slot, delivered, r.Fabric().Energy())
	} else {
		delivered = r.Step(slot)
	}
	for _, c := range delivered {
		gen.Release(c)
	}
}

// BeginWindow opens router r's measured window, the opening half of
// Snapshot: it resets the router's metrics, its fabric's energy and,
// when mgr is non-nil, the manager's ledgers, and returns the fabric's
// BufferEvents reading for Snapshot's bufferBase (0 for a fabric
// without buffers).
func BeginWindow(r *router.Router, mgr *dpm.Manager) (bufferBase uint64) {
	r.ResetMetrics()
	r.Fabric().ResetEnergy()
	if mgr != nil {
		mgr.BeginMeasurement()
	}
	if bc, ok := r.Fabric().(bufferEventCounter); ok {
		bufferBase = bc.BufferEvents()
	}
	return bufferBase
}

// Snapshot assembles a Result from the router's current measured
// window: metrics and fabric energy accumulated since the last
// BeginWindow over slots slots; bufferBase is what BeginWindow
// returned. External drivers that step routers themselves — the network
// kernel in internal/netsim steps many in lockstep, possibly sharded
// across goroutines — use it to close their windows with exactly Run's
// accounting; callers must quiesce their stepping (netsim's phase
// barriers do) before snapshotting, since Snapshot reads the router's
// ledgers unlocked.
func Snapshot(r *router.Router, mgr *dpm.Manager, tp tech.Params, cellBits int, slots uint64, bufferBase uint64) Result {
	m := r.Metrics()
	e := r.Fabric().Energy()
	if mgr != nil {
		// DVFS runs low-voltage slots cheaper than the fabric's ledger
		// assumed; fold the (non-positive) adjustment back in.
		e = e.Add(mgr.DynamicAdjust())
	}
	slotNS := tp.CellTimeNS(cellBits)
	durationNS := float64(slots) * slotNS
	res := Result{
		Arch:            r.Fabric().Arch().String(),
		Ports:           r.Ports(),
		Slots:           slots,
		SlotNS:          slotNS,
		Throughput:      m.Throughput(r.Ports(), slots),
		AvgLatencySlots: m.AvgLatency(),
		MaxLatencySlots: m.MaxLatency,
		Energy:          e,
		Power: Power{
			SwitchMW: tech.PowerMW(e.SwitchFJ, durationNS),
			BufferMW: tech.PowerMW(e.BufferFJ, durationNS),
			WireMW:   tech.PowerMW(e.WireFJ, durationNS),
		},
		DroppedCells: m.DroppedCells,
		QueuedCells:  r.QueuedCells(),
	}
	deliveredBits := res.Throughput * float64(res.Ports) * float64(res.Slots) * float64(cellBits)
	if deliveredBits > 0 {
		res.EnergyPerBitFJ = e.TotalFJ() / deliveredBits
	}
	if bc, ok := r.Fabric().(bufferEventCounter); ok {
		res.BufferEvents = bc.BufferEvents() - bufferBase
	}
	if mgr != nil {
		rep := mgr.Report()
		res.DPM = &rep
		res.Power.StaticMW = tech.PowerMW(rep.StaticFJ+rep.TransitionFJ, durationNS)
	}
	return res
}
