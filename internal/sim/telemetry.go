package sim

import (
	"fabricpower/internal/dpm"
	"fabricpower/internal/router"
	"fabricpower/internal/tech"
)

// TelemetryConfig attaches an every-K-slots probe to a single-router
// run: each sample covers the interval since the previous one with the
// same power accounting Snapshot uses for the whole window. A nil
// config leaves Run on its probe-free fast path; results are identical
// either way, because the probe only reads ledgers the run already
// keeps.
type TelemetryConfig struct {
	// Every is the sample interval in slots (default 64).
	Every uint64
	// OnSample receives each interval sample. The pointed-to sample is
	// reused across intervals: sinks must consume or copy it before
	// returning.
	OnSample func(*TelemetrySample)
}

func (tc TelemetryConfig) withDefaults() TelemetryConfig {
	if tc.Every == 0 {
		tc.Every = 64
	}
	return tc
}

// DPMTelemetry is the power managers' state-machine activity over
// one interval (summed over every managed router of a network).
type DPMTelemetry struct {
	GatedPortSlots uint64 `json:"gatedPortSlots"`
	DrowsySlots    uint64 `json:"drowsySlots"`
	StalledSlots   uint64 `json:"stalledSlots"`
	Transitions    uint64 `json:"transitions"`
	WakeEvents     uint64 `json:"wakeEvents"`
	DVFSShifts     uint64 `json:"dvfsShifts"`
}

// Ledger is a cumulative reading of the ledgers a telemetry probe
// differences into interval samples: fabric energy plus the DVFS
// adjustment, static plus transition energy, ingress drops and the
// DPM counters. Both kernels' probes read routers through it, so a
// single router and a network sample the same accounting.
type Ledger struct {
	DynamicFJ    float64
	StaticFJ     float64
	DroppedCells uint64
	DPM          DPMTelemetry
	// Managed reports whether any read router ran a power manager.
	Managed bool
}

// Read adds router r's cumulative ledgers, and those of its manager
// when mgr is non-nil, to the reading. Routers are read one by one, so
// a network's sums follow its router order.
func (l *Ledger) Read(r *router.Router, mgr *dpm.Manager) {
	l.DynamicFJ += r.Fabric().Energy().TotalFJ()
	if mgr != nil {
		l.Managed = true
		rep := mgr.Report()
		l.DynamicFJ += rep.DynamicAdjustFJ
		l.StaticFJ += rep.StaticFJ + rep.TransitionFJ
		l.DPM.GatedPortSlots += rep.GatedPortSlots
		l.DPM.DrowsySlots += rep.DrowsySlots
		l.DPM.StalledSlots += rep.StalledSlots
		l.DPM.Transitions += rep.Transitions
		l.DPM.WakeEvents += rep.WakeEvents
		l.DPM.DVFSShifts += rep.DVFSShifts
	}
	l.DroppedCells += r.Metrics().DroppedCells
}

// LedgerTap turns successive Ledger readings into interval figures.
// Rebase it when the ledgers underneath are reset (after warmup).
type LedgerTap struct {
	last Ledger
	dpm  DPMTelemetry
}

// Interval closes an interval of durationNS at reading now: the
// dynamic and static power over it, the cells dropped during it, and
// its DPM activity (nil when now read no manager). The returned
// pointer is reused by the next call.
func (t *LedgerTap) Interval(now Ledger, durationNS float64) (dynamicMW, staticMW float64, dropped uint64, act *DPMTelemetry) {
	dynamicMW = tech.PowerMW(now.DynamicFJ-t.last.DynamicFJ, durationNS)
	staticMW = tech.PowerMW(now.StaticFJ-t.last.StaticFJ, durationNS)
	dropped = now.DroppedCells - t.last.DroppedCells
	if now.Managed {
		d, prev := &now.DPM, &t.last.DPM
		t.dpm = DPMTelemetry{
			GatedPortSlots: d.GatedPortSlots - prev.GatedPortSlots,
			DrowsySlots:    d.DrowsySlots - prev.DrowsySlots,
			StalledSlots:   d.StalledSlots - prev.StalledSlots,
			Transitions:    d.Transitions - prev.Transitions,
			WakeEvents:     d.WakeEvents - prev.WakeEvents,
			DVFSShifts:     d.DVFSShifts - prev.DVFSShifts,
		}
		act = &t.dpm
	}
	t.last = now
	return dynamicMW, staticMW, dropped, act
}

// Rebase zeroes the baseline after the ledgers were reset.
func (t *LedgerTap) Rebase() { t.last = Ledger{} }

// TelemetrySample is one interval of a single-router time series. Slot
// is the exclusive end of the covered window [Slot-Interval, Slot);
// counters are deltas, queue depths instantaneous.
type TelemetrySample struct {
	Kind     string `json:"kind"` // "sim_sample"
	Slot     uint64 `json:"slot"`
	Interval uint64 `json:"interval"`
	// DynamicMW is the fabric (DVFS-adjusted) power over the window;
	// StaticMW the managed static + transition power (zero unmanaged).
	DynamicMW float64 `json:"dynamicMW"`
	StaticMW  float64 `json:"staticMW"`
	// DeliveredCells and DroppedCells are window deltas; QueuedCells
	// and BufferedCells are the backlog at Slot.
	DeliveredCells uint64        `json:"delivered"`
	DroppedCells   uint64        `json:"dropped"`
	QueuedCells    int           `json:"queuedCells"`
	BufferedCells  int           `json:"bufferedCells"`
	DPM            *DPMTelemetry `json:"dpm,omitempty"`
}

// probe is the run-scoped sampling state behind Options.Telemetry.
type probe struct {
	cfg    TelemetryConfig
	slotNS float64

	startSlot uint64
	nextSlot  uint64

	sample TelemetrySample
	tap    LedgerTap

	lastDelivered uint64
}

func newProbe(cfg TelemetryConfig, tp tech.Params, cellBits int) *probe {
	cfg = cfg.withDefaults()
	return &probe{
		cfg:      cfg,
		slotNS:   tp.CellTimeNS(cellBits),
		nextSlot: cfg.Every,
		sample:   TelemetrySample{Kind: "sim_sample"},
	}
}

// take closes the interval [p.startSlot, slot) against the router's
// cumulative ledgers and hands the reused sample to the sink.
func (p *probe) take(slot uint64, r *router.Router, mgr *dpm.Manager) {
	interval := slot - p.startSlot
	p.startSlot = slot
	p.nextSlot = slot + p.cfg.Every
	if interval == 0 {
		return
	}
	smp := &p.sample
	smp.Slot = slot
	smp.Interval = interval

	var now Ledger
	now.Read(r, mgr)
	smp.DynamicMW, smp.StaticMW, smp.DroppedCells, smp.DPM = p.tap.Interval(now, float64(interval)*p.slotNS)

	delivered := r.Metrics().DeliveredCells
	smp.DeliveredCells = delivered - p.lastDelivered
	p.lastDelivered = delivered
	smp.QueuedCells = r.QueuedCells()
	smp.BufferedCells = r.BufferedCells()

	if p.cfg.OnSample != nil {
		p.cfg.OnSample(smp)
	}
}

// rebase zeroes the delta baselines after the warmup reset.
func (p *probe) rebase() {
	p.tap.Rebase()
	p.lastDelivered = 0
}
