package sim

import (
	"fabricpower/internal/dpm"
	"fabricpower/internal/router"
	"fabricpower/internal/tech"
)

// TelemetryConfig attaches an every-K-slots sampler to a run of either
// kernel: Run's single router (Options.Telemetry) or a network
// (netsim.Config.Telemetry). Each sample covers the interval since the
// previous one with the same power accounting Snapshot uses for the
// whole window. A nil config leaves the kernel on its telemetry-free
// fast path; results are identical either way, because sampling only
// reads ledgers the run already keeps.
type TelemetryConfig struct {
	// Every is the sample interval in slots (default 64).
	Every uint64
	// Emit receives every record of the run: a *TelemetrySample per
	// interval from Run, a *netsim.TelemetrySample per interval and a
	// *netsim.TelemetrySummary at the end of each network Run. Samples
	// are reused across intervals: sinks must consume or copy them
	// before returning. A summary is freshly allocated and may be
	// retained. Nil samples without emitting.
	Emit func(any)
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

// Ledger is a cumulative reading of the ledgers a Sampler differences
// into interval samples: fabric energy plus the DVFS adjustment,
// static plus transition energy, ingress drops and the DPM counters.
// Both kernels read routers through it, so a single router and a
// network sample the same accounting.
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

// Sampler is the interval clock both kernels' telemetry collectors
// share: it closes intervals every TelemetryConfig.Every slots and
// differences successive Ledger readings into interval figures. The
// kernels keep only what is their own: the sample they fill and their
// end-to-end baselines.
type Sampler struct {
	every  uint64
	emit   func(any)
	slotNS float64

	start uint64 // inclusive start of the current interval
	next  uint64 // first slot that closes the current interval

	last Ledger
	dpm  DPMTelemetry
}

// NewSampler starts a sampler at slot 0 for a kernel whose slots last
// slotNS nanoseconds.
func NewSampler(cfg *TelemetryConfig, slotNS float64) Sampler {
	every := cfg.Every
	if every == 0 {
		every = 64
	}
	return Sampler{every: every, emit: cfg.Emit, slotNS: slotNS, next: every}
}

// Due reports whether slot closes the current interval.
func (s *Sampler) Due(slot uint64) bool { return slot >= s.next }

// Close ends the interval [start, slot), starts the next one at slot
// and returns the ended interval's length in slots (zero: nothing to
// sample).
func (s *Sampler) Close(slot uint64) (interval uint64) {
	interval = slot - s.start
	s.start = slot
	s.next = slot + s.every
	return interval
}

// Difference turns reading now, taken at the end of an interval of the
// given slots, into that interval's figures: the dynamic and static power over it, the cells dropped
// during it, and its DPM activity (nil when now read no manager). The
// returned pointer is reused by the next call.
func (s *Sampler) Difference(now Ledger, interval uint64) (dynamicMW, staticMW float64, dropped uint64, act *DPMTelemetry) {
	durationNS := float64(interval) * s.slotNS
	dynamicMW = tech.PowerMW(now.DynamicFJ-s.last.DynamicFJ, durationNS)
	staticMW = tech.PowerMW(now.StaticFJ-s.last.StaticFJ, durationNS)
	dropped = now.DroppedCells - s.last.DroppedCells
	if now.Managed {
		d, prev := &now.DPM, &s.last.DPM
		s.dpm = DPMTelemetry{
			GatedPortSlots: d.GatedPortSlots - prev.GatedPortSlots,
			DrowsySlots:    d.DrowsySlots - prev.DrowsySlots,
			StalledSlots:   d.StalledSlots - prev.StalledSlots,
			Transitions:    d.Transitions - prev.Transitions,
			WakeEvents:     d.WakeEvents - prev.WakeEvents,
			DVFSShifts:     d.DVFSShifts - prev.DVFSShifts,
		}
		act = &s.dpm
	}
	s.last = now
	return dynamicMW, staticMW, dropped, act
}

// Rebase zeroes the ledger baseline after BeginWindow reset the
// ledgers underneath it.
func (s *Sampler) Rebase() { s.last = Ledger{} }

// Emit hands v to the config's sink, if there is one.
func (s *Sampler) Emit(v any) {
	if s.emit != nil {
		s.emit(v)
	}
}

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
	Sampler
	sample        TelemetrySample
	lastDelivered uint64
}

func newProbe(cfg *TelemetryConfig, tp tech.Params, cellBits int) *probe {
	return &probe{
		Sampler: NewSampler(cfg, tp.CellTimeNS(cellBits)),
		sample:  TelemetrySample{Kind: "sim_sample"},
	}
}

// take closes the interval ending at slot against the router's
// cumulative ledgers and hands the reused sample to the sink.
func (p *probe) take(slot uint64, r *router.Router, mgr *dpm.Manager) {
	interval := p.Close(slot)
	if interval == 0 {
		return
	}
	smp := &p.sample
	smp.Slot = slot
	smp.Interval = interval

	var now Ledger
	now.Read(r, mgr)
	smp.DynamicMW, smp.StaticMW, smp.DroppedCells, smp.DPM = p.Difference(now, interval)

	delivered := r.Metrics().DeliveredCells
	smp.DeliveredCells = delivered - p.lastDelivered
	p.lastDelivered = delivered
	smp.QueuedCells = r.QueuedCells()
	smp.BufferedCells = r.BufferedCells()
	p.Emit(smp)
}

// rebase zeroes the delta baselines after the warmup reset.
func (p *probe) rebase() {
	p.Rebase()
	p.lastDelivered = 0
}
