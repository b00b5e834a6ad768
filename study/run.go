package study

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"sync"
	"time"

	"fabricpower/internal/core"
	"fabricpower/internal/dpm"
	"fabricpower/internal/fabric"
	"fabricpower/internal/netsim"
	"fabricpower/internal/packet"
	"fabricpower/internal/router"
	"fabricpower/internal/sim"
	"fabricpower/internal/sweep"
	"fabricpower/internal/telemetry"
	"fabricpower/internal/telemetry/trace"
	"fabricpower/internal/traffic"
)

// The result model is the simulation kernel's: a scenario's
// measurement is a sim.Result, whose JSON form is the result record's
// wire format.
type (
	// Result is the measurement of one executed scenario. Single-router
	// scenarios fill the router-level fields; network scenarios
	// additionally fill Net, with the power and latency fields holding
	// the network-wide totals (end-to-end latency, summed power).
	Result = sim.Result
	// Power is a per-component power report in milliwatts.
	Power = sim.Power
	// Energy is a per-component energy breakdown in femtojoules.
	Energy = core.Breakdown
	// DPMReport is the power manager's ledger over the measured window.
	DPMReport = dpm.Report
	// NetReport carries the network-level measurements of a network
	// scenario.
	NetReport = sim.NetReport
	// ResilienceReport is a network run's failure ledger: the per-flow
	// delivered/lost ledger (FlowResilience), the per-pair availability
	// (LinkResilience) and the energy the failures cost.
	ResilienceReport = sim.ResilienceReport
	FlowResilience   = sim.FlowStats
	LinkResilience   = sim.LinkAvailability
)

// RunScenario executes one scenario and returns its measurement. The
// execution matches the experiment runners exactly: the traffic stream
// is derived from (Sim.Seed, coordinates), so two scenarios that
// describe the same operating point measure identical results —
// regardless of which subcommand, grid or test constructed them.
func RunScenario(sc Scenario) (Result, error) {
	return runScenario(sc, nil, nil)
}

// pointTrace carries one point's execution-profiler attachment: the
// run's shared recorder plus the Perfetto process (pid, name prefix)
// the point's kernel rows group under.
type pointTrace struct {
	rec    *trace.Recorder
	pid    int
	prefix string
}

// runScenario is RunScenario with an optional telemetry sampler and
// execution profiler: tel goes to whichever kernel runs the point (its
// Emit receives each kernel sample and summary; samples are reused, so
// it must consume them synchronously), pt attaches the profiler.
func runScenario(sc Scenario, tel *sim.TelemetryConfig, pt *pointTrace) (Result, error) {
	if err := sc.validatePoint(); err != nil {
		return Result{}, err
	}
	sd := sc.withDefaults()
	model, err := sd.Model.Build()
	if err != nil {
		return Result{}, err
	}
	if sd.Network != nil {
		return runNetwork(sd, model, tel, pt)
	}
	return runSingle(sd, model, tel)
}

func parseQueue(name string) (router.QueueDiscipline, error) {
	switch name {
	case "fifo":
		return router.FIFO, nil
	case "voq":
		return router.VOQ, nil
	}
	return router.FIFO, fmt.Errorf("study: unknown queue discipline %q", name)
}

// loadTrace opens and parses a recorded trace file.
func loadTrace(path string) (*traffic.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("study: opening trace: %w", err)
	}
	defer f.Close()
	return traffic.ReadTrace(f)
}

// tracePlayer opens and replays a recorded trace.
func tracePlayer(path string, cfg packet.Config) (sim.Generator, error) {
	tr, err := loadTrace(path)
	if err != nil {
		return nil, err
	}
	return traffic.NewPlayer(tr, cfg)
}

// generator builds the single-router traffic generator of a built-in
// kind, exactly as the experiment runners construct it.
func generator(spec TrafficSpec, ports int, cfg packet.Config, seed int64) (sim.Generator, error) {
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
	return nil, fmt.Errorf("study: unknown traffic kind %q (want one of %v)", spec.Kind, trafficKinds)
}

// runSingle executes a defaulted single-router scenario.
func runSingle(sd Scenario, model core.Model, tel *sim.TelemetryConfig) (Result, error) {
	arch, err := core.ParseArchitecture(sd.Fabric.Arch)
	if err != nil {
		return Result{}, err
	}
	queue, err := parseQueue(sd.Queue)
	if err != nil {
		return Result{}, err
	}
	cellCfg := packet.Config{CellBits: sd.Fabric.CellBits, BusWidth: model.Tech.BusWidth}
	var mgr *dpm.Manager
	if sd.DPM != "" {
		pol, err := dpm.NewPolicy(sd.DPM)
		if err != nil {
			return Result{}, err
		}
		mgr, err = dpm.New(dpm.Config{
			Arch:     arch,
			Ports:    sd.Fabric.Ports,
			Model:    model,
			CellBits: sd.Fabric.CellBits,
			Policy:   pol,
		})
		if err != nil {
			return Result{}, fmt.Errorf("study: %s %v %d ports: %w", sd.DPM, arch, sd.Fabric.Ports, err)
		}
	}
	rcfg := router.Config{
		Arch: arch,
		Fabric: fabric.Config{
			Ports: sd.Fabric.Ports,
			Cell:  cellCfg,
			Model: model,
		},
		Queue: queue,
	}
	if mgr != nil {
		rcfg.Gate = mgr
	}
	r, err := router.New(rcfg)
	if err != nil {
		return Result{}, fmt.Errorf("study: %v %d ports: %w", arch, sd.Fabric.Ports, err)
	}
	seed := sweep.PointSeed(sd.Sim.Seed, sd.Fabric.Ports, sd.Traffic.Load)
	gen, err := generator(sd.Traffic, sd.Fabric.Ports, cellCfg, seed)
	if err != nil {
		return Result{}, err
	}
	opts := sim.Options{
		WarmupSlots:  *sd.Sim.WarmupSlots,
		MeasureSlots: sd.Sim.MeasureSlots,
		DPM:          mgr,
		Telemetry:    tel,
	}
	return sim.Run(r, gen, model.Tech, sd.Fabric.CellBits, opts)
}

// faultPlan lowers a non-empty failures block into the kernel's plan.
func faultPlan(f *FailureSpec) *netsim.FaultPlan {
	if f.empty() {
		return nil
	}
	plan := &netsim.FaultPlan{
		MTBF:             f.MTBF,
		MTTR:             f.MTTR,
		NodeMTBF:         f.NodeMTBF,
		NodeMTTR:         f.NodeMTTR,
		ResidualMW:       f.ResidualMW,
		ReconvergeCostFJ: f.ReconvergeCostFJ,
	}
	for _, e := range f.Events {
		ev := netsim.FaultEvent{Slot: e.Slot, Node: -1, Down: e.Down}
		if e.Node != nil {
			ev.Node = *e.Node
		} else if e.Link != nil {
			ev.From, ev.To = e.Link[0], e.Link[1]
		}
		plan.Events = append(plan.Events, ev)
	}
	return plan
}

// runNetwork executes a defaulted network scenario.
func runNetwork(sd Scenario, model core.Model, tel *sim.TelemetryConfig, pt *pointTrace) (Result, error) {
	arch, err := core.ParseArchitecture(sd.Fabric.Arch)
	if err != nil {
		return Result{}, err
	}
	queue, err := parseQueue(sd.Queue)
	if err != nil {
		return Result{}, err
	}
	ns := sd.Network
	t, err := netsim.BuildTopology(ns.Topology, ns.Nodes)
	if err != nil {
		return Result{}, err
	}
	rt, err := netsim.NewRouting(ns.Routing)
	if err != nil {
		return Result{}, err
	}
	m, err := netsim.NewMatrix(ns.Matrix)
	if err != nil {
		return Result{}, err
	}
	var tr *traffic.Trace
	if sd.Traffic.Kind == "trace" {
		if tr, err = loadTrace(sd.Traffic.Trace); err != nil {
			return Result{}, err
		}
	}
	ncfg := netsim.Config{
		Topology:       t,
		Arch:           arch,
		Model:          model,
		CellBits:       sd.Fabric.CellBits,
		Queue:          queue,
		MaxQueueCells:  ns.MaxQueueCells,
		LinkQueueCells: ns.LinkQueueCells,
		Policy:         sd.DPM,
		Routing:        rt,
		Matrix:         m,
		Load:           sd.Traffic.Load,
		Traffic:        netsim.Traffic{Kind: sd.Traffic.Kind, MeanBurstSlots: sd.Traffic.MeanBurstSlots, Trace: tr},
		Shards:         ns.Shards,
		IdleSkip:       ns.IdleSkip,
		Seed:           sweep.NetworkSeed(sd.Sim.Seed, ns.Topology, ns.Nodes, sd.Traffic.Load),
		Faults:         faultPlan(ns.Failures),
		Telemetry:      tel,
	}
	if pt != nil {
		ncfg.Trace = &netsim.TraceConfig{Recorder: pt.rec, PID: pt.pid, Prefix: pt.prefix}
	}
	net, err := netsim.New(ncfg)
	if err != nil {
		return Result{}, fmt.Errorf("study: %s/%s/%s at %.0f%%: %w",
			ns.Topology, ns.Routing, sd.DPM, sd.Traffic.Load*100, err)
	}
	defer net.Close()
	rep, err := net.Run(*sd.Sim.WarmupSlots, sd.Sim.MeasureSlots)
	if err != nil {
		return Result{}, err
	}
	return rep.Result, nil
}

// PointInfo carries the execution metadata of one completed grid
// point. It is observability only — by the sweep engine's contract the
// worker that ran a point never influences its result.
type PointInfo struct {
	// Worker identifies the sweep goroutine that ran the point (0 on a
	// sequential run).
	Worker int
	// Duration is the point's wall-clock run time.
	Duration time.Duration
}

// Event is one structured progress record of a grid run — the wire
// format a study server streams to its clients.
type Event struct {
	// Kind is "point_start" or "point_finish".
	Kind string `json:"kind"`
	// Index/Total locate the point in enumeration order.
	Index int `json:"index"`
	Total int `json:"total"`
	// Worker is the sweep goroutine that ran the point.
	Worker int `json:"worker"`
	// Label summarizes the point's coordinates.
	Label string `json:"label,omitempty"`
	// DurationMS is the point's wall-clock run time (finish only).
	DurationMS float64 `json:"durationMS,omitempty"`
	// Err carries a failed point's error (finish only).
	Err string `json:"err,omitempty"`
}

// TelemetryOptions streams per-point kernel telemetry from a grid run.
type TelemetryOptions struct {
	// Out receives one JSON record per line: every kernel sample and
	// summary, tagged with its point index ("point"). A point's records
	// are flushed as one contiguous block when the point completes;
	// block order follows completion order, so the whole file is
	// deterministic only on sequential runs (Workers: 1).
	Out io.Writer
	// Every is the sample interval in slots (default 64).
	Every uint64
}

// RunOptions tunes a grid run.
type RunOptions struct {
	// Workers bounds the sweep parallelism (0 = one per core, 1 =
	// sequential). Results are bit-identical for any worker count.
	Workers int
	// OnPoint, when non-nil, streams progress: it is called once per
	// completed point with the point's index in enumeration order, the
	// total point count and the point's execution metadata. Calls are
	// serialized but arrive in completion order, not index order.
	OnPoint func(index, total int, sc Scenario, r Result, info PointInfo)
	// OnEvent, when non-nil, receives structured progress events
	// (point start/finish with worker and duration).
	// Calls are serialized, in emission order.
	OnEvent func(Event)
	// Telemetry, when non-nil with Out set, samples every-K-slots
	// kernel time series per point into Out as JSONL.
	Telemetry *TelemetryOptions
	// Trace, when non-nil, profiles the run's execution into the
	// recorder: sweep-worker occupancy rows and per-point kernel rows
	// (shard phases, join waits — one Perfetto process per point, pid =
	// point index + 1); a table1 study records one characterization
	// span per switch type instead. The recorder belongs to this run
	// alone; export it with WriteJSON after Run returns. Results are
	// bit-identical with or without it.
	Trace *trace.Recorder
}

// Label summarizes the scenario's coordinates in one line — the form
// progress events and verbose sweep output identify points by.
func (sc Scenario) Label() string {
	dpm := sc.DPM
	if dpm == "" {
		dpm = "alwayson"
	}
	if sc.Network != nil {
		return fmt.Sprintf("%s/%d %s %s %s@%g", sc.Network.Topology, sc.Network.Nodes,
			sc.Fabric.Arch, sc.Network.Routing, dpm, sc.Traffic.Load)
	}
	return fmt.Sprintf("%s/%d %s@%g", sc.Fabric.Arch, sc.Fabric.Ports, dpm, sc.Traffic.Load)
}

// GridPoint is one enumerated scenario — in Resolved form, every
// defaulted field filled — with its measurement. Done reports whether
// the point actually ran: a cancelled or failed sweep leaves the
// remaining points' Done false with a zero Result.
type GridPoint struct {
	Scenario Scenario
	Result   Result
	Done     bool
}

// GridResult is a grid run's outcome, in enumeration order.
type GridResult struct {
	Points []GridPoint
}

// Completed counts the points that actually ran — on a cancelled or
// failed sweep, the size of the partial result.
func (g *GridResult) Completed() int {
	n := 0
	for _, p := range g.Points {
		if p.Done {
			n++
		}
	}
	return n
}

// Results returns the completed results in enumeration order; on a
// fully successful run that is every point.
func (g *GridResult) Results() []Result {
	out := make([]Result, 0, len(g.Points))
	for _, p := range g.Points {
		if p.Done {
			out = append(out, p.Result)
		}
	}
	return out
}

// Run enumerates the grid and executes every scenario on the
// deterministic sweep engine. Cancelling ctx stops the sweep between
// points: the returned GridResult keeps every completed point's result
// intact (Done marks them) alongside ctx's error. A failing point
// aborts the sweep the same way, returning its wrapped error.
func (g Grid) Run(ctx context.Context, opt RunOptions) (*GridResult, error) {
	scenarios, err := g.Points()
	if err != nil {
		return nil, err
	}
	// Resolve defaults up front so the callback and the returned grid
	// points carry the coordinates that actually ran, even when the
	// spec leaned on defaults (a hand-written fig9 spec without a
	// ports axis still reports 16-port results as 16-port).
	for i := range scenarios {
		scenarios[i] = scenarios[i].Resolved()
	}
	var mu sync.Mutex
	n := len(scenarios)
	var telw *telemetry.Writer
	if opt.Telemetry != nil && opt.Telemetry.Out != nil {
		telw = telemetry.NewWriter(opt.Telemetry.Out)
	}
	results, done, err := sweep.Map(ctx, opt.Workers, scenarios, func(worker, i int, sc Scenario) (Result, error) {
		if opt.OnEvent != nil {
			mu.Lock()
			opt.OnEvent(Event{
				Kind: "point_start", Index: i, Total: n, Worker: worker,
				Label: sc.Label(),
			})
			mu.Unlock()
		}
		// Kernel records are buffered per point (the kernels reuse their
		// sample structs, so each is marshaled as it arrives) and
		// flushed as one contiguous block when the point completes.
		var recs []json.RawMessage
		var tel *sim.TelemetryConfig
		if telw != nil {
			tel = &sim.TelemetryConfig{Every: opt.Telemetry.Every, Emit: func(v any) {
				if b, merr := json.Marshal(v); merr == nil {
					recs = append(recs, tagPoint(i, b))
				}
			}}
		}
		var pt *pointTrace
		if opt.Trace != nil {
			pt = &pointTrace{rec: opt.Trace, pid: i + 1, prefix: fmt.Sprintf("p%d ", i)}
		}
		start := time.Now()
		r, rerr := runScenario(sc, tel, pt)
		dur := time.Since(start)
		mu.Lock()
		for _, b := range recs {
			telw.Emit(b)
		}
		if rerr == nil && opt.OnPoint != nil {
			opt.OnPoint(i, n, sc, r, PointInfo{Worker: worker, Duration: dur})
		}
		if opt.OnEvent != nil {
			ev := Event{
				Kind: "point_finish", Index: i, Total: n, Worker: worker,
				Label:      sc.Label(),
				DurationMS: float64(dur.Nanoseconds()) / 1e6,
			}
			if rerr != nil {
				ev.Err = rerr.Error()
			}
			opt.OnEvent(ev)
		}
		mu.Unlock()
		return r, rerr
	}, opt.Trace)
	out := &GridResult{Points: make([]GridPoint, n)}
	for i, sc := range scenarios {
		out.Points[i] = GridPoint{Scenario: sc}
		if i < len(done) && done[i] {
			out.Points[i].Result = results[i]
			out.Points[i].Done = true
		}
	}
	return out, err
}

// tagPoint splices "point":i in as the first member of the marshaled
// record obj: the same bytes as marshaling a struct that embeds the
// record behind a leading Point field.
func tagPoint(i int, obj []byte) json.RawMessage {
	rec := append(make([]byte, 0, len(obj)+16), `{"point":`...)
	rec = strconv.AppendInt(rec, int64(i), 10)
	rec = append(rec, ',')
	return append(rec, obj[1:]...)
}
