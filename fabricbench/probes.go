package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"time"

	"fabricpower/internal/core"
	"fabricpower/internal/dpm"
	"fabricpower/internal/fabric"
	"fabricpower/internal/netsim"
	"fabricpower/internal/packet"
	"fabricpower/internal/router"
	"fabricpower/internal/sim"
	"fabricpower/internal/sweep"
	"fabricpower/internal/telemetry/trace"
	"fabricpower/internal/traffic"
	"fabricpower/study"
)

// probeLane is the timeline row of the layer probes.
const probeLane = 90

// maxProbePoints bounds how many grid points the layer probes replay.
const maxProbePoints = 16

// probeSubset picks up to maxProbePoints point indices, drawn from the
// seed so every seed probes a fixed, varied subset.
func probeSubset(n int, seed int64) []int {
	idx := rand.New(rand.NewSource(seed)).Perm(n)
	if len(idx) > maxProbePoints {
		idx = idx[:maxProbePoints]
	}
	sort.Ints(idx)
	return idx
}

// layerAcc accumulates the layer probes' work and time.
type layerAcc struct {
	clock time.Duration // cost of one clock read, subtracted from per-call timings

	genNS, genSlots, genAllocs, genCells float64
	routerNS, routerSlots, routerAllocs  float64
	queueCells                           float64
	fabricNS, fabricSlots                float64
	dpmNS, dpmSlots                      float64

	netBuildMS                  []float64
	netStepNS, netSteps         float64
	idleNodeSlots, netNodeSlots float64
	// Profiler phase time, summed over shards; slotShardNS is the
	// sampled slots' wall time times the shard count.
	computeNS, exchangeNS, barrierNS, slotShardNS float64
	imbalance                                     []float64
}

// probe replays grid point sc through each layer's public functions,
// timing them from outside: the traffic generator, a router, a bare
// fabric, a power manager and the network kernel.
func (a *layerAcc) probe(sc study.Scenario, idx int, spans *spanRecorder, parent int) error {
	pt := spans.open("bench.probe_point", parent, probeLane, int64(idx))
	defer spans.close(pt)
	model, err := sc.Model.Build()
	if err != nil {
		return err
	}
	arch, err := core.ParseArchitecture(sc.Fabric.Arch)
	if err != nil {
		return err
	}
	queue := router.FIFO
	if sc.Queue == "voq" {
		queue = router.VOQ
	}
	ports, maxQ := sc.Fabric.Ports, 0
	var topo *netsim.Topology
	if sc.Network != nil {
		if topo, err = netsim.BuildTopology(sc.Network.Topology, sc.Network.Nodes); err != nil {
			return err
		}
		// Network points replay one router of the topology's radix at
		// the scenario's per-port load, with the network's queue cap.
		ports, maxQ = topo.Ports, sc.Network.MaxQueueCells
		if maxQ == 0 {
			maxQ = 64
		}
	}
	cellCfg := packet.Config{CellBits: sc.Fabric.CellBits, BusWidth: model.Tech.BusWidth}
	seed := sweep.PointSeed(sc.Sim.Seed, ports, sc.Traffic.Load)
	slots := *sc.Sim.WarmupSlots + sc.Sim.MeasureSlots
	newGen := func() (sim.Generator, error) {
		switch sc.Traffic.Kind {
		case "bursty":
			return traffic.NewOnOffInjector(ports, sc.Traffic.MeanBurstSlots, sc.Traffic.Load, cellCfg, nil, seed)
		case "packet":
			return traffic.NewPacketInjector(ports, sc.Traffic.Load, cellCfg, nil, seed)
		}
		// Uniform, and the kinds a standalone router cannot replay
		// (trace files, hotspots), use Bernoulli arrivals at the load.
		return traffic.NewInjector(ports, sc.Traffic.Load, cellCfg, nil, seed)
	}
	generate := func(name string) ([][]*packet.Cell, float64, error) {
		id := spans.open(name, pt, probeLane, int64(idx))
		defer spans.close(id)
		gen, err := newGen()
		if err != nil {
			return nil, 0, err
		}
		cells := make([][]*packet.Cell, slots)
		n := 0.0
		for s := uint64(0); s < slots; s++ {
			cells[s] = gen.Generate(s)
			n += float64(len(cells[s]))
		}
		return cells, n, nil
	}
	rcfg := router.Config{
		Arch:          arch,
		Fabric:        fabric.Config{Ports: ports, Cell: cellCfg, Model: model},
		Queue:         queue,
		MaxQueueCells: maxQ,
	}

	// traffic: the generator alone.
	before := readRuntime()
	t0 := time.Now()
	cells, n, err := generate("traffic.generate")
	if err != nil {
		return err
	}
	a.genNS += float64(time.Since(t0))
	a.genAllocs += float64(readRuntime().sub(before).allocs)
	a.genSlots += float64(slots)
	a.genCells += n

	// router: Inject and Step over the generated arrivals.
	r, err := router.New(rcfg)
	if err != nil {
		return err
	}
	id := spans.open("router.step", pt, probeLane, int64(idx))
	before = readRuntime()
	t0 = time.Now()
	queued := 0
	for s := uint64(0); s < slots; s++ {
		for _, c := range cells[s] {
			r.Inject(c, s)
		}
		r.Step(s)
		queued += r.QueuedCells()
	}
	a.routerNS += float64(time.Since(t0))
	a.routerAllocs += float64(readRuntime().sub(before).allocs)
	spans.close(id)
	a.routerSlots += float64(slots)
	a.queueCells += float64(queued)

	// fabric: fresh arrivals offered straight to a bare fabric.
	if cells, _, err = generate("bench.regenerate"); err != nil {
		return err
	}
	f, err := fabric.New(arch, rcfg.Fabric)
	if err != nil {
		return err
	}
	id = spans.open("fabric.step", pt, probeLane, int64(idx))
	t0 = time.Now()
	for s := uint64(0); s < slots; s++ {
		for _, c := range cells[s] {
			f.Offer(c)
		}
		f.Step(s)
	}
	a.fabricNS += float64(time.Since(t0))
	spans.close(id)
	a.fabricSlots += float64(slots)

	// dpm: the point's policy (alwayson when unmanaged) on a gated
	// router, idle slots taking the kernel's IdleSlot fast path.
	if err := a.probeDPM(sc, model, arch, rcfg, generate, slots, spans, pt, idx); err != nil {
		return err
	}
	return a.probeNetsim(sc, model, arch, queue, topo, seed, spans, pt, idx)
}

func (a *layerAcc) probeDPM(sc study.Scenario, model core.Model, arch core.Architecture, rcfg router.Config,
	generate func(string) ([][]*packet.Cell, float64, error), slots uint64, spans *spanRecorder, pt, idx int) error {
	cells, _, err := generate("bench.regenerate")
	if err != nil {
		return err
	}
	policy := sc.DPM
	if policy == "" {
		policy = "alwayson"
	}
	pol, err := dpm.NewPolicy(policy)
	if err != nil {
		return err
	}
	mgr, err := dpm.New(dpm.Config{Arch: arch, Ports: rcfg.Fabric.Ports, Model: model, CellBits: sc.Fabric.CellBits, Policy: pol})
	if err != nil {
		return err
	}
	rcfg.Gate = mgr
	r, err := router.New(rcfg)
	if err != nil {
		return err
	}
	id := spans.open("dpm.slot", pt, probeLane, int64(idx))
	defer spans.close(id)
	var ns time.Duration
	for s := uint64(0); s < slots; s++ {
		for _, c := range cells[s] {
			r.Inject(c, s)
		}
		if len(cells[s]) == 0 && r.QueuedCells()+r.InFlight() == 0 {
			t := time.Now()
			mgr.IdleSlot(s)
			ns += time.Since(t) - a.clock
			r.IdleStep(s)
			continue
		}
		t := time.Now()
		mgr.PreSlot(s, r)
		ns += time.Since(t) - a.clock
		del := r.Step(s)
		t = time.Now()
		mgr.PostSlot(s, del, r.Fabric().Energy())
		ns += time.Since(t) - a.clock
	}
	a.dpmNS += float64(ns)
	a.dpmSlots += float64(slots)
	return nil
}

// probeNetsim builds and steps the network kernel on the point: a
// network point is lowered exactly as the study layer lowers it; a
// single-router point is lifted into two of its routers linked
// back to back, the smallest network its fabric can form.
func (a *layerAcc) probeNetsim(sc study.Scenario, model core.Model, arch core.Architecture, queue router.QueueDiscipline,
	topo *netsim.Topology, seed int64, spans *spanRecorder, pt, idx int) error {
	var cfg netsim.Config
	if sc.Network != nil {
		var err error
		if cfg, err = lowerNetwork(sc, model, arch, queue, topo); err != nil {
			return err
		}
	} else {
		t, err := netsim.NewTopology("pair", 2, [][2]int{{0, 1}}, sc.Fabric.Ports)
		if err != nil {
			return err
		}
		kind := sc.Traffic.Kind
		if kind != "bursty" && kind != "packet" {
			kind = "uniform"
		}
		cfg = netsim.Config{Topology: t, Arch: arch, Model: model, CellBits: sc.Fabric.CellBits, Queue: queue,
			Policy: sc.DPM, Load: sc.Traffic.Load, Seed: seed,
			Traffic: netsim.Traffic{Kind: kind, MeanBurstSlots: sc.Traffic.MeanBurstSlots}}
	}
	slots := *sc.Sim.WarmupSlots + sc.Sim.MeasureSlots

	id := spans.open("netsim.build", pt, probeLane, int64(idx))
	t0 := time.Now()
	net, err := netsim.New(cfg)
	a.netBuildMS = append(a.netBuildMS, ms(time.Since(t0)))
	spans.close(id)
	if err != nil {
		return err
	}
	id = spans.open("netsim.step", pt, probeLane, int64(idx))
	nodes := cfg.Topology.Nodes
	var stepNS time.Duration
	idle := 0
	for s := uint64(0); s < slots; s++ {
		t := time.Now()
		net.Step(s)
		stepNS += time.Since(t) - a.clock
		for u := 0; u < nodes; u++ {
			if r := net.Router(u); r.QueuedCells()+r.InFlight() == 0 {
				idle++
			}
		}
	}
	net.Close()
	spans.close(id)
	a.netStepNS += float64(stepNS)
	a.netSteps += float64(slots)
	a.idleNodeSlots += float64(idle)
	a.netNodeSlots += float64(slots) * float64(nodes)

	// A second pass with the program's execution profiler attached
	// splits each shard's slot into compute, barrier and exchange.
	id = spans.open("netsim.step_profiled", pt, probeLane, int64(idx))
	defer spans.close(id)
	rec := trace.NewRecorder(0)
	cfg.Trace = &netsim.TraceConfig{Recorder: rec, Every: 8}
	pnet, err := netsim.New(cfg)
	if err != nil {
		return err
	}
	for s := uint64(0); s < slots; s++ {
		pnet.Step(s)
	}
	pnet.Close()
	if ep := pnet.ExecProfile(); ep != nil {
		a.imbalance = append(a.imbalance, ep.Imbalance)
	}
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		return err
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return err
	}
	shards := float64(pnet.Shards())
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.Dur == nil {
			continue
		}
		d := *ev.Dur * 1e3
		switch ev.Name {
		case "compute":
			a.computeNS += d
		case "exchange":
			a.exchangeNS += d
		case "barrier":
			a.barrierNS += d
		case "slot":
			a.slotShardNS += d * shards
		}
	}
	return nil
}

// lowerNetwork turns a resolved network scenario into the kernel's
// configuration, mirroring the study layer's lowering (topology,
// routing, matrix, traffic, seed and fault plan).
func lowerNetwork(sc study.Scenario, model core.Model, arch core.Architecture, queue router.QueueDiscipline, t *netsim.Topology) (netsim.Config, error) {
	ns := sc.Network
	rt, err := netsim.NewRouting(ns.Routing)
	if err != nil {
		return netsim.Config{}, err
	}
	m, err := netsim.NewMatrix(ns.Matrix)
	if err != nil {
		return netsim.Config{}, err
	}
	tr := netsim.Traffic{Kind: sc.Traffic.Kind, MeanBurstSlots: sc.Traffic.MeanBurstSlots}
	if sc.Traffic.Kind == "trace" {
		f, err := os.Open(sc.Traffic.Trace)
		if err != nil {
			return netsim.Config{}, err
		}
		defer f.Close()
		if tr.Trace, err = traffic.ReadTrace(f); err != nil {
			return netsim.Config{}, err
		}
	}
	cfg := netsim.Config{
		Topology: t, Arch: arch, Model: model, CellBits: sc.Fabric.CellBits, Queue: queue,
		MaxQueueCells: ns.MaxQueueCells, LinkQueueCells: ns.LinkQueueCells,
		Policy: sc.DPM, Routing: rt, Matrix: m, Load: sc.Traffic.Load, Traffic: tr,
		Shards: ns.Shards, IdleSkip: ns.IdleSkip,
		Seed: networkSeed(sc.Sim.Seed, ns.Topology, ns.Nodes, sc.Traffic.Load),
	}
	if f := ns.Failures; f != nil && (f.MTBF != 0 || f.NodeMTBF != 0 || len(f.Events) != 0) {
		plan := &netsim.FaultPlan{MTBF: f.MTBF, MTTR: f.MTTR, NodeMTBF: f.NodeMTBF, NodeMTTR: f.NodeMTTR,
			ResidualMW: f.ResidualMW, ReconvergeCostFJ: f.ReconvergeCostFJ}
		for _, e := range f.Events {
			ev := netsim.FaultEvent{Slot: e.Slot, Node: -1, Down: e.Down}
			if e.Node != nil {
				ev.Node = *e.Node
			} else if e.Link != nil {
				ev.From, ev.To = e.Link[0], e.Link[1]
			}
			plan.Events = append(plan.Events, ev)
		}
		cfg.Faults = plan
	}
	return cfg, nil
}

// networkSeed is the study layer's traffic-stream seed of a network
// point: an FNV-1a mix of the base seed, topology, node count and load.
func networkSeed(base int64, topo string, nodes int, load float64) int64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	mix(uint64(base))
	for _, b := range []byte(topo) {
		h ^= uint64(b)
		h *= prime64
	}
	mix(uint64(nodes))
	mix(math.Float64bits(load))
	return int64(h)
}

// layerMetrics converts the accumulated probe work into per-layer
// metrics.
func (a *layerAcc) layerMetrics(vals map[string]float64) {
	div := func(x, y float64) float64 {
		if y == 0 {
			return 0
		}
		return x / y
	}
	vals["traffic.generate_ns_per_slot"] = div(a.genNS, a.genSlots)
	vals["traffic.allocs_per_cell"] = div(a.genAllocs, a.genCells)
	vals["router.step_ns_per_slot"] = div(a.routerNS, a.routerSlots)
	vals["router.allocs_per_slot"] = div(a.routerAllocs, a.routerSlots)
	vals["router.queue_cells_mean"] = div(a.queueCells, a.routerSlots)
	vals["fabric.step_ns_per_slot"] = div(a.fabricNS, a.fabricSlots)
	vals["dpm.slot_ns"] = div(a.dpmNS, a.dpmSlots)
	vals["netsim.build_ms"] = median(a.netBuildMS)
	vals["netsim.step_us"] = div(a.netStepNS, a.netSteps) / 1e3
	vals["netsim.idle_node_frac"] = div(a.idleNodeSlots, a.netNodeSlots)
	vals["netsim.compute_frac"] = div(a.computeNS, a.slotShardNS)
	vals["netsim.exchange_frac"] = div(a.exchangeNS, a.slotShardNS)
	vals["netsim.barrier_wait_frac"] = div(a.barrierNS, a.slotShardNS)
	vals["netsim.shard_imbalance"] = median(a.imbalance)
}

// probeNote names the probe base for the printed report.
func (a *layerAcc) probeNote(points int) string {
	return fmt.Sprintf("%d probed points, %.0f replayed slots, %.0f generated cells, %.0f network node-slots",
		points, a.routerSlots, a.genCells, a.netNodeSlots)
}
