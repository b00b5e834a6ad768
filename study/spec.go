package study

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"fabricpower/internal/core"
)

// Scenario fully describes one operating point as data: model, fabric,
// traffic, queueing, power management and (optionally) a network of
// routers. The zero value is a valid single-router scenario — paper
// model, 16-port crossbar, uniform traffic at zero load.
//
// Scenarios serialize to JSON; Decode rejects unknown fields so typos
// in scenario files fail loudly instead of silently selecting defaults.
type Scenario struct {
	// Name is a free-form label carried through results.
	Name string `json:"name,omitempty"`
	// Model selects the bit-energy model.
	Model ModelSpec `json:"model,omitempty"`
	// Fabric selects the switch fabric of the router (for a network
	// scenario: of every router; Ports is then sized by the topology
	// and must be left zero).
	Fabric FabricSpec `json:"fabric,omitempty"`
	// Traffic shapes the workload. For a network scenario only Load is
	// used (the demand shape comes from Network.Matrix).
	Traffic TrafficSpec `json:"traffic,omitempty"`
	// Queue selects the ingress discipline: "fifo" (default, the
	// paper's) or "voq".
	Queue string `json:"queue,omitempty"`
	// DPM names the dynamic power-management policy driving the
	// router(s); empty means unmanaged (the paper's always-on router
	// with no management ledger).
	DPM string `json:"dpm,omitempty"`
	// Sim bounds the run and seeds the traffic.
	Sim SimSpec `json:"sim,omitempty"`
	// Network, when present, lifts the scenario from one router to a
	// topology of routers.
	Network *NetworkSpec `json:"network,omitempty"`
	// Char parameterizes the gate-level characterization study
	// (Spec kind "table1"); ignored by simulation scenarios.
	Char *CharSpec `json:"char,omitempty"`
}

// FabricSpec selects the switch fabric.
type FabricSpec struct {
	// Arch is the architecture name: "crossbar" (default),
	// "fullyconnected", "banyan" or "batcherbanyan".
	Arch string `json:"arch,omitempty"`
	// Ports is the fabric size (default 16). Must stay zero for
	// network scenarios — the topology sizes every router.
	Ports int `json:"ports,omitempty"`
	// CellBits is the fixed cell size (default 1024, at most 65,536).
	CellBits int `json:"cellBits,omitempty"`
}

// maxCellBits caps FabricSpec.CellBits at 64× the paper's 1,024-bit
// cell. Every queued and in-flight cell carries its payload, so an
// unbounded size lets one spec exhaust memory before the first slot.
const maxCellBits = 1 << 16

// TrafficSpec shapes the workload. Every kind drives single-router and
// network scenarios alike — in a network, the kind selects each flow's
// per-hop injection process at the rate the traffic matrix assigns it —
// except "hotspot", which is a destination pattern and therefore only
// meaningful on a single router (networks shape demand with
// Network.Matrix instead).
type TrafficSpec struct {
	// Kind names the traffic generator: "uniform" (default), "bursty",
	// "packet" (variable-size packets segmented into cell trains),
	// "hotspot" (single-router only), "trace", or a RegisterTraffic
	// extension.
	Kind string `json:"kind,omitempty"`
	// Load is the per-port injection probability per slot in [0,1].
	Load float64 `json:"load,omitempty"`
	// MeanBurstSlots tunes "bursty" (default 10).
	MeanBurstSlots float64 `json:"meanBurstSlots,omitempty"`
	// HotspotPort and HotspotFraction tune "hotspot". A nil fraction
	// selects the default 0.3; an explicit 0 means literally zero —
	// the pointer distinguishes unset from zero.
	HotspotPort     int      `json:"hotspotPort,omitempty"`
	HotspotFraction *float64 `json:"hotspotFraction,omitempty"`
	// Trace is the trace-file path for kind "trace".
	Trace string `json:"trace,omitempty"`
}

// SimSpec bounds a run.
type SimSpec struct {
	// WarmupSlots run before measurement. A nil pointer selects the
	// default 300; an explicit 0 measures from slot 0 with cold queues
	// — the pointer distinguishes unset from zero.
	WarmupSlots *uint64 `json:"warmupSlots,omitempty"`
	// MeasureSlots is the measured window (default 3000).
	MeasureSlots uint64 `json:"measureSlots,omitempty"`
	// Seed is the experiment base seed. Each operating point derives
	// its traffic stream from (Seed, coordinates) exactly as the
	// experiment runners do, so identical scenarios reproduce
	// identical cell streams.
	Seed int64 `json:"seed,omitempty"`
}

// NetworkSpec lifts a scenario to a network of routers.
type NetworkSpec struct {
	// Topology names the builder: "chain", "ring", "star", "fattree",
	// or a RegisterTopology extension (default "fattree").
	Topology string `json:"topology,omitempty"`
	// Nodes sizes the topology (default 4; for "fattree" it counts the
	// leaves).
	Nodes int `json:"nodes,omitempty"`
	// Routing names the policy: "shortest" (default), "consolidate",
	// or a RegisterRouting extension.
	Routing string `json:"routing,omitempty"`
	// Matrix names the demand shape: "uniform" (default), "gravity",
	// "hotspot", or a RegisterMatrix extension.
	Matrix string `json:"matrix,omitempty"`
	// MaxQueueCells caps each ingress queue (default 64);
	// LinkQueueCells caps each inter-router link queue (default 32).
	MaxQueueCells  int `json:"maxQueueCells,omitempty"`
	LinkQueueCells int `json:"linkQueueCells,omitempty"`
	// Shards partitions the routers into shards that the stepping
	// goroutine and Shards−1 workers compute each slot as one
	// fork-join (see netsim.Config.Shards); results are bit-identical
	// for any value. 0 or 1 steps the network single-threaded, -1 uses
	// one shard per core.
	Shards int `json:"shards,omitempty"`
	// Failures schedules deterministic link/router faults on the
	// network (netsim.FaultPlan). Absent — or present but empty — the
	// run is fault-free and byte-identical to a spec without the block.
	Failures *FailureSpec `json:"failures,omitempty"`
	// IdleSkip selects the kernel's idle-node fast path: "auto" (or
	// absent) and "on" enable it, "off" forces every node through the
	// full per-slot walk. Both paths are bit-identical — the switch
	// exists so a suspected divergence can be bisected from a spec.
	IdleSkip string `json:"idleSkip,omitempty"`
}

// FailureSpec is the `failures` block of a network scenario: the
// statistical fault processes and/or the explicit event list a run
// injects, plus the energy prices of failure handling.
type FailureSpec struct {
	// MTBF and MTTR are each link pair's mean slots between failures
	// and mean slots to repair; exponential draws from per-pair streams
	// seeded by the scenario seed. MTBF 0 disables generated link
	// faults.
	MTBF float64 `json:"mtbf,omitempty"`
	MTTR float64 `json:"mttr,omitempty"`
	// NodeMTBF and NodeMTTR are the router-level analogue.
	NodeMTBF float64 `json:"nodeMtbf,omitempty"`
	NodeMTTR float64 `json:"nodeMttr,omitempty"`
	// Events pin explicit faults (merged with the generated schedule).
	Events []FaultEventSpec `json:"events,omitempty"`
	// ResidualMW is a failed router's parked power draw.
	ResidualMW float64 `json:"residualMW,omitempty"`
	// ReconvergeCostFJ is charged per rerouted flow at each routing
	// re-convergence.
	ReconvergeCostFJ float64 `json:"reconvergeCostFJ,omitempty"`
}

// FaultEventSpec is one explicit fault: exactly one of Link and Node
// names the failing entity.
type FaultEventSpec struct {
	// Slot is when the event takes effect.
	Slot uint64 `json:"slot"`
	// Link names an undirected link pair by its two node ids.
	Link *[2]int `json:"link,omitempty"`
	// Node names a router.
	Node *int `json:"node,omitempty"`
	// Down is true for a failure, false for a repair.
	Down bool `json:"down"`
}

// empty reports whether the block schedules nothing.
func (f *FailureSpec) empty() bool {
	return f == nil || (f.MTBF == 0 && f.NodeMTBF == 0 && len(f.Events) == 0)
}

// CharSpec parameterizes the Table 1 gate-level characterization.
type CharSpec struct {
	// Cycles per input vector (default 192).
	Cycles int `json:"cycles,omitempty"`
	// BusWidth of the switch datapaths (default 32).
	BusWidth int `json:"busWidth,omitempty"`
	// MuxSizes lists the N-input MUX variants (default 4,8,16,32).
	MuxSizes []int `json:"muxSizes,omitempty"`
	// Seed drives the payload streams.
	Seed int64 `json:"seed,omitempty"`
}

// clone deep-copies the scenario's pointer fields so enumerated grid
// points can be mutated independently.
func (s Scenario) clone() Scenario {
	out := s
	if s.Network != nil {
		n := *s.Network
		if n.Failures != nil {
			f := *n.Failures
			f.Events = append([]FaultEventSpec(nil), f.Events...)
			n.Failures = &f
		}
		out.Network = &n
	}
	if s.Char != nil {
		c := *s.Char
		c.MuxSizes = append([]int(nil), s.Char.MuxSizes...)
		out.Char = &c
	}
	if s.Sim.WarmupSlots != nil {
		w := *s.Sim.WarmupSlots
		out.Sim.WarmupSlots = &w
	}
	if s.Traffic.HotspotFraction != nil {
		f := *s.Traffic.HotspotFraction
		out.Traffic.HotspotFraction = &f
	}
	if s.Model.TechScale != nil {
		ts := *s.Model.TechScale
		out.Model.TechScale = &ts
	}
	return out
}

// Resolved returns the scenario with every defaulted field filled in
// to its effective value — what RunScenario actually executes. Grid
// results carry resolved scenarios so report assembly reads the real
// coordinates even when a hand-written spec leaned on defaults.
func (s Scenario) Resolved() Scenario {
	return s.clone().withDefaults()
}

// withDefaults resolves every defaulted field to its effective value.
func (s Scenario) withDefaults() Scenario {
	if s.Fabric.Arch == "" {
		s.Fabric.Arch = "crossbar"
	}
	if s.Fabric.Ports == 0 && s.Network == nil {
		s.Fabric.Ports = 16
	}
	if s.Fabric.CellBits == 0 {
		s.Fabric.CellBits = 1024
	}
	if s.Traffic.Kind == "" {
		s.Traffic.Kind = "uniform"
	}
	if s.Traffic.MeanBurstSlots == 0 {
		s.Traffic.MeanBurstSlots = 10
	}
	if s.Traffic.HotspotFraction == nil {
		f := 0.3
		s.Traffic.HotspotFraction = &f
	}
	if s.Queue == "" {
		s.Queue = "fifo"
	}
	if s.Sim.WarmupSlots == nil {
		w := uint64(300)
		s.Sim.WarmupSlots = &w
	}
	if s.Sim.MeasureSlots == 0 {
		s.Sim.MeasureSlots = 3000
	}
	if s.Network != nil {
		n := *s.Network
		if n.Topology == "" {
			n.Topology = "fattree"
		}
		if n.Nodes == 0 {
			n.Nodes = 4
		}
		if n.Routing == "" {
			n.Routing = "shortest"
		}
		if n.Matrix == "" {
			n.Matrix = "uniform"
		}
		s.Network = &n
	}
	return s
}

// Validate reports the first inconsistency in the scenario. Name
// resolution of traffic kinds, policies, topologies and matrices
// happens at run time against the registries; Validate checks the
// structural fields.
func (s Scenario) Validate() error {
	sd := s.withDefaults()
	if _, err := core.ParseArchitecture(sd.Fabric.Arch); err != nil {
		return fmt.Errorf("study: fabric: %w", err)
	}
	if sd.Queue != "fifo" && sd.Queue != "voq" {
		return fmt.Errorf("study: unknown queue discipline %q (want fifo or voq)", sd.Queue)
	}
	if sd.Traffic.Load < 0 || sd.Traffic.Load > 1 {
		return fmt.Errorf("study: load must be in [0,1], got %g", sd.Traffic.Load)
	}
	if f := *sd.Traffic.HotspotFraction; f < 0 || f > 1 {
		return fmt.Errorf("study: hotspot fraction must be in [0,1], got %g", f)
	}
	if sd.Fabric.CellBits <= 0 {
		return fmt.Errorf("study: cell bits must be positive, got %d", sd.Fabric.CellBits)
	}
	if sd.Fabric.CellBits > maxCellBits {
		return fmt.Errorf("study: fabric.cellBits %d exceeds the limit of %d bits", sd.Fabric.CellBits, maxCellBits)
	}
	if s.Network != nil {
		if s.Fabric.Ports != 0 {
			return fmt.Errorf("study: network scenarios size router ports from the topology; leave fabric.ports zero (got %d)", s.Fabric.Ports)
		}
		if sd.Network.Nodes < 2 {
			return fmt.Errorf("study: network needs >= 2 nodes, got %d", sd.Network.Nodes)
		}
		if sd.Traffic.Kind == "hotspot" {
			return fmt.Errorf("study: traffic kind hotspot is a single-router destination pattern; network scenarios shape demand with network.matrix: \"hotspot\"")
		}
		if f := sd.Network.Failures; f != nil {
			if f.MTBF < 0 || f.MTTR < 0 || f.NodeMTBF < 0 || f.NodeMTTR < 0 {
				return fmt.Errorf("study: failures: mtbf/mttr must be >= 0")
			}
			if f.MTBF > 0 && f.MTTR <= 0 {
				return fmt.Errorf("study: failures: mtbf %g needs mttr > 0", f.MTBF)
			}
			if f.NodeMTBF > 0 && f.NodeMTTR <= 0 {
				return fmt.Errorf("study: failures: nodeMtbf %g needs nodeMttr > 0", f.NodeMTBF)
			}
			for i, e := range f.Events {
				if (e.Link == nil) == (e.Node == nil) {
					return fmt.Errorf("study: failures: event %d must name exactly one of link or node", i)
				}
			}
		}
	} else if sd.Fabric.Ports < 1 {
		return fmt.Errorf("study: ports must be >= 1, got %d", sd.Fabric.Ports)
	}
	return s.Model.validate()
}

// Axis is one swept dimension of a Grid: a registered axis name and the
// values it takes, in exactly one of the three typed lists.
type Axis struct {
	Name    string    `json:"name"`
	Ints    []int     `json:"ints,omitempty"`
	Floats  []float64 `json:"floats,omitempty"`
	Strings []string  `json:"strings,omitempty"`
}

// Len returns the number of values on the axis.
func (a Axis) Len() int {
	switch {
	case a.Ints != nil:
		return len(a.Ints)
	case a.Floats != nil:
		return len(a.Floats)
	default:
		return len(a.Strings)
	}
}

func (a Axis) validate() error {
	filled := 0
	if a.Ints != nil {
		filled++
	}
	if a.Floats != nil {
		filled++
	}
	if a.Strings != nil {
		filled++
	}
	if filled != 1 || a.Len() == 0 {
		return fmt.Errorf("study: axis %q must fill exactly one non-empty value list", a.Name)
	}
	return nil
}

// AxisApplier writes value i of axis a into the scenario. Appliers for
// new axis names are added with RegisterAxis.
type AxisApplier func(sc *Scenario, a Axis, i int) error

var (
	axisMu       sync.RWMutex
	axisAppliers = map[string]AxisApplier{
		"ports": intAxis(func(sc *Scenario, v int) { sc.Fabric.Ports = v }),
		"nodes": intAxis(func(sc *Scenario, v int) {
			ensureNetwork(sc).Nodes = v
		}),
		"cellbits": intAxis(func(sc *Scenario, v int) { sc.Fabric.CellBits = v }),
		"seed":     intAxis(func(sc *Scenario, v int) { sc.Sim.Seed = int64(v) }),
		"load":     floatAxis(func(sc *Scenario, v float64) { sc.Traffic.Load = v }),
		"arch":     stringAxis(func(sc *Scenario, v string) { sc.Fabric.Arch = v }),
		"dpm":      stringAxis(func(sc *Scenario, v string) { sc.DPM = v }),
		"queue":    stringAxis(func(sc *Scenario, v string) { sc.Queue = v }),
		"traffic":  stringAxis(func(sc *Scenario, v string) { sc.Traffic.Kind = v }),
		"topology": stringAxis(func(sc *Scenario, v string) {
			ensureNetwork(sc).Topology = v
		}),
		"routing": stringAxis(func(sc *Scenario, v string) {
			ensureNetwork(sc).Routing = v
		}),
		"matrix": stringAxis(func(sc *Scenario, v string) {
			ensureNetwork(sc).Matrix = v
		}),
		"mtbf": floatAxis(func(sc *Scenario, v float64) {
			ensureFailures(sc).MTBF = v
		}),
		"mttr": floatAxis(func(sc *Scenario, v float64) {
			ensureFailures(sc).MTTR = v
		}),
	}
)

func ensureNetwork(sc *Scenario) *NetworkSpec {
	if sc.Network == nil {
		sc.Network = &NetworkSpec{}
	}
	return sc.Network
}

func ensureFailures(sc *Scenario) *FailureSpec {
	n := ensureNetwork(sc)
	if n.Failures == nil {
		n.Failures = &FailureSpec{}
	}
	return n.Failures
}

func intAxis(set func(*Scenario, int)) AxisApplier {
	return func(sc *Scenario, a Axis, i int) error {
		if a.Ints == nil {
			return fmt.Errorf("study: axis %q takes ints", a.Name)
		}
		set(sc, a.Ints[i])
		return nil
	}
}

func floatAxis(set func(*Scenario, float64)) AxisApplier {
	return func(sc *Scenario, a Axis, i int) error {
		if a.Floats == nil {
			return fmt.Errorf("study: axis %q takes floats", a.Name)
		}
		set(sc, a.Floats[i])
		return nil
	}
}

func stringAxis(set func(*Scenario, string)) AxisApplier {
	return func(sc *Scenario, a Axis, i int) error {
		if a.Strings == nil {
			return fmt.Errorf("study: axis %q takes strings", a.Name)
		}
		set(sc, a.Strings[i])
		return nil
	}
}

// RegisterAxis makes a new axis name sweepable in grids. Built-in and
// already-registered names are rejected.
func RegisterAxis(name string, apply AxisApplier) error {
	if name == "" || apply == nil {
		return fmt.Errorf("study: axis registration needs a name and an applier")
	}
	axisMu.Lock()
	defer axisMu.Unlock()
	if _, ok := axisAppliers[name]; ok {
		return fmt.Errorf("study: axis %q already registered", name)
	}
	axisAppliers[name] = apply
	return nil
}

// AxisNames lists the registered axis names, sorted.
func AxisNames() []string {
	axisMu.RLock()
	defer axisMu.RUnlock()
	names := make([]string, 0, len(axisAppliers))
	for name := range axisAppliers {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Grid is a base scenario plus the axes swept over it. The first axis
// is outermost — the canonical nesting order of the paper's figures —
// and the enumeration order is the deterministic point order of the
// sweep.
type Grid struct {
	Base Scenario `json:"base"`
	Axes []Axis   `json:"axes,omitempty"`
}

// Enumerate expands the grid into its scenarios in sweep order.
// Infeasible single-router points — a Batcher-Banyan below 4 ports —
// are dropped, mirroring the experiment runners' grid filtering.
func (g Grid) Enumerate() ([]Scenario, error) {
	for _, a := range g.Axes {
		if err := a.validate(); err != nil {
			return nil, err
		}
		axisMu.RLock()
		_, ok := axisAppliers[a.Name]
		axisMu.RUnlock()
		if !ok {
			return nil, fmt.Errorf("study: unknown axis %q (want one of %v)", a.Name, AxisNames())
		}
	}
	scenarios := []Scenario{g.Base}
	for _, a := range g.Axes {
		next := make([]Scenario, 0, len(scenarios)*a.Len())
		for _, sc := range scenarios {
			for i := 0; i < a.Len(); i++ {
				out := sc.clone()
				axisMu.RLock()
				apply := axisAppliers[a.Name]
				axisMu.RUnlock()
				if err := apply(&out, a, i); err != nil {
					return nil, err
				}
				next = append(next, out)
			}
		}
		scenarios = next
	}
	feasible := scenarios[:0]
	for _, sc := range scenarios {
		if sc.Network == nil && sc.Fabric.Arch == "batcherbanyan" && sc.Fabric.Ports < 4 && sc.Fabric.Ports != 0 {
			continue
		}
		feasible = append(feasible, sc)
	}
	return feasible, nil
}

// SpecVersion is the schema version this build reads and writes.
// Encode stamps it on every spec; DecodeSpec rejects any other
// non-zero version, so a spec written by a future schema fails loudly
// instead of silently half-parsing.
const SpecVersion = 1

// Spec is the on-disk form of a study: a schema version, a grid, and
// the kind of report to render. An empty kind renders the generic
// per-point table; the paper's kinds ("point", "fig9", "fig10",
// "crossover", "saturate", "table1", "dpm", "net") render its figures
// and tables. The paper's own studies are spec files of these kinds,
// embedded in fabricpower and printed by `fabricpower <study>
// -print-scenario`; see `fabricpower run` and internal/exp. The
// single-point kinds "point" and "table1" take no axes.
type Spec struct {
	// Version is the schema version (SpecVersion). Zero is read as
	// version 1 — the schema predates the field — and Encode always
	// stamps the current version.
	Version int    `json:"version"`
	Kind    string `json:"study,omitempty"`
	Grid
}

// Encode writes the spec as indented JSON, stamped with the current
// schema version.
func (s Spec) Encode(w io.Writer) error {
	if s.Version == 0 {
		s.Version = SpecVersion
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// decorateDecodeErr rewrites a json decode failure into an error that
// names the offending field and value: unknown fields (typos) and type
// mismatches are by far the most common spec-file mistakes, and the
// raw encoding/json messages bury the field name.
func decorateDecodeErr(what string, err error) error {
	var ute *json.UnmarshalTypeError
	if errors.As(err, &ute) && ute.Field != "" {
		return fmt.Errorf("study: decoding %s: field %q cannot hold a JSON %s (wants %s)", what, ute.Field, ute.Value, ute.Type)
	}
	if rest, ok := strings.CutPrefix(err.Error(), "json: unknown field "); ok {
		return fmt.Errorf("study: decoding %s: unknown field %s — check the spelling against the %s schema", what, rest, what)
	}
	return fmt.Errorf("study: decoding %s: %w", what, err)
}

// DecodeSpec parses a spec from JSON, rejecting unknown fields and
// unsupported schema versions, and validates the base scenario.
func DecodeSpec(r io.Reader) (Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, decorateDecodeErr("spec", err)
	}
	// A spec file holds exactly one document.
	if dec.More() {
		return Spec{}, fmt.Errorf("study: trailing data after spec document")
	}
	if s.Version != 0 && s.Version != SpecVersion {
		return Spec{}, fmt.Errorf("study: spec version %d is not supported (this build reads version %d); re-export the spec or upgrade", s.Version, SpecVersion)
	}
	if s.Version == 0 {
		s.Version = SpecVersion
	}
	if err := s.Base.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// DecodeScenario parses a bare scenario from JSON, rejecting unknown
// fields, and validates it.
func DecodeScenario(r io.Reader) (Scenario, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var sc Scenario
	if err := dec.Decode(&sc); err != nil {
		return Scenario{}, decorateDecodeErr("scenario", err)
	}
	if err := sc.Validate(); err != nil {
		return Scenario{}, err
	}
	return sc, nil
}

// MarshalIndent renders a scenario as indented JSON (a convenience for
// -print-scenario and tests).
func (s Scenario) MarshalIndent() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
