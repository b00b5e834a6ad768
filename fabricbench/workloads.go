package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"fabricpower/internal/netsim"
	"fabricpower/study"
)

// workload describes one named benchmark input. Batch workloads run a
// generated spec through study.Grid.Run; serve-corpus runs the
// checked-in corpus through an in-process studyd server.
type workload struct {
	name string
	// spec generates the batch spec from the benchmark seed.
	spec func(seed int64) study.Spec
	// workers is the sweep worker count of the timed Grid.Run.
	workers int
}

var workloads = []workload{
	{name: "paper-sweep", spec: paperSweepSpec, workers: 2},
	{name: "net-lowload", spec: netLowloadSpec, workers: 1},
	{name: "net-faults", spec: netFaultsSpec, workers: 1},
	{name: "serve-corpus"},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

func u64(v uint64) *uint64 { return &v }

// paperSweepSpec is the paper's Fig. 9 grid, exactly as `fabricpower
// fig9 -print-scenario` prints it, seeded from the benchmark seed.
func paperSweepSpec(seed int64) study.Spec {
	return study.Spec{Kind: "fig9", Grid: study.Grid{
		Base: study.Scenario{
			Fabric: study.FabricSpec{CellBits: 1024},
			Queue:  "fifo",
			Sim:    study.SimSpec{WarmupSlots: u64(300), MeasureSlots: 3000, Seed: seed},
		},
		Axes: []study.Axis{
			{Name: "ports", Ints: []int{4, 8, 16, 32}},
			{Name: "arch", Strings: []string{"crossbar", "fullyconnected", "banyan", "batcherbanyan"}},
			{Name: "load", Floats: []float64{0.1, 0.2, 0.3, 0.4, 0.5}},
		},
	}}
}

// netLowloadSpec is a consolidating, idle-gated 48-router fat-tree at
// 5-10% bursty load: most spines idle, so the kernel's idle skip and
// the DPM idle fixpoint dominate.
func netLowloadSpec(seed int64) study.Spec {
	return study.Spec{Kind: "net", Grid: study.Grid{
		Base: study.Scenario{
			Model:   study.ModelSpec{Static: true},
			Fabric:  study.FabricSpec{Arch: "crossbar", CellBits: 1024},
			Traffic: study.TrafficSpec{Kind: "bursty"},
			Queue:   "fifo",
			DPM:     "idlegate",
			Sim:     study.SimSpec{WarmupSlots: u64(300), MeasureSlots: 3000, Seed: seed},
			Network: &study.NetworkSpec{Topology: "fattree", Nodes: 32, Routing: "consolidate", Matrix: "uniform", Shards: 2},
		},
		Axes: []study.Axis{{Name: "load", Floats: []float64{0.05, 0.10}}},
	}}
}

// netFaultsSpec is a busy 24-router Banyan/VOQ fat-tree under the
// composite policy with renewal link failures.
func netFaultsSpec(seed int64) study.Spec {
	return study.Spec{Kind: "net", Grid: study.Grid{
		Base: study.Scenario{
			Model:   study.ModelSpec{Static: true},
			Fabric:  study.FabricSpec{Arch: "banyan", CellBits: 1024},
			Traffic: study.TrafficSpec{Kind: "uniform"},
			Queue:   "voq",
			DPM:     "composite",
			Sim:     study.SimSpec{WarmupSlots: u64(100), MeasureSlots: 500, Seed: seed},
			Network: &study.NetworkSpec{Topology: "fattree", Nodes: 16, Routing: "shortest", Matrix: "uniform", Shards: 1,
				Failures: &study.FailureSpec{MTBF: 3000, MTTR: 200}},
		},
		Axes: []study.Axis{{Name: "load", Floats: []float64{0.30, 0.45}}},
	}}
}

// encodeSpec renders a spec as the JSON document the program reads.
func encodeSpec(s study.Spec) ([]byte, error) {
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// corpusSpecs reads the checked-in scenarios/*.json corpus and rewrites
// each spec's seed from the benchmark seed and its network shards to 1.
func corpusSpecs(dir string, seed int64) (names []string, bodies [][]byte, err error) {
	files, err := filepath.Glob(filepath.Join(dir, "scenarios", "*.json"))
	if err != nil {
		return nil, nil, err
	}
	sort.Strings(files)
	if len(files) == 0 {
		return nil, nil, fmt.Errorf("no scenarios/*.json under %s", dir)
	}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			return nil, nil, err
		}
		s, err := study.DecodeSpec(bytes.NewReader(raw))
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", f, err)
		}
		s.Base.Sim.Seed = seed
		if s.Base.Network != nil {
			s.Base.Network.Shards = 1
		}
		body, err := encodeSpec(s)
		if err != nil {
			return nil, nil, err
		}
		names = append(names, filepath.Base(f))
		bodies = append(bodies, body)
	}
	return names, bodies, nil
}

// nodeSlots counts the router-slots a resolved scenario simulates:
// routers × (warmup + measure).
func nodeSlots(sc study.Scenario) (float64, error) {
	routers := 1
	if sc.Network != nil {
		t, err := netsim.BuildTopology(sc.Network.Topology, sc.Network.Nodes)
		if err != nil {
			return 0, err
		}
		routers = t.Nodes
	}
	return float64(routers) * float64(*sc.Sim.WarmupSlots+sc.Sim.MeasureSlots), nil
}

// prepared is a decoded, enumerated spec ready to run.
type prepared struct {
	name      string
	body      []byte
	spec      study.Spec
	points    []study.Scenario // resolved, in enumeration order
	nodeSlots float64
}

// prepare decodes a generated spec document, enumerates its grid and
// builds every point's energy model: the set-up a `fabricpower run`
// pays before its first point.
func prepare(name string, body []byte) (*prepared, error) {
	spec, err := study.DecodeSpec(bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	scs, err := spec.Grid.Enumerate()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	p := &prepared{name: name, body: body, spec: spec}
	for _, sc := range scs {
		r := sc.Resolved()
		if _, err := r.Model.Build(); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		ns, err := nodeSlots(r)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		p.points = append(p.points, r)
		p.nodeSlots += ns
	}
	return p, nil
}
