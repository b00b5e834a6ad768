package exp

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"fabricpower/study"
)

// netTestSpec is the network study on 4-node topologies with the
// default static model attached: topologies × shortest/consolidate ×
// alwayson/idlegate × loads.
func netTestSpec(topologies []string, loads ...float64) study.Spec {
	return gridSpec("net", study.Scenario{
		Model:   study.ModelSpec{Static: true},
		Fabric:  study.FabricSpec{Arch: "crossbar", CellBits: 256},
		Sim:     simSpec(100, 500, 3),
		Network: &study.NetworkSpec{Nodes: 4, Matrix: "uniform"},
	},
		stringAxis("topology", topologies...),
		stringAxis("routing", "shortest", "consolidate"),
		stringAxis("dpm", "alwayson", "idlegate"),
		floatAxis("load", loads...))
}

// ringAndFattree is the grid most network-study tests run.
func ringAndFattree() study.Spec { return netTestSpec([]string{"ring", "fattree"}, 0.1, 0.3) }

func TestRunNetworkStudy(t *testing.T) {
	s := runReport[*NetworkStudy](t, ringAndFattree(), 1)
	if want := 2 * 2 * 2 * 2; len(s.Points) != want {
		t.Fatalf("points = %d, want %d", len(s.Points), want)
	}
	for _, pt := range s.Points {
		if pt.Result.Net.DeliveredCells == 0 {
			t.Errorf("%s/%s/%s at %g: no cells delivered", pt.Topology, pt.Routing, pt.Policy, pt.Load)
		}
		if pt.Result.Power.TotalMW() <= 0 {
			t.Errorf("%s/%s/%s at %g: no power drawn", pt.Topology, pt.Routing, pt.Policy, pt.Load)
		}
	}
	// The identical-traffic guarantee: at one (topology, load) point,
	// every routing × policy pair must see the same offered cells.
	for _, topo := range s.Topologies {
		for _, load := range s.Loads {
			base, _ := s.Point(topo, "shortest", "alwayson", load)
			for _, rt := range s.Routings {
				for _, pol := range s.Policies {
					pt, ok := s.Point(topo, rt, pol, load)
					if !ok {
						t.Fatalf("missing point %s/%s/%s %g", topo, rt, pol, load)
					}
					if pt.Result.Net.OfferedCells != base.Result.Net.OfferedCells {
						t.Errorf("%s at %g: %s/%s offered %d cells, alwayson baseline %d — traffic streams diverged",
							topo, load, rt, pol, pt.Result.Net.OfferedCells, base.Result.Net.OfferedCells)
					}
				}
			}
		}
	}
}

// TestRunNetworkStudyWorkerDeterminism pins the sweep invariant on the
// network study: a parallel run is bit-identical to the sequential one.
func TestRunNetworkStudyWorkerDeterminism(t *testing.T) {
	seq := runReport[*NetworkStudy](t, ringAndFattree(), 1)
	par := runReport[*NetworkStudy](t, ringAndFattree(), 8)
	if !reflect.DeepEqual(seq, par) {
		t.Error("network study differs between Workers:1 and Workers:8")
	}
}

func TestNetworkStudyRenderAndCSV(t *testing.T) {
	s := runReport[*NetworkStudy](t, netTestSpec([]string{"fattree"}, 0.1, 0.3), 0)
	var buf bytes.Buffer
	if err := s.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Network study — fattree", "consolidate", "idlegate", "saved_mW"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
	buf.Reset()
	if err := s.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if want := 1 + len(s.Points); len(lines) != want {
		t.Errorf("CSV rows = %d, want %d", len(lines), want)
	}
	if !strings.HasPrefix(lines[0], "topology,routing,policy") {
		t.Errorf("CSV header = %q", lines[0])
	}
}

// TestNetworkStudyConsolidationSavings pins the study-level headline:
// on the fat-tree at low load, the energy-aware pairing saves network
// power over the baseline pairing.
func TestNetworkStudyConsolidationSavings(t *testing.T) {
	s := runReport[*NetworkStudy](t, netTestSpec([]string{"fattree"}, 0.1), 0)
	base, ok1 := s.Point("fattree", "shortest", "alwayson", 0.1)
	green, ok2 := s.Point("fattree", "consolidate", "idlegate", 0.1)
	if !ok1 || !ok2 {
		t.Fatal("study points missing")
	}
	if green.Result.Power.TotalMW() >= base.Result.Power.TotalMW() {
		t.Errorf("consolidate+idlegate %.3f mW >= shortest+alwayson %.3f mW",
			green.Result.Power.TotalMW(), base.Result.Power.TotalMW())
	}
}
