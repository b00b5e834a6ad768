package exp

import (
	"context"
	"fmt"
	"io"

	"fabricpower/internal/core"
	"fabricpower/internal/plot"
	"fabricpower/study"
)

// NetPoint is one operating point of the network study: a topology
// carrying one traffic load, routed by one policy, with one DPM policy
// on every router.
type NetPoint struct {
	Topology string
	Routing  string
	Policy   string
	Load     float64
	Result   study.Result
}

// NetworkStudy is the topology × routing × DPM policy × load grid with
// the network-wide report at every point.
type NetworkStudy struct {
	Arch       core.Architecture
	Nodes      int
	Topologies []string
	Routings   []string
	Policies   []string
	Loads      []float64
	Points     []NetPoint
}

// netFromSpec runs the grid and shapes the results into the study.
func netFromSpec(ctx context.Context, spec study.Spec, opt study.RunOptions) (*NetworkStudy, error) {
	if spec.Base.Network == nil {
		return nil, fmt.Errorf("exp: net spec needs a network block")
	}
	gr, err := spec.Grid.Run(ctx, opt)
	if err != nil {
		return nil, err
	}
	base := spec.Base.Resolved()
	arch, err := core.ParseArchitecture(base.Fabric.Arch)
	if err != nil {
		return nil, err
	}
	s := &NetworkStudy{
		Arch:       arch,
		Nodes:      base.Network.Nodes,
		Topologies: axisStrings(spec.Axes, "topology", []string{base.Network.Topology}),
		Routings:   axisStrings(spec.Axes, "routing", []string{base.Network.Routing}),
		Policies:   axisStrings(spec.Axes, "dpm", []string{base.DPM}),
		Loads:      axisFloats(spec.Axes, "load", []float64{base.Traffic.Load}),
		Points:     make([]NetPoint, len(gr.Points)),
	}
	for i, pt := range gr.Points {
		s.Points[i] = NetPoint{
			Topology: pt.Scenario.Network.Topology,
			Routing:  pt.Scenario.Network.Routing,
			Policy:   pt.Scenario.DPM,
			Load:     pt.Scenario.Traffic.Load,
			Result:   pt.Result,
		}
	}
	return s, nil
}

// Point finds one operating point.
func (s *NetworkStudy) Point(topo, routing, policy string, load float64) (NetPoint, bool) {
	for _, pt := range s.Points {
		if pt.Topology == topo && pt.Routing == routing && pt.Policy == policy && pt.Load == load {
			return pt, true
		}
	}
	return NetPoint{}, false
}

// Render writes one table per topology: each routing × DPM policy pair
// across the load sweep with the network power total, the saving
// against the shortest-path always-on baseline at the same point, and
// the delivery/latency cost.
func (s *NetworkStudy) Render(w io.Writer) error {
	for _, topo := range s.Topologies {
		// Fault-plan runs grow a lost-cells column; fault-free tables
		// keep the exact historical layout.
		faulty := false
		for _, pt := range s.Points {
			if pt.Topology == topo && pt.Result.Net != nil && pt.Result.Net.Resilience != nil {
				faulty = true
				break
			}
		}
		headers := []string{"routing", "policy", "offered", "delivered", "net_mW",
			"saved_mW", "avg_lat", "avg_hops", "dropped"}
		if faulty {
			headers = append(headers, "lost")
		}
		t := plot.Table{
			Title:   fmt.Sprintf("Network study — %s, %d nodes, %s fabric", topo, s.Nodes, s.Arch),
			Headers: headers,
		}
		rows := 0
		for _, rt := range s.Routings {
			for _, pol := range s.Policies {
				for _, load := range s.Loads {
					pt, ok := s.Point(topo, rt, pol, load)
					if !ok {
						continue
					}
					rows++
					r := pt.Result
					saved := "-"
					if base, ok := s.Point(topo, "shortest", "alwayson", load); ok && (rt != "shortest" || pol != "alwayson") {
						saved = fmtMW(base.Result.Power.TotalMW() - r.Power.TotalMW())
					}
					row := []string{rt, pol, fmtPct(load), fmtPct(r.Net.DeliveryRatio),
						fmtMW(r.Power.TotalMW()), saved,
						fmt.Sprintf("%.2f", r.AvgLatencySlots),
						fmt.Sprintf("%.2f", r.Net.AvgHops),
						fmt.Sprintf("%d", r.Net.NodeDroppedCells+r.Net.LinkDroppedCells)}
					if faulty {
						lost := "-"
						if r.Net.Resilience != nil {
							lost = fmt.Sprintf("%d", r.Net.Resilience.LostCells)
						}
						row = append(row, lost)
					}
					t.AddRow(row...)
				}
			}
		}
		if rows == 0 {
			continue
		}
		if err := t.Render(w); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w, "net_mW sums every router's switch+buffer+wire+static power; saved_mW is against shortest-path routing on always-on routers under identical traffic."); err != nil {
		return err
	}
	for _, pt := range s.Points {
		if pt.Result.Net != nil && pt.Result.Net.Resilience != nil {
			_, err := fmt.Fprintln(w, "lost counts cells the failure schedule cost: refused by down links, flushed from failed routers, or stranded on stale routes; residual and re-convergence power are folded into net_mW.")
			return err
		}
	}
	return nil
}

// CSV writes the study as one flat table.
func (s *NetworkStudy) CSV(w io.Writer) error {
	headers := []string{"topology", "routing", "policy", "nodes", "offered", "delivery_ratio",
		"net_mw", "dyn_mw", "static_mw", "avg_latency_slots", "max_latency_slots",
		"avg_hops", "node_dropped", "link_dropped"}
	var rows [][]string
	for _, pt := range s.Points {
		r := pt.Result
		rows = append(rows, []string{
			pt.Topology,
			pt.Routing,
			pt.Policy,
			fmt.Sprintf("%d", r.Net.Nodes),
			fmt.Sprintf("%.3f", pt.Load),
			fmt.Sprintf("%.5f", r.Net.DeliveryRatio),
			fmt.Sprintf("%.5f", r.Power.TotalMW()),
			fmt.Sprintf("%.5f", r.Power.DynamicMW()),
			fmt.Sprintf("%.5f", r.Power.StaticMW),
			fmt.Sprintf("%.3f", r.AvgLatencySlots),
			fmt.Sprintf("%d", r.MaxLatencySlots),
			fmt.Sprintf("%.3f", r.Net.AvgHops),
			fmt.Sprintf("%d", r.Net.NodeDroppedCells),
			fmt.Sprintf("%d", r.Net.LinkDroppedCells),
		})
	}
	return plot.WriteCSV(w, headers, rows)
}
