package netsim

import (
	"cmp"
	"fmt"
	"slices"
)

// Flow is one (source node, destination node) demand of a traffic
// matrix. Rate is in cells per slot (Bernoulli injection probability,
// so it must lie in [0,1]).
type Flow struct {
	Src, Dst int
	Rate     float64

	// Routed state, filled by the network from the routing policy and
	// rewritten in place at re-convergence. A parked flow (endpoint
	// down or unreachable) keeps its storage with an empty path.
	path  []int // node sequence src…dst
	ports []int // per path node: egress port toward the next node; last = delivery edge port
	links []int // per hop: index into Topology.Links
	src   int   // ingress edge port at the source node
}

// TrafficMatrix generates the demand rates between a topology's host
// nodes. Rates[i][j] is the cells-per-slot demand from host i to host j
// (indices into Topology.Hosts); the diagonal must be zero. load is the
// per-host offered load: every matrix normalizes so that each host
// sources load cells per slot on average.
type TrafficMatrix interface {
	Name() string
	Rates(hosts int, load float64) ([][]float64, error)
}

// UniformMatrix spreads each host's load evenly over all other hosts —
// the network-level analogue of the paper's uniform random
// destinations.
type UniformMatrix struct{}

// Name implements TrafficMatrix.
func (UniformMatrix) Name() string { return "uniform" }

// Rates implements TrafficMatrix.
func (UniformMatrix) Rates(hosts int, load float64) ([][]float64, error) {
	if err := checkDemand(hosts, load); err != nil {
		return nil, err
	}
	r := zeroRates(hosts)
	per := load / float64(hosts-1)
	for i := 0; i < hosts; i++ {
		for j := 0; j < hosts; j++ {
			if i != j {
				r[i][j] = per
			}
		}
	}
	return r, nil
}

// GravityMatrix draws demand proportional to the product of endpoint
// weights — the classic estimate for backbone traffic (big sites talk
// more, to everyone). Each row is normalized so host i still sources
// exactly load cells per slot; the weights shape where that load goes.
type GravityMatrix struct {
	// Weights holds one positive mass per host; nil defaults to
	// 1, 2, …, hosts (a mild size skew).
	Weights []float64
}

// Name implements TrafficMatrix.
func (GravityMatrix) Name() string { return "gravity" }

// Rates implements TrafficMatrix.
func (g GravityMatrix) Rates(hosts int, load float64) ([][]float64, error) {
	if err := checkDemand(hosts, load); err != nil {
		return nil, err
	}
	w := g.Weights
	if w == nil {
		w = make([]float64, hosts)
		for i := range w {
			w[i] = float64(i + 1)
		}
	}
	if len(w) != hosts {
		return nil, fmt.Errorf("netsim: gravity weights: got %d, want %d", len(w), hosts)
	}
	for i, v := range w {
		if v <= 0 {
			return nil, fmt.Errorf("netsim: gravity weight %d must be positive, got %g", i, v)
		}
	}
	r := zeroRates(hosts)
	for i := 0; i < hosts; i++ {
		sum := 0.0
		for j := 0; j < hosts; j++ {
			if i != j {
				sum += w[j]
			}
		}
		for j := 0; j < hosts; j++ {
			if i != j {
				r[i][j] = load * w[j] / sum
			}
		}
	}
	return r, nil
}

// HotspotMatrix sends Fraction of every host's load to one egress host
// and spreads the rest uniformly — the hotspot-to-egress pattern
// (an exit point to the rest of the internet).
type HotspotMatrix struct {
	// Hot is the hotspot's index into Topology.Hosts.
	Hot int
	// Fraction of each source's load aimed at the hotspot (default 0.5).
	Fraction float64
}

// Name implements TrafficMatrix.
func (HotspotMatrix) Name() string { return "hotspot" }

// Rates implements TrafficMatrix.
func (h HotspotMatrix) Rates(hosts int, load float64) ([][]float64, error) {
	if err := checkDemand(hosts, load); err != nil {
		return nil, err
	}
	if h.Hot < 0 || h.Hot >= hosts {
		return nil, fmt.Errorf("netsim: hotspot host %d out of range [0,%d)", h.Hot, hosts)
	}
	frac := h.Fraction
	if frac == 0 {
		frac = 0.5
	}
	if frac < 0 || frac > 1 {
		return nil, fmt.Errorf("netsim: hotspot fraction must be in [0,1], got %g", frac)
	}
	r := zeroRates(hosts)
	for i := 0; i < hosts; i++ {
		if i == h.Hot {
			// The hotspot itself has no hotspot to send to: uniform.
			for j := 0; j < hosts; j++ {
				if j != i {
					r[i][j] = load / float64(hosts-1)
				}
			}
			continue
		}
		r[i][h.Hot] = load * frac
		rest := load * (1 - frac)
		others := hosts - 2 // not self, not the hotspot
		if others == 0 {
			r[i][h.Hot] = load
			continue
		}
		for j := 0; j < hosts; j++ {
			if j != i && j != h.Hot {
				r[i][j] = rest / float64(others)
			}
		}
	}
	return r, nil
}

// NewMatrix builds a built-in traffic matrix from its name with
// default tuning.
func NewMatrix(name string) (TrafficMatrix, error) {
	switch name {
	case "uniform":
		return UniformMatrix{}, nil
	case "gravity":
		return GravityMatrix{}, nil
	case "hotspot":
		return HotspotMatrix{}, nil
	}
	return nil, fmt.Errorf("netsim: unknown traffic matrix %q (want one of %v)", name, MatrixNames())
}

// MatrixNames lists the built-in traffic matrices.
func MatrixNames() []string { return []string{"uniform", "gravity", "hotspot"} }

func checkDemand(hosts int, load float64) error {
	if hosts < 2 {
		return fmt.Errorf("netsim: traffic matrix needs >= 2 hosts, got %d", hosts)
	}
	if load < 0 || load > 1 {
		return fmt.Errorf("netsim: load must be in [0,1], got %g", load)
	}
	return nil
}

func zeroRates(hosts int) [][]float64 {
	r := make([][]float64, hosts)
	all := make([]float64, hosts*hosts)
	for i := range r {
		r[i], all = all[:hosts:hosts], all[hosts:]
	}
	return r
}

// buildFlows converts a matrix evaluated over the topology's hosts into
// the flow list, in deterministic (src, dst) host order.
func buildFlows(t *Topology, m TrafficMatrix, load float64) ([]Flow, error) {
	rates, err := m.Rates(len(t.Hosts), load)
	if err != nil {
		return nil, err
	}
	flows := make([]Flow, 0, len(t.Hosts)*(len(t.Hosts)-1))
	for i, src := range t.Hosts {
		for j, dst := range t.Hosts {
			if i == j {
				if rates[i][j] != 0 {
					return nil, fmt.Errorf("netsim: matrix %s has self-demand at host %d", m.Name(), i)
				}
				continue
			}
			rate := rates[i][j]
			if rate < 0 || rate > 1 {
				return nil, fmt.Errorf("netsim: matrix %s rate [%d][%d] = %g out of [0,1]", m.Name(), i, j, rate)
			}
			if rate == 0 {
				continue
			}
			flows = append(flows, Flow{Src: src, Dst: dst, Rate: rate})
		}
	}
	if len(flows) == 0 {
		return nil, fmt.Errorf("netsim: matrix %s at load %g produced no flows", m.Name(), load)
	}
	return flows, nil
}

// sortFlowsForRouting returns flow indices in the deterministic order
// the consolidating policy routes them: biggest rate first, index
// breaking ties, so the heavy flows pin down the spine the light ones
// then join. It reuses idx's storage.
func sortFlowsForRouting(flows []Flow, idx []int) []int {
	idx = resize(idx, len(flows))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int {
		if flows[a].Rate != flows[b].Rate {
			if flows[a].Rate > flows[b].Rate {
				return -1
			}
			return 1
		}
		return cmp.Compare(a, b)
	})
	return idx
}
