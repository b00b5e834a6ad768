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
// more, to everyone). Host i weighs i+1 (a mild size skew). Each row is
// normalized so host i still sources exactly load cells per slot; the
// weights shape where that load goes.
type GravityMatrix struct{}

// Name implements TrafficMatrix.
func (GravityMatrix) Name() string { return "gravity" }

// Rates implements TrafficMatrix.
func (GravityMatrix) Rates(hosts int, load float64) ([][]float64, error) {
	if err := checkDemand(hosts, load); err != nil {
		return nil, err
	}
	r := zeroRates(hosts)
	for i := 0; i < hosts; i++ {
		sum := 0.0
		for j := 0; j < hosts; j++ {
			if i != j {
				sum += float64(j + 1)
			}
		}
		for j := 0; j < hosts; j++ {
			if i != j {
				r[i][j] = load * float64(j+1) / sum
			}
		}
	}
	return r, nil
}

// The hotspot matrix aims hotspotFraction of every other host's load at
// host hotspotHost.
const (
	hotspotHost     = 0
	hotspotFraction = 0.5
)

// HotspotMatrix sends half of every host's load to one egress host
// (host 0) and spreads the rest uniformly — the hotspot-to-egress
// pattern (an exit point to the rest of the internet).
type HotspotMatrix struct{}

// Name implements TrafficMatrix.
func (HotspotMatrix) Name() string { return "hotspot" }

// Rates implements TrafficMatrix.
func (HotspotMatrix) Rates(hosts int, load float64) ([][]float64, error) {
	if err := checkDemand(hosts, load); err != nil {
		return nil, err
	}
	r := zeroRates(hosts)
	for i := 0; i < hosts; i++ {
		if i == hotspotHost {
			// The hotspot itself has no hotspot to send to: uniform.
			for j := 0; j < hosts; j++ {
				if j != i {
					r[i][j] = load / float64(hosts-1)
				}
			}
			continue
		}
		r[i][hotspotHost] = load * hotspotFraction
		rest := load * (1 - hotspotFraction)
		others := hosts - 2 // not self, not the hotspot
		if others == 0 {
			r[i][hotspotHost] = load
			continue
		}
		for j := 0; j < hosts; j++ {
			if j != i && j != hotspotHost {
				r[i][j] = rest / float64(others)
			}
		}
	}
	return r, nil
}

// NewMatrix builds a built-in traffic matrix from its name.
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
