package thompson

import "fmt"

// The builders below express the closed-form layouts' topologies as
// source graphs with hand placements, so the embedding engine can route
// them and the tests can sanity-check the closed forms.

// BuildCrossbarGraph returns an N×N crossbar as a source graph with a
// placement mirroring Fig. 5: crosspoints on a 4-grid pitch, inputs on the
// left edge, outputs on the bottom edge. Vertex order: inputs 0..N-1,
// outputs N..2N-1, then crosspoints row-major.
func BuildCrossbarGraph(n int) (*Graph, Placement, error) {
	if n < 1 {
		return nil, Placement{}, fmt.Errorf("thompson: crossbar size must be >= 1, got %d", n)
	}
	g := NewGraph(0)
	inputs := make([]int, n)
	outputs := make([]int, n)
	for i := 0; i < n; i++ {
		inputs[i] = g.AddVertex(fmt.Sprintf("in%d", i))
	}
	for j := 0; j < n; j++ {
		outputs[j] = g.AddVertex(fmt.Sprintf("out%d", j))
	}
	xp := make([][]int, n)
	for i := 0; i < n; i++ {
		xp[i] = make([]int, n)
		for j := 0; j < n; j++ {
			xp[i][j] = g.AddVertex(fmt.Sprintf("x%d_%d", i, j))
		}
	}
	// Row chains: input i -> xp[i][0] -> ... -> xp[i][n-1].
	for i := 0; i < n; i++ {
		if _, err := g.AddEdge(inputs[i], xp[i][0]); err != nil {
			return nil, Placement{}, err
		}
		for j := 1; j < n; j++ {
			if _, err := g.AddEdge(xp[i][j-1], xp[i][j]); err != nil {
				return nil, Placement{}, err
			}
		}
	}
	// Column chains: xp[0][j] -> ... -> xp[n-1][j] -> output j.
	for j := 0; j < n; j++ {
		for i := 1; i < n; i++ {
			if _, err := g.AddEdge(xp[i-1][j], xp[i][j]); err != nil {
				return nil, Placement{}, err
			}
		}
		if _, err := g.AddEdge(xp[n-1][j], outputs[j]); err != nil {
			return nil, Placement{}, err
		}
	}

	const pitch = 4
	origin := make([]Point, g.NumVertices())
	size := make([]int, g.NumVertices())
	for i := 0; i < n; i++ {
		origin[inputs[i]] = Point{0, 1 + i*pitch}
		size[inputs[i]] = 1
	}
	for j := 0; j < n; j++ {
		origin[outputs[j]] = Point{2 + j*pitch, 1 + n*pitch}
		size[outputs[j]] = 1
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			// 2×2 square per the paper (two ports are feed-through).
			origin[xp[i][j]] = Point{2 + j*pitch, 1 + i*pitch}
			size[xp[i][j]] = 2
		}
	}
	return g, Placement{Origin: origin, Size: size}, nil
}

// BuildBanyanGraph returns an N=2ⁿ Banyan (butterfly) network as a source
// graph with a column-per-stage placement. Vertex order: inputs, outputs,
// then switches stage-major (stage s, row r at index 2N + s·N/2 + r).
func BuildBanyanGraph(dim int) (*Graph, Placement, error) {
	if dim < 1 {
		return nil, Placement{}, fmt.Errorf("thompson: banyan dimension must be >= 1, got %d", dim)
	}
	n := 1 << uint(dim)
	half := n / 2
	g := NewGraph(0)
	inputs := make([]int, n)
	outputs := make([]int, n)
	for i := 0; i < n; i++ {
		inputs[i] = g.AddVertex(fmt.Sprintf("in%d", i))
	}
	for i := 0; i < n; i++ {
		outputs[i] = g.AddVertex(fmt.Sprintf("out%d", i))
	}
	sw := make([][]int, dim)
	for s := 0; s < dim; s++ {
		sw[s] = make([]int, half)
		for r := 0; r < half; r++ {
			sw[s][r] = g.AddVertex(fmt.Sprintf("s%d_%d", s, r))
		}
	}
	// Input connections: input i feeds switch (0, i/2).
	for i := 0; i < n; i++ {
		if _, err := g.AddEdge(inputs[i], sw[0][i/2]); err != nil {
			return nil, Placement{}, err
		}
	}
	// Butterfly links between stage s and s+1. We use the standard
	// butterfly with span halving toward the output: link pattern at
	// stage s connects switch port lines whose indices differ in bit
	// (dim-1-s) of the line index.
	for s := 0; s < dim-1; s++ {
		span := 1 << uint(dim-2-s) // in switch rows
		for r := 0; r < half; r++ {
			// Each switch has two output lines; straight line goes to the
			// switch in the same relative position, crossed line to the
			// partner switch 'span' away.
			partner := r ^ span
			if _, err := g.AddEdge(sw[s][r], sw[s+1][r]); err != nil {
				return nil, Placement{}, err
			}
			if _, err := g.AddEdge(sw[s][r], sw[s+1][partner]); err != nil {
				return nil, Placement{}, err
			}
		}
	}
	// Output connections: switch (dim-1, r) feeds outputs 2r, 2r+1.
	for r := 0; r < half; r++ {
		if _, err := g.AddEdge(sw[dim-1][r], outputs[2*r]); err != nil {
			return nil, Placement{}, err
		}
		if _, err := g.AddEdge(sw[dim-1][r], outputs[2*r+1]); err != nil {
			return nil, Placement{}, err
		}
	}

	// Placement: stages in columns, generous horizontal pitch so the
	// butterfly wires can route. Switch squares are 4×4 (degree 4).
	colPitch := 8
	rowPitch := 6
	origin := make([]Point, g.NumVertices())
	size := make([]int, g.NumVertices())
	for i := 0; i < n; i++ {
		origin[inputs[i]] = Point{0, 2 + i*rowPitch/2*1}
		size[inputs[i]] = 1
	}
	for s := 0; s < dim; s++ {
		for r := 0; r < half; r++ {
			origin[sw[s][r]] = Point{4 + s*colPitch, 2 + r*rowPitch}
			size[sw[s][r]] = 4
		}
	}
	for i := 0; i < n; i++ {
		origin[outputs[i]] = Point{4 + dim*colPitch + 2, 2 + i*rowPitch/2*1}
		size[outputs[i]] = 1
	}
	return g, Placement{Origin: origin, Size: size}, nil
}
