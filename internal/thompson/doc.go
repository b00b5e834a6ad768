// Package thompson implements the Thompson grid model the paper uses for
// interconnect wire-length estimation (§3.4).
//
// A source graph G (the fabric topology) is embedded into a target graph H,
// a 2-dimensional grid mesh of p columns and q rows. Each vertex of G of
// degree d maps to a d×d square of grid vertices, each edge of G maps to a
// path of grid edges, and no two source edges may share a grid edge. The
// wire length of a source edge is the number of grid edges its path covers;
// one grid square carries a full bus (32 wires at 1 µm pitch ≈ 32 µm in the
// paper's 0.18 µm case study).
//
// The package provides the canonical closed-form layouts
// (CrossbarWires, FullyConnectedWires, BanyanWires, BatcherBanyanWires)
// reproducing the paper's manual embeddings of Figures 4–8 and the
// wire-length terms of Eqs. 3–6; they drive the power model.
//
// The package tests hold a generic embedding engine (Graph, Grid, Embed
// and the crossbar/Banyan graph builders) that places vertex squares and
// routes edges with a breadth-first router under the
// one-edge-per-grid-edge constraint — the general model of Thompson's
// thesis — and check the closed forms against it. Only the tests use it,
// so it is compiled only into them.
package thompson
