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
// The package provides two complementary facilities:
//
//   - A generic embedding engine (Graph, Grid, Embed) that places vertex
//     squares and routes edges with a breadth-first router under the
//     one-edge-per-grid-edge constraint, reporting per-edge wire lengths.
//     This is the general model of Thompson's thesis, usable for arbitrary
//     fabric topologies.
//
//   - Canonical closed-form layouts (CrossbarWires, FullyConnectedWires,
//     BanyanWires, BatcherBanyanWires) reproducing the paper's manual
//     embeddings of Figures 4–8 and the wire-length terms of Eqs. 3–6.
//
// The closed forms drive the power model; the generic engine only
// validates them.
package thompson
