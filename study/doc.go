// Package study is the declarative experiment layer of the platform:
// every experiment — single-router or network-of-routers, managed or
// always-on — is a value.
//
// A Scenario is a JSON-serializable description of one operating point:
// the energy model and technology point, the fabric architecture and
// size, the traffic shape, the ingress queue discipline, an optional
// dynamic power-management policy, and an optional network block
// (topology, routing policy, traffic matrix). RunScenario executes it
// on the same kernels the paper-reproduction runners use, with the same
// coordinate-derived traffic seeds, so the paper's studies are
// themselves scenario grids.
//
// A Grid sweeps any scenario axis — load, ports, architecture, DPM
// policy, topology, routing, … — by naming the axis and listing its
// values. Grid.Run fans the enumerated scenarios across worker
// goroutines on the deterministic sweep engine: results are
// bit-identical for any worker count, a context cancels the sweep
// between points with every completed point's result intact, and an
// optional callback streams per-point progress.
//
// A Spec wraps a Grid with a schema version (SpecVersion — Encode
// stamps it, DecodeSpec rejects versions it cannot read) and a study
// kind ("fig9", "dpm", "net", …) so the CLI can render a declarative
// run with the paper's reports; see internal/exp and the `fabricpower
// run` subcommand. WriteResultRecords emits a grid run as JSON Lines
// (`fabricpower run -json`) for machine consumption.
//
// Together, Spec and ResultRecord are a wire protocol: specs in,
// record lines out. internal/studyd serves exactly that over HTTP —
// `fabricpower serve` accepts POSTed specs and streams each sweep's
// ResultRecord lines (interleaved with RunOptions.OnEvent progress
// events and point-tagged telemetry) back as NDJSON while it runs,
// byte-compatible with `fabricpower run -json`. The stream framing is
// documented on the studyd package.
//
// The result types are the simulation kernels' own: Result is
// internal/sim's Result (Net set on network scenarios), Power and
// NetReport are sim's, Energy is core.Breakdown, DPMReport is
// dpm.Report, and the resilience ledger is sim's. The kernels fill
// them directly, so a record's JSON is the kernel's result encoded,
// with no copy in between.
//
// Traffic kinds are unified across scopes: the same TrafficSpec.Kind
// ("uniform", "bursty", "packet" or "trace") drives a single router's
// ports or — in a network scenario — every flow's per-hop injection
// process at its matrix rate, so burstiness and segmentation cross
// hops; "hotspot" is a single-router destination pattern. A network
// block's Shards field parallelizes that network's kernel without
// changing any result.
//
// # Everything is built in
//
// Sweep axes, traffic kinds, DPM policies, topologies, routing
// policies and traffic matrices are all built in; there is no
// registry to extend, and each policy, routing and matrix has one
// tuning, which a spec picks by name. Grid.Enumerate rejects an
// unknown axis, Spec.Validate an unknown study kind or an axis on a
// single-point kind, and Scenario.Validate an unknown traffic kind,
// policy, topology, routing or matrix name, so a spec that names one
// fails before any point runs. Grid.Points goes on to check every enumerated point, so a
// traffic block no point can run (an unreachable bursty load, a trace
// kind without a path) fails before the first point too, whether the
// base or an axis sets it.
package study
