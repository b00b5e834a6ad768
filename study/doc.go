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
// with no copy in between. PolicyObservation and PolicyDecision are
// likewise the power manager's own dpm.Observation and dpm.Decision.
//
// Traffic kinds are unified across scopes: the same TrafficSpec.Kind
// ("uniform", "bursty", "packet", "trace", or a registered extension)
// drives a single router's ports or — in a network scenario — every
// flow's per-hop injection process at its matrix rate, so burstiness
// and segmentation cross hops. A network block's Shards field
// parallelizes that network's kernel without changing any result.
//
// # Extension points
//
// The string names scenarios use for sweep axes, traffic kinds, DPM
// policies, routing policies, topologies and traffic matrices resolve
// through a Registry, so external callers can plug in their own
// implementations and then drive them from scenario files. A Registry
// is a value: NewRegistry makes one that knows only the built-ins,
// Grid.Run resolves against RunOptions.Registry, and Default serves
// when that is nil, as well as for RunScenario and Grid.Enumerate. An
// extension registered into one registry is unknown to every other.
// Names resolve once per point, never per slot. The Registry methods:
//
//   - RegisterTraffic adds a traffic kind: a TrafficSource emitting
//     per-slot (port, destination) injections. In network scenarios
//     the kind is instantiated once per flow (1-port view at the
//     flow's rate) behind netsim's FlowSource seam.
//   - RegisterDPMPolicy adds a power-management policy: a Policy
//     observing per-slot activity and deciding component power states.
//     Every managed router constructs its own.
//   - RegisterRouting adds a network routing policy: a RoutingFunc
//     mapping flow demands to node paths over a NetworkView.
//   - RegisterTopology adds a topology builder: a Graph of undirected
//     edges (and optionally restricted host nodes) per size.
//   - RegisterMatrix adds a traffic matrix: per-host demand rates.
//   - RegisterAxis adds a sweepable scenario axis.
//
// Each rejects an empty name, a nil implementation, a built-in name
// and a name already registered; TrafficKinds, DPMPolicyNames,
// RoutingNames, TopologyNames, MatrixNames and AxisNames list the
// built-ins first, then the extensions sorted.
//
// Registered implementations must be deterministic pure functions of
// their inputs: the sweep engine's bit-identical-for-any-worker-count
// guarantee extends to plug-ins exactly as far as they are
// deterministic.
package study
