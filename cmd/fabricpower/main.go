// Command fabricpower regenerates the paper's tables and figures, runs
// the ablation studies, and executes declarative scenario files.
//
// Usage:
//
//	fabricpower tech                      # §5.1 E_T derivation
//	fabricpower table2                    # Table 2 buffer energies
//	fabricpower ablate [-study buffer|fcwire|queue]
//	fabricpower run <spec.json|-> [-workers N] [-csv file] [-json] [-timeout 30s]
//	fabricpower <study> [run's flags] [-print-scenario]
//	fabricpower serve [-addr host:port] [-max-concurrent N] [-max-queue N]
//	fabricpower submit <spec.json|-> [-server URL] [-workers N]
//
// The paper's studies — table1, fig9, fig10, crossover, saturate,
// simulate, dpm and net — are checked-in spec files embedded in the
// binary (internal/exp/paper/*.json). `fabricpower <study>` is `run`
// on that file and takes exactly run's flags; -print-scenario prints
// the file verbatim instead of running it. To change a study's
// parameters, print it, edit the JSON and run the edited file:
//
//	fabricpower fig10 -print-scenario > fig10.json
//	fabricpower run fig10.json
//
// Sweeps fan their operating points across -workers goroutines
// (default: all cores); results are bit-identical for any worker count.
// An interrupt (Ctrl-C) cancels a sweep between operating points.
//
// `run` and the study aliases also accept the observability flags
// [-v] [-telemetry out.jsonl [-tsample N]] [-pprof addr]
// [-trace out.trace.json] [-metrics out.json]: verbose per-point
// progress on stderr, an every-N-slots kernel time series as JSON
// lines, a live net/http/pprof + expvar endpoint, an execution profile
// of the run itself (shard phases, sweep-worker occupancy, table1
// characterizations) as Perfetto-loadable Chrome trace JSON, and a
// final process metrics snapshot. None of them touch stdout — reports
// stay byte-identical with or without them.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // -pprof: /debug/pprof handlers on the default mux
	"os"
	"os/signal"
	"syscall"

	"fabricpower/internal/core"
	"fabricpower/internal/exp"
	"fabricpower/internal/telemetry"
	"fabricpower/internal/telemetry/trace"
	"fabricpower/study"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	// SIGTERM (the orchestrator's stop signal) drains like Ctrl-C:
	// cancel the context, flush whatever completed, exit nonzero if
	// that truncated the output.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := dispatch(ctx, os.Args[1], os.Args[2:], os.Stdout); err != nil {
		if err == errUsage {
			usage()
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

// errUsage asks main for the usage text and exit code 2.
var errUsage = fmt.Errorf("usage")

// dispatch runs one subcommand, writing its report to w. Factored out
// of main so the tests can drive subcommands in-process and compare
// outputs byte for byte.
func dispatch(ctx context.Context, cmd string, args []string, w io.Writer) error {
	switch cmd {
	case "tech":
		return exp.TechReport(core.PaperModel(), w)
	case "table2":
		return runTable2(w)
	case "ablate":
		return runAblate(args, w)
	case "run":
		return runSpec(ctx, cmd, nil, args, w)
	case "serve":
		return runServe(ctx, args, w)
	case "submit":
		return runSubmit(ctx, args, w)
	case "help", "-h", "--help":
		usage()
		return nil
	}
	if paper, ok := exp.PaperSpec(cmd); ok {
		return runSpec(ctx, cmd, paper, args, w)
	}
	fmt.Fprintf(os.Stderr, "unknown command %q\n", cmd)
	return errUsage
}

func usage() {
	fmt.Fprintln(os.Stderr, `fabricpower — switch-fabric power analysis (DAC 2002 reproduction)

commands:
  tech        technology parameters and the 87 fJ Thompson-grid derivation
  table2      Banyan shared-SRAM buffer bit energies
  ablate      ablation studies (-study buffer|fcwire|queue)
  run         execute a declarative scenario/study spec (JSON file or
              '-' for stdin); -json emits per-point result records as
              JSON lines; -timeout bounds the study's wall clock;
              see the study package and README
  serve       long-running study server: POST /v1/studies accepts the
              same spec JSON and streams records/events/telemetry back
              as NDJSON while the sweep runs; -max-concurrent/-max-queue
              bound admission (429 + Retry-After past both); healthz,
              study listing, DELETE cancellation, expvar and pprof on
              the same mux
  submit      post a spec to a studyd server and stream its records to
              stdout, byte-compatible with "run -json"

the paper's studies run their embedded spec file through "run":
  table1      node-switch bit-energy LUTs (gate-level recharacterization)
  fig9        power vs throughput sweep (4 architectures × port sizes)
  fig10       power vs port count at 50% throughput
  crossover   cheapest architecture per load at 32×32
  saturate    input-buffered throughput ceiling
  simulate    one operating point with full breakdown
  dpm         power-management study: policy × architecture × load grid
              with static power attached (gating, sleep, DVFS savings)
  net         network-of-routers study: topology × routing × DPM policy
              × load grid, multi-hop flows over a backbone of full
              fabric+router nodes

a study takes exactly run's flags plus -print-scenario, which prints its
spec instead of running it. To change its parameters (sizes, loads,
slots, seed, traffic, shards, failures, ...), edit the printed spec:
"fabricpower fig9 -print-scenario > f.json", edit, "fabricpower run
f.json".

run and the studies accept -workers N (default 0 = all cores; results
are bit-identical for any worker count) and the observability flags:
-v (per-point progress with worker and duration, on stderr), -telemetry
out.jsonl with -tsample N (every-N-slots power/utilization/latency time
series), -pprof addr (net/http/pprof + expvar server for the run's
duration), -trace out.trace.json (execution profile of the run itself —
shard compute/exchange/barrier phases, sweep-worker occupancy, table1
characterizations — as Chrome trace-event JSON, loadable at
ui.perfetto.dev),
-metrics out.json (final process metrics registry snapshot on exit);
none of them change stdout`)
}

// obsFlags bundles the observability flags `run` and the study
// aliases accept. All of them leave stdout untouched: progress goes to
// stderr, telemetry to its own file, profiles to an HTTP server —
// reports stay byte-identical whether or not the flags are set.
type obsFlags struct {
	pprofAddr   string
	telPath     string
	tsample     uint64
	verbose     bool
	tracePath   string
	metricsPath string
}

func (o *obsFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&o.pprofAddr, "pprof", "", "serve net/http/pprof and expvar on this address (e.g. localhost:6060) while the command runs")
	fs.StringVar(&o.telPath, "telemetry", "", "write per-point kernel telemetry time series to this file as JSON lines")
	fs.Uint64Var(&o.tsample, "tsample", 64, "telemetry sample interval in slots")
	fs.BoolVar(&o.verbose, "v", false, "log per-point progress (worker, wall-clock duration) to stderr")
	fs.StringVar(&o.tracePath, "trace", "", "profile the run's execution (shard phases, sweep workers, table1 characterizations) into this file as Chrome trace-event JSON; load it at ui.perfetto.dev")
	fs.StringVar(&o.metricsPath, "metrics", "", "write a final process-metrics registry snapshot (counters, gauges, histograms) to this file as JSON on exit")
}

// options assembles the grid-run options the observability flags ask
// for. The returned cleanup closes the telemetry file and stops the
// pprof server; call it exactly once after the run.
func (o *obsFlags) options(workers int) (study.RunOptions, func() error, error) {
	opt := study.RunOptions{Workers: workers}
	var closers []func() error
	cleanup := func() error {
		var first error
		for _, c := range closers {
			if err := c(); first == nil {
				first = err
			}
		}
		return first
	}
	if o.verbose {
		opt.OnPoint = func(i, total int, sc study.Scenario, _ study.Result, info study.PointInfo) {
			fmt.Fprintf(os.Stderr, "[%d/%d] %-40s worker %d  %8.1f ms\n",
				i+1, total, sc.Label(), info.Worker,
				float64(info.Duration.Nanoseconds())/1e6)
		}
	}
	if o.pprofAddr != "" {
		addr, stop, err := servePprof(o.pprofAddr)
		if err != nil {
			return opt, cleanup, err
		}
		fmt.Fprintf(os.Stderr, "pprof: http://%s/debug/pprof (metrics at /debug/vars)\n", addr)
		closers = append(closers, stop)
	}
	if o.telPath != "" {
		f, err := os.Create(o.telPath)
		if err != nil {
			cleanup()
			return opt, cleanup, err
		}
		opt.Telemetry = &study.TelemetryOptions{Out: f, Every: o.tsample}
		closers = append(closers, f.Close)
	}
	if o.tracePath != "" {
		rec := trace.NewRecorder(0)
		opt.Trace = rec
		path := o.tracePath
		closers = append(closers, func() error {
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			if err := rec.WriteJSON(f); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		})
	}
	if o.metricsPath != "" {
		path := o.metricsPath
		closers = append(closers, func() error {
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			if err := telemetry.Default().WriteJSON(f); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		})
	}
	return opt, cleanup, nil
}

// servePprof stands up the diagnostics endpoint: net/http/pprof's
// handlers plus the process telemetry registry as expvar, on addr for
// the command's lifetime. It returns the bound address (addr may ask
// for port 0) and a func that stops the server.
func servePprof(addr string) (string, func() error, error) {
	telemetry.PublishExpvar()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("pprof: %w", err)
	}
	srv := &http.Server{Handler: http.DefaultServeMux}
	go srv.Serve(ln)
	return ln.Addr().String(), srv.Close, nil
}

// runAndRender executes a spec, renders its report and writes the CSV
// side channel when requested.
func runAndRender(ctx context.Context, spec study.Spec, opt study.RunOptions, csvPath string, w io.Writer) error {
	rep, err := exp.RunSpecOpts(ctx, spec, opt)
	if err != nil {
		return err
	}
	if err := rep.Render(w); err != nil {
		return err
	}
	if csvPath == "" {
		return nil
	}
	c, ok := rep.(exp.CSVReport)
	if !ok {
		return fmt.Errorf("study kind %q has no CSV form", spec.Kind)
	}
	f, err := os.Create(csvPath)
	if err != nil {
		return err
	}
	defer f.Close()
	return c.CSV(f)
}

func runTable2(w io.Writer) error {
	t2, err := exp.RunTable2(core.PaperModel())
	if err != nil {
		return err
	}
	return t2.Render(w)
}

func runAblate(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("ablate", flag.ExitOnError)
	studyName := fs.String("study", "buffer", "buffer | fcwire | queue")
	ports := fs.Int("ports", 16, "fabric size")
	load := fs.Float64("load", 0.5, "offered load")
	slots := fs.Uint64("slots", 2000, "measured slots per point")
	seed := fs.Int64("seed", 1, "traffic seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	base := study.Scenario{
		Fabric:  study.FabricSpec{Ports: *ports},
		Traffic: study.TrafficSpec{Load: *load},
		Sim:     study.SimSpec{MeasureSlots: *slots, Seed: *seed},
	}
	var rep exp.Report
	var err error
	switch *studyName {
	case "buffer":
		rep, err = exp.RunBufferAblation(base)
	case "fcwire":
		rep, err = exp.RunFCWireAblation(base)
	case "queue":
		rep, err = exp.RunQueueAblation(base)
	default:
		return fmt.Errorf("unknown study %q", *studyName)
	}
	if err != nil {
		return err
	}
	return rep.Render(w)
}

// runSpec executes a declarative spec: `run` reads it from a JSON file
// (or stdin with "-"), and a paper study alias (paper non-nil) runs
// its embedded file, with -print-scenario printing that file instead.
func runSpec(ctx context.Context, cmd string, paper []byte, args []string, w io.Writer) error {
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	workers := fs.Int("workers", 0, "parallel sweep workers (0 = all cores)")
	csvPath := fs.String("csv", "", "also write CSV to this file (study kinds with a CSV form)")
	jsonOut := fs.Bool("json", false, "emit per-point study.Result records as JSON lines instead of the rendered report")
	timeout := fs.Duration("timeout", 0, "cancel the study after this long (0 = none); a timed-out -json run still flushes every completed record before exiting nonzero")
	var obs obsFlags
	obs.register(fs)
	var printScenario *bool
	if paper != nil {
		printScenario = fs.Bool("print-scenario", false, "print the study's spec verbatim instead of running it")
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	var r io.Reader
	if paper != nil {
		if fs.NArg() != 0 {
			return fmt.Errorf("%s: unexpected arguments %v; edit the spec from -print-scenario and use run instead", cmd, fs.Args())
		}
		if *printScenario {
			_, err := w.Write(paper)
			return err
		}
		r = bytes.NewReader(paper)
	} else {
		// flag stops at the first positional, so accept flags on either
		// side of the spec path: re-parse whatever follows it.
		rest := fs.Args()
		if len(rest) > 1 {
			if err := fs.Parse(rest[1:]); err != nil {
				return err
			}
			if fs.NArg() != 0 {
				return fmt.Errorf("run: want exactly one spec path (or '-' for stdin), got %d", 1+fs.NArg())
			}
			rest = rest[:1]
		}
		if len(rest) != 1 {
			return fmt.Errorf("run: want exactly one spec path (or '-' for stdin), got %d", len(rest))
		}
		r = os.Stdin
		if path := rest[0]; path != "-" {
			f, err := os.Open(path)
			if err != nil {
				return err
			}
			defer f.Close()
			r = f
		}
	}
	spec, err := study.DecodeSpec(r)
	if err != nil {
		return err
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	opt, cleanup, err := obs.options(*workers)
	if err != nil {
		return err
	}
	rerr := func() error {
		if *jsonOut {
			if *csvPath != "" {
				return fmt.Errorf("run: -json and -csv are mutually exclusive")
			}
			if spec.Kind == "table1" {
				return fmt.Errorf("run: study kind table1 characterizes gates; it has no per-point result records")
			}
			if err := exp.CheckSpec(spec); err != nil {
				return err
			}
			// A cancelled or failed sweep still emits every completed
			// point's record (WriteResultRecords skips the rest) before
			// surfacing the error.
			gr, runErr := spec.Grid.Run(ctx, opt)
			if gr != nil {
				if err := study.WriteResultRecords(w, gr.Points); err != nil {
					return err
				}
			}
			return runErr
		}
		return runAndRender(ctx, spec, opt, *csvPath, w)
	}()
	if cerr := cleanup(); rerr == nil {
		rerr = cerr
	}
	return rerr
}
