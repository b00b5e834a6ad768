// Command fabricbench is fabricpower's end-to-end benchmark. It runs
// one named workload through the public entry points — a generated
// spec through study.DecodeSpec and study.Grid.Run, or the scenario
// corpus through an in-process studyd server over loopback HTTP —
// checks every simulated result, and prints the workload's metrics.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 a
// separate traced run reports the per-layer ones and writes a Chrome
// trace (loadable in Perfetto) under -out. See README.md for the
// workloads and what each metric should move.
//
// Usage (from the repository root):
//
//	bash fabricbench/run.sh --workload paper-sweep --seed 1 --seconds 25 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// processStart is taken during package initialization, the earliest
// moment the program's own code runs; set-up time counts from here.
var processStart = time.Now()

// initS is the time from package initialization to main: the part of
// set-up the runtime spends before the benchmark's own code runs.
var initS float64

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is a run's verdict and metrics: the benchmark's final line.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd and perLayer list every metric name with its unit; they
// match BENCHMARK.json (checked by TestMetricListsMatchBenchmarkJSON).
var endToEnd = [][2]string{
	{"setup_s", "s"},
	{"node_slots_per_s", "1/s"},
	{"allocs_per_node_slot", "count"},
	{"peak_rss_mb", "MiB"},
	{"request_ms_p50", "ms"},
	{"request_ms_p95", "ms"},
	{"first_record_ms_p50", "ms"},
	{"studies_per_s", "1/s"},
}

var perLayer = [][2]string{
	{"sweep.busy_frac", "ratio"},
	{"sweep.tail_ms", "ms"},
	{"study.point_ms_p50", "ms"},
	{"study.point_ms_max", "ms"},
	{"traffic.generate_ns_per_slot", "ns"},
	{"traffic.allocs_per_cell", "count"},
	{"router.step_ns_per_slot", "ns"},
	{"router.allocs_per_slot", "count"},
	{"router.queue_cells_mean", "count"},
	{"fabric.step_ns_per_slot", "ns"},
	{"dpm.slot_ns", "ns"},
	{"netsim.build_ms", "ms"},
	{"netsim.step_us", "us"},
	{"netsim.idle_node_frac", "ratio"},
	{"netsim.compute_frac", "ratio"},
	{"netsim.exchange_frac", "ratio"},
	{"netsim.barrier_wait_frac", "ratio"},
	{"netsim.shard_imbalance", "ratio"},
	{"study.decode_us", "us"},
	{"study.encode_us_per_record", "us"},
	{"studyd.queue_wait_ms", "ms"},
	{"studyd.stream_ms", "ms"},
	{"studyd.bytes_per_study", "B"},
	{"studyd.rejected_frac", "ratio"},
	{"energy.papermux.hit_ratio", "ratio"},
	{"thompson.stagegrid.hit_ratio", "ratio"},
	{"gc.cpu_frac", "ratio"},
	{"gc.cycles", "count"},
	{"trace_overhead_frac", "ratio"},
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string // directory for traces
}

// root is the repository checkout the benchmark runs from (it reads
// scenarios/ there).
const root = "."

// setupReps is how many times a batch run repeats its set-up before
// timing; setup_s is the median of these and the repetitions between
// studies.
const setupReps = 5

func main() {
	initS = time.Since(processStart).Seconds()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("fabricbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var o options
	var traceFlag int
	var pins string
	fl.StringVar(&o.workload, "workload", "paper-sweep", "workload to run")
	fl.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	fl.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	fl.IntVar(&traceFlag, "trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	fl.StringVar(&o.out, "out", ".bench_build", "directory traces are written to")
	fl.StringVar(&pins, "write-digests", "", "print pinned result digests for these comma-separated seeds and exit")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if pins != "" {
		if err := writeDigests(stdout, pins); err != nil {
			fmt.Fprintln(stderr, "fabricbench:", err)
			return 1
		}
		return 0
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(stderr, "fabricbench: -trace must be 0 or 1")
		return 2
	}
	o.trace = traceFlag == 1
	if o.seconds <= 0 {
		fmt.Fprintln(stderr, "fabricbench: -seconds must be positive")
		return 2
	}
	w, err := findWorkload(o.workload)
	if err != nil {
		fmt.Fprintln(stderr, "fabricbench:", err)
		return 2
	}
	printMeta(stdout, o)
	var out *outcome
	switch {
	case w.spec == nil && o.trace:
		out, err = tracedServe(stdout, o)
	case w.spec == nil:
		out, err = runServe(stdout, o)
	case o.trace:
		out, err = tracedBatch(stdout, o, w)
	default:
		out, err = runBatch(stdout, o, w)
	}
	if err != nil {
		fmt.Fprintln(stderr, "fabricbench:", err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "fabricbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// metricsFrom builds the metrics object for names, failing loudly if a
// run forgot one.
func metricsFrom(names [][2]string, vals map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(names))
	for _, nu := range names {
		v, ok := vals[nu[0]]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", nu[0])
		}
		out[nu[0]] = metric{Value: v, Unit: nu[1]}
	}
	return out, nil
}

// printMetrics writes the human-readable metric table.
func printMetrics(w io.Writer, names [][2]string, vals map[string]float64, notes map[string]string) {
	for _, nu := range names {
		fmt.Fprintf(w, "  %-30s %14.6g %-6s %s\n", nu[0], vals[nu[0]], nu[1], notes[nu[0]])
	}
}

// printMeta records the machine and code a result was taken on.
func printMeta(w io.Writer, o options) {
	commit := "unknown (not built from a git checkout)"
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+modified"
				}
			}
		}
		if rev != "" {
			commit = rev + dirty
		}
	}
	fmt.Fprintf(w, "fabricbench workload=%s seed=%d seconds=%g trace=%v\n", o.workload, o.seed, o.seconds, o.trace)
	fmt.Fprintf(w, "meta nproc=%d gomaxprocs=%d cpu=%q go=%s os=%s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(w, "meta commit=%s source=%s\n", commit, sourceDigest(root))
}

// cpuModel reads the CPU model name from /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the checkout's Go sources and module files, so a
// result names the code it measured even outside a git checkout.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return fmt.Sprintf("sha256:%s (%d files)", hex.EncodeToString(h.Sum(nil))[:16], len(files))
}
