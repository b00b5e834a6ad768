// Command benchjson converts `go test -bench` text output into a JSON
// array, so CI can archive benchmark results as a machine-readable
// artifact and the performance trajectory accumulates across commits.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem [-count N] ./... | benchjson [-out file]
//	benchjson -compare [-threshold 15] [-match regex] old.json new.json
//
// Flags must precede the two file arguments: the standard flag package
// stops parsing at the first positional argument.
//
// Each benchmark becomes one object; `pkg:` context lines from
// multi-package runs attribute every benchmark to its package, and the
// block's `cpu:` line records the machine it ran on. The `go` field is
// the toolchain benchjson itself was built with, which is the one that
// built the benchmarks when both are built in one job. Lines that are
// not benchmark results (PASS, ok, goos, ...) are skipped.
// Repeated lines of one benchmark (same package, name and procs, as
// `go test -count N` prints them) fold into one object: ns/op is their
// median, ns_per_op_min/ns_per_op_max their spread and samples their
// count. A benchmark measured once keeps its single-line object, so
// single-sample files read and compare as before.
//
// -compare diffs two such JSON files (typically a checked-in baseline
// against a fresh run), prints a per-benchmark delta table, and exits
// nonzero when any ns/op regressed by more than -threshold percent.
// Benchmarks present in only one file are reported but never fail the
// comparison, so adding or renaming benchmarks does not break CI. When
// the two files name different CPUs or Go versions (or one names none)
// the table opens with a warning: its deltas then compare machines or
// toolchains, not code.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark's measurement. For several samples NsPerOp
// is their median, Samples their count and NsPerOpMin/NsPerOpMax their
// range; Iterations sums the samples' iterations, and BytesPerOp and
// AllocsPerOp are the largest any sample reported.
type Result struct {
	Package     string  `json:"package,omitempty"`
	CPU         string  `json:"cpu,omitempty"`
	Go          string  `json:"go,omitempty"`
	Name        string  `json:"name"`
	Procs       int     `json:"procs"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	NsPerOpMin  float64 `json:"ns_per_op_min,omitempty"`
	NsPerOpMax  float64 `json:"ns_per_op_max,omitempty"`
	Samples     int     `json:"samples,omitempty"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
	HasMem      bool    `json:"has_mem"`
}

// key identifies a benchmark across samples and files.
func (r Result) key() string {
	return fmt.Sprintf("%s %s-%d", r.Package, r.Name, r.Procs)
}

func main() {
	out := flag.String("out", "", "write JSON here instead of stdout")
	compare := flag.Bool("compare", false, "compare two benchjson files: benchjson -compare old.json new.json")
	threshold := flag.Float64("threshold", 15, "with -compare, fail when ns/op regresses by more than this percentage")
	match := flag.String("match", "", "with -compare, only compare benchmarks whose name matches this regexp")
	flag.Parse()
	if *compare {
		if err := runCompare(flag.Args(), *threshold, *match, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		return
	}
	results, err := Parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(results); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

// runCompare loads two result files, renders the delta table and
// returns an error naming each regression beyond the threshold.
func runCompare(args []string, threshold float64, match string, w io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("-compare needs exactly two files: old.json new.json (flags like -threshold must come before them)")
	}
	var re *regexp.Regexp
	if match != "" {
		var err error
		if re, err = regexp.Compile(match); err != nil {
			return fmt.Errorf("bad -match: %w", err)
		}
	}
	load := func(path string) ([]Result, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var rs []Result
		if err := json.Unmarshal(data, &rs); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return rs, nil
	}
	oldR, err := load(args[0])
	if err != nil {
		return err
	}
	newR, err := load(args[1])
	if err != nil {
		return err
	}
	cmp := Compare(oldR, newR, threshold, re)
	cmp.Render(w)
	if n := len(cmp.Regressions()); n > 0 {
		return fmt.Errorf("%d benchmark(s) regressed beyond %.0f%%", n, threshold)
	}
	return nil
}

// Delta is one benchmark's old-vs-new comparison. A benchmark present
// in only one file has OnlyOld/OnlyNew set and no percentage.
type Delta struct {
	Key       string
	OldNsOp   float64
	NewNsOp   float64
	Pct       float64 // (new-old)/old × 100
	Regressed bool
	OnlyOld   bool
	OnlyNew   bool
}

// Comparison is the full old-vs-new diff, sorted by key, with the CPU
// each side ran on and the Go version each side was built with.
type Comparison struct {
	Deltas         []Delta
	Threshold      float64
	OldCPU, NewCPU string
	OldGo, NewGo   string
}

// Compare matches results by package+name+procs and computes ns/op
// deltas, between medians for multi-sample results. Results failing the
// optional name filter are dropped; a delta beyond threshold percent
// marks a regression.
func Compare(oldR, newR []Result, threshold float64, match *regexp.Regexp) Comparison {
	keep := func(r Result) bool {
		return match == nil || match.MatchString(r.Name)
	}
	olds := make(map[string]Result)
	for _, r := range oldR {
		if keep(r) {
			olds[r.key()] = r
		}
	}
	seen := make(map[string]bool)
	var deltas []Delta
	for _, r := range newR {
		if !keep(r) {
			continue
		}
		k := r.key()
		seen[k] = true
		o, ok := olds[k]
		if !ok {
			deltas = append(deltas, Delta{Key: k, NewNsOp: r.NsPerOp, OnlyNew: true})
			continue
		}
		d := Delta{Key: k, OldNsOp: o.NsPerOp, NewNsOp: r.NsPerOp}
		if o.NsPerOp > 0 {
			d.Pct = (r.NsPerOp - o.NsPerOp) / o.NsPerOp * 100
			d.Regressed = d.Pct > threshold
		}
		deltas = append(deltas, d)
	}
	for k, o := range olds {
		if !seen[k] {
			deltas = append(deltas, Delta{Key: k, OldNsOp: o.NsPerOp, OnlyOld: true})
		}
	}
	sort.Slice(deltas, func(i, j int) bool { return deltas[i].Key < deltas[j].Key })
	cpu := func(r Result) string { return r.CPU }
	goVersion := func(r Result) string { return r.Go }
	return Comparison{Deltas: deltas, Threshold: threshold,
		OldCPU: distinct(oldR, keep, cpu), NewCPU: distinct(newR, keep, cpu),
		OldGo: distinct(oldR, keep, goVersion), NewGo: distinct(newR, keep, goVersion)}
}

// distinct lists the distinct non-empty values of field over the kept
// results, sorted and joined by "; " ("" when none recorded one).
func distinct(rs []Result, keep func(Result) bool, field func(Result) string) string {
	var names []string
	seen := make(map[string]bool)
	for _, r := range rs {
		if v := field(r); keep(r) && v != "" && !seen[v] {
			seen[v] = true
			names = append(names, v)
		}
	}
	sort.Strings(names)
	return strings.Join(names, "; ")
}

// Regressions returns the deltas beyond the threshold.
func (c Comparison) Regressions() []Delta {
	var out []Delta
	for _, d := range c.Deltas {
		if d.Regressed {
			out = append(out, d)
		}
	}
	return out
}

// Render writes the per-benchmark delta table, after a warning when the
// two sides ran on different (or unrecorded) CPUs or Go versions.
func (c Comparison) Render(w io.Writer) {
	unrecorded := func(s string) string {
		if s == "" {
			return "unrecorded"
		}
		return s
	}
	if c.OldCPU != c.NewCPU {
		fmt.Fprintf(w, "warning: baseline CPU (%s) differs from new CPU (%s); the deltas compare machines as well as code\n",
			unrecorded(c.OldCPU), unrecorded(c.NewCPU))
	}
	if c.OldGo != c.NewGo {
		fmt.Fprintf(w, "warning: baseline Go (%s) differs from new Go (%s); the deltas compare toolchains as well as code\n",
			unrecorded(c.OldGo), unrecorded(c.NewGo))
	}
	for _, d := range c.Deltas {
		switch {
		case d.OnlyOld:
			fmt.Fprintf(w, "%-64s %12.1f %12s   removed\n", d.Key, d.OldNsOp, "-")
		case d.OnlyNew:
			fmt.Fprintf(w, "%-64s %12s %12.1f   added\n", d.Key, "-", d.NewNsOp)
		default:
			mark := ""
			if d.Regressed {
				mark = fmt.Sprintf("   REGRESSED (>%.0f%%)", c.Threshold)
			}
			fmt.Fprintf(w, "%-64s %12.1f %12.1f %+7.1f%%%s\n",
				d.Key, d.OldNsOp, d.NewNsOp, d.Pct, mark)
		}
	}
}

// Parse reads `go test -bench` output and returns one result per
// benchmark, in first-seen order, folding repeated samples (see group).
func Parse(r io.Reader) ([]Result, error) {
	lines, err := parseLines(r)
	if err != nil {
		return nil, err
	}
	return group(lines), nil
}

// group folds the samples of each benchmark into one result: the
// median ns/op with its min, max and sample count, summed iterations,
// and the largest B/op and allocs/op. A benchmark with one sample is
// returned as parsed.
func group(lines []Result) []Result {
	results := []Result{}
	samples := make(map[string][]Result)
	for _, r := range lines {
		k := r.key()
		if samples[k] == nil {
			results = append(results, r)
		}
		samples[k] = append(samples[k], r)
	}
	for i, r := range results {
		rs := samples[r.key()]
		if len(rs) == 1 {
			continue
		}
		ns := make([]float64, len(rs))
		r.Iterations = 0
		for j, s := range rs {
			ns[j] = s.NsPerOp
			r.Iterations += s.Iterations
			r.BytesPerOp = max(r.BytesPerOp, s.BytesPerOp)
			r.AllocsPerOp = max(r.AllocsPerOp, s.AllocsPerOp)
			r.HasMem = r.HasMem || s.HasMem
		}
		sort.Float64s(ns)
		mid := len(ns) / 2
		r.NsPerOp = ns[mid]
		if len(ns)%2 == 0 {
			r.NsPerOp = (ns[mid-1] + ns[mid]) / 2
		}
		r.NsPerOpMin, r.NsPerOpMax, r.Samples = ns[0], ns[len(ns)-1], len(ns)
		results[i] = r
	}
	return results
}

// parseLines returns every benchmark line of `go test -bench` output.
func parseLines(r io.Reader) ([]Result, error) {
	results := []Result{}
	pkg, cpu := "", ""
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "pkg: "); ok {
			// A new package block; its cpu: line, if any, follows.
			pkg, cpu = rest, ""
			continue
		}
		if rest, ok := strings.CutPrefix(line, "cpu: "); ok {
			cpu = rest
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		res, ok := parseLine(line)
		if !ok {
			continue
		}
		res.Package, res.CPU, res.Go = pkg, cpu, runtime.Version()
		results = append(results, res)
	}
	return results, sc.Err()
}

// parseLine parses one benchmark result line:
//
//	BenchmarkName-8   123   4567 ns/op [  89 B/op   2 allocs/op]
func parseLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Result{}, false
	}
	var res Result
	res.Name = fields[0]
	res.Procs = 1
	if i := strings.LastIndex(res.Name, "-"); i > 0 {
		if p, err := strconv.Atoi(res.Name[i+1:]); err == nil {
			res.Procs = p
			res.Name = res.Name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	res.Iterations = iters
	if fields[3] != "ns/op" {
		return Result{}, false
	}
	ns, err := strconv.ParseFloat(fields[2], 64)
	if err != nil {
		return Result{}, false
	}
	res.NsPerOp = ns
	for i := 4; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseInt(fields[i], 10, 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "B/op":
			res.BytesPerOp = v
			res.HasMem = true
		case "allocs/op":
			res.AllocsPerOp = v
			res.HasMem = true
		}
	}
	return res, true
}
