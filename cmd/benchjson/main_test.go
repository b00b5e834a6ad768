package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

const sampleBenchOutput = `goos: linux
goarch: amd64
pkg: fabricpower
cpu: Fake CPU @ 3.00GHz
BenchmarkCrossbarStep-8     	  123456	      9876 ns/op	       0 B/op	       0 allocs/op
BenchmarkSweepParallel-8    	      50	  22000000 ns/op
PASS
ok  	fabricpower	1.234s
pkg: fabricpower/internal/netsim
BenchmarkNetworkStep        	    2000	    500000 ns/op	    4096 B/op	      12 allocs/op
PASS
ok  	fabricpower/internal/netsim	2.000s
`

func TestParse(t *testing.T) {
	results, err := Parse(strings.NewReader(sampleBenchOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("parsed %d results, want 3: %+v", len(results), results)
	}
	r := results[0]
	if r.Package != "fabricpower" || r.Name != "BenchmarkCrossbarStep" || r.Procs != 8 {
		t.Errorf("result 0 identity: %+v", r)
	}
	if r.Iterations != 123456 || r.NsPerOp != 9876 || !r.HasMem || r.BytesPerOp != 0 || r.AllocsPerOp != 0 {
		t.Errorf("result 0 numbers: %+v", r)
	}
	if results[1].HasMem {
		t.Errorf("result 1 has no -benchmem columns: %+v", results[1])
	}
	r = results[2]
	if r.Package != "fabricpower/internal/netsim" || r.Name != "BenchmarkNetworkStep" || r.Procs != 1 {
		t.Errorf("result 2 identity: %+v", r)
	}
	if r.BytesPerOp != 4096 || r.AllocsPerOp != 12 {
		t.Errorf("result 2 mem: %+v", r)
	}
}

// TestParseCPU: each record carries its package block's cpu: line,
// a block without one records none, and an empty CPU stays out of the
// JSON.
func TestParseCPU(t *testing.T) {
	results, err := Parse(strings.NewReader(sampleBenchOutput))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"Fake CPU @ 3.00GHz", "Fake CPU @ 3.00GHz", ""} {
		if results[i].CPU != want {
			t.Errorf("result %d (%s) cpu = %q, want %q", i, results[i].Name, results[i].CPU, want)
		}
	}
	data, err := json.Marshal(results)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), `"cpu":`); n != 2 {
		t.Errorf("JSON carries %d cpu fields, want 2 (omitted when empty):\n%s", n, data)
	}
}

// TestCompareWarnsOnCPUChange: a compare across machines, or against a
// baseline that recorded none, opens with a warning; a same-machine
// compare does not. The warning never fails the gate.
func TestCompareWarnsOnCPUChange(t *testing.T) {
	at := func(cpu string, ns float64) []Result {
		return []Result{{Name: "BenchmarkX", Procs: 2, CPU: cpu, NsPerOp: ns}}
	}
	for _, tc := range []struct {
		old, new string
		warn     bool
	}{
		{"Xeon", "Xeon", false},
		{"Xeon", "EPYC", true},
		{"", "Xeon", true},
		{"", "", false},
	} {
		cmp := Compare(at(tc.old, 100), at(tc.new, 100), 15, nil)
		var out strings.Builder
		cmp.Render(&out)
		if got := strings.HasPrefix(out.String(), "warning: baseline CPU"); got != tc.warn {
			t.Errorf("old %q new %q: warning %v, want %v:\n%s", tc.old, tc.new, got, tc.warn, out.String())
		}
		if tc.old == "" && tc.warn && !strings.Contains(out.String(), "(unrecorded)") {
			t.Errorf("missing baseline CPU not named unrecorded:\n%s", out.String())
		}
		if len(cmp.Regressions()) != 0 {
			t.Errorf("old %q new %q: equal ns/op regressed", tc.old, tc.new)
		}
	}
}

// TestCompareWarnsOnGoChange: like a CPU change, results built with
// different Go versions (or an unrecorded one) open the table with a
// warning, and equal ns/op still does not regress.
func TestCompareWarnsOnGoChange(t *testing.T) {
	at := func(goVersion string, ns float64) []Result {
		return []Result{{Name: "BenchmarkX", Procs: 2, CPU: "Xeon", Go: goVersion, NsPerOp: ns}}
	}
	for _, tc := range []struct {
		old, new string
		warn     bool
	}{
		{"go1.24.0", "go1.24.0", false},
		{"go1.22.5", "go1.24.0", true},
		{"", "go1.24.0", true},
		{"", "", false},
	} {
		cmp := Compare(at(tc.old, 100), at(tc.new, 100), 15, nil)
		var out strings.Builder
		cmp.Render(&out)
		if got := strings.HasPrefix(out.String(), "warning: baseline Go"); got != tc.warn {
			t.Errorf("old %q new %q: warning %v, want %v:\n%s", tc.old, tc.new, got, tc.warn, out.String())
		}
		if tc.old == "" && tc.warn && !strings.Contains(out.String(), "(unrecorded)") {
			t.Errorf("missing baseline Go version not named unrecorded:\n%s", out.String())
		}
		if len(cmp.Regressions()) != 0 {
			t.Errorf("old %q new %q: equal ns/op regressed", tc.old, tc.new)
		}
	}
}

// TestParseRecordsGoVersion: every parsed result carries the toolchain
// version.
func TestParseRecordsGoVersion(t *testing.T) {
	results, err := Parse(strings.NewReader(countBenchOutput))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Go != runtime.Version() {
			t.Errorf("%s: go %q, want %q", r.Name, r.Go, runtime.Version())
		}
	}
}

// countBenchOutput is `go test -count` output: three samples of
// BenchmarkA, four of BenchmarkB, BenchmarkA again in a second package
// and at another GOMAXPROCS, and a single-sample BenchmarkC.
const countBenchOutput = `pkg: p
BenchmarkA-2   	 100	 300 ns/op	 16 B/op	 1 allocs/op
BenchmarkA-2   	 120	 100 ns/op	 16 B/op	 1 allocs/op
BenchmarkA-2   	 110	 200 ns/op	 32 B/op	 2 allocs/op
BenchmarkA-4   	 100	 900 ns/op
BenchmarkB-2   	  10	 40 ns/op
BenchmarkB-2   	  10	 10 ns/op
BenchmarkB-2   	  10	 30 ns/op
BenchmarkB-2   	  10	 20 ns/op
BenchmarkC-2   	   5	 77 ns/op
pkg: q
BenchmarkA-2   	  50	 500 ns/op
`

// TestParseGroupsSamples: repeated lines of one benchmark (same
// package, name and procs) fold into one record in first-seen order,
// and a lone line keeps its single-sample shape.
func TestParseGroupsSamples(t *testing.T) {
	results, err := Parse(strings.NewReader(countBenchOutput))
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, r := range results {
		keys = append(keys, r.key())
	}
	want := []string{"p BenchmarkA-2", "p BenchmarkA-4", "p BenchmarkB-2", "p BenchmarkC-2", "q BenchmarkA-2"}
	if strings.Join(keys, ",") != strings.Join(want, ",") {
		t.Fatalf("records %v, want %v", keys, want)
	}
	a := results[0]
	if a.Samples != 3 || a.Iterations != 330 || a.BytesPerOp != 32 || a.AllocsPerOp != 2 || !a.HasMem {
		t.Errorf("grouped BenchmarkA: %+v", a)
	}
	for _, i := range []int{1, 3, 4} {
		if r := results[i]; r.Samples != 0 || r.NsPerOpMin != 0 || r.NsPerOpMax != 0 {
			t.Errorf("single-sample %s gained spread fields: %+v", r.key(), r)
		}
	}
	data, err := json.Marshal(results[3])
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "samples") || strings.Contains(string(data), "ns_per_op_m") {
		t.Errorf("single-sample record encodes the new fields: %s", data)
	}
}

// TestParseMedianOddEven: an odd sample count takes the middle sample,
// an even one the mean of the two middle samples; min and max bound
// them.
func TestParseMedianOddEven(t *testing.T) {
	results, err := Parse(strings.NewReader(countBenchOutput))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		i                int
		median, min, max float64
		samples          int
	}{
		{0, 200, 100, 300, 3},
		{2, 25, 10, 40, 4},
	} {
		r := results[c.i]
		if r.NsPerOp != c.median || r.NsPerOpMin != c.min || r.NsPerOpMax != c.max || r.Samples != c.samples {
			t.Errorf("%s: median %v [%v, %v] n=%d, want %v [%v, %v] n=%d", r.key(),
				r.NsPerOp, r.NsPerOpMin, r.NsPerOpMax, r.Samples, c.median, c.min, c.max, c.samples)
		}
	}
}

// TestRunCompareMixedSamples: a single-sample baseline (no spread
// fields, as the checked-in one) compares against a -count run by the
// new run's median.
func TestRunCompareMixedSamples(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	if err := os.WriteFile(oldPath, []byte(`[{"package":"p","name":"BenchmarkB","procs":2,"iterations":10,"ns_per_op":20,"has_mem":false}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	fresh, err := Parse(strings.NewReader(countBenchOutput))
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(fresh)
	if err != nil {
		t.Fatal(err)
	}
	newPath := filepath.Join(dir, "new.json")
	if err := os.WriteFile(newPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// The median 25 ns/op is +25% on the baseline's 20; the slowest
	// sample alone (40) would read +100%.
	var out strings.Builder
	if err := runCompare([]string{oldPath, newPath}, 30, "BenchmarkB", &out); err != nil {
		t.Fatalf("median within threshold failed the gate: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "+25.0%") {
		t.Errorf("compare did not use the median:\n%s", out.String())
	}
	if err := runCompare([]string{oldPath, newPath}, 20, "BenchmarkB", io.Discard); err == nil {
		t.Error("median beyond threshold passed the gate")
	}
}

func TestParseSkipsNoise(t *testing.T) {
	results, err := Parse(strings.NewReader("PASS\nok x 1s\nBenchmarkBroken garbage ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 0 {
		t.Fatalf("noise parsed as results: %+v", results)
	}
}

// TestCompare: ns/op deltas beyond the threshold regress, improvements
// and small drifts pass, and one-sided benchmarks never fail.
func TestCompare(t *testing.T) {
	old := []Result{
		{Package: "p", Name: "BenchmarkA", Procs: 8, NsPerOp: 1000},
		{Package: "p", Name: "BenchmarkB", Procs: 8, NsPerOp: 1000},
		{Package: "p", Name: "BenchmarkC", Procs: 8, NsPerOp: 1000},
		{Package: "p", Name: "BenchmarkGone", Procs: 8, NsPerOp: 500},
	}
	fresh := []Result{
		{Package: "p", Name: "BenchmarkA", Procs: 8, NsPerOp: 1100}, // +10%: ok
		{Package: "p", Name: "BenchmarkB", Procs: 8, NsPerOp: 1200}, // +20%: regression
		{Package: "p", Name: "BenchmarkC", Procs: 8, NsPerOp: 700},  // improvement
		{Package: "p", Name: "BenchmarkNew", Procs: 8, NsPerOp: 900},
	}
	cmp := Compare(old, fresh, 15, nil)
	regs := cmp.Regressions()
	if len(regs) != 1 || !strings.Contains(regs[0].Key, "BenchmarkB") {
		t.Fatalf("regressions = %+v, want exactly BenchmarkB", regs)
	}
	if len(cmp.Deltas) != 5 {
		t.Fatalf("deltas = %d, want 5 (3 matched + 1 added + 1 removed)", len(cmp.Deltas))
	}
	var added, removed bool
	for _, d := range cmp.Deltas {
		if d.OnlyNew && strings.Contains(d.Key, "BenchmarkNew") {
			added = true
		}
		if d.OnlyOld && strings.Contains(d.Key, "BenchmarkGone") {
			removed = true
		}
		if (d.OnlyNew || d.OnlyOld) && d.Regressed {
			t.Errorf("one-sided benchmark flagged as regression: %+v", d)
		}
	}
	if !added || !removed {
		t.Error("added/removed benchmarks not reported")
	}
	var out strings.Builder
	cmp.Render(&out)
	if !strings.Contains(out.String(), "REGRESSED") {
		t.Errorf("render does not mark the regression:\n%s", out.String())
	}
}

// TestCompareMatchFilter: -match restricts the comparison by name, so
// a noisy benchmark outside the filter cannot fail the gate.
func TestCompareMatchFilter(t *testing.T) {
	old := []Result{
		{Name: "BenchmarkNoisy", Procs: 1, NsPerOp: 100},
		{Name: "BenchmarkKernel", Procs: 1, NsPerOp: 100},
	}
	fresh := []Result{
		{Name: "BenchmarkNoisy", Procs: 1, NsPerOp: 400},
		{Name: "BenchmarkKernel", Procs: 1, NsPerOp: 100},
	}
	cmp := Compare(old, fresh, 15, regexpMust(t, "Kernel"))
	if len(cmp.Deltas) != 1 {
		t.Fatalf("deltas = %+v, want only BenchmarkKernel", cmp.Deltas)
	}
	if len(cmp.Regressions()) != 0 {
		t.Errorf("filtered comparison regressed: %+v", cmp.Regressions())
	}
}

func regexpMust(t *testing.T, expr string) *regexp.Regexp {
	t.Helper()
	re, err := regexp.Compile(expr)
	if err != nil {
		t.Fatal(err)
	}
	return re
}

// TestRunCompareEndToEnd drives the file-level entry: JSON in, table
// out, error naming the regression count.
func TestRunCompareEndToEnd(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rs []Result) string {
		data, err := json.Marshal(rs)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	oldPath := write("old.json", []Result{{Name: "BenchmarkX", Procs: 4, NsPerOp: 100}})
	samePath := write("same.json", []Result{{Name: "BenchmarkX", Procs: 4, NsPerOp: 105}})
	worsePath := write("worse.json", []Result{{Name: "BenchmarkX", Procs: 4, NsPerOp: 200}})

	var out strings.Builder
	if err := runCompare([]string{oldPath, samePath}, 15, "", &out); err != nil {
		t.Fatalf("5%% drift failed the gate: %v", err)
	}
	if !strings.Contains(out.String(), "BenchmarkX") {
		t.Errorf("table missing the benchmark:\n%s", out.String())
	}
	err := runCompare([]string{oldPath, worsePath}, 15, "", io.Discard)
	if err == nil || !strings.Contains(err.Error(), "regressed") {
		t.Fatalf("2x slowdown passed the gate: %v", err)
	}
	if err := runCompare([]string{oldPath}, 15, "", io.Discard); err == nil {
		t.Error("one file should fail usage validation")
	}
	if err := runCompare([]string{oldPath, samePath}, 15, "[", io.Discard); err == nil {
		t.Error("bad -match regexp should fail")
	}
	if err := runCompare([]string{oldPath, filepath.Join(dir, "missing.json")}, 15, "", io.Discard); err == nil {
		t.Error("missing file should fail")
	}
}
