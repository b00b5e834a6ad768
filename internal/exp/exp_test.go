package exp

import (
	"bytes"
	"context"
	"os"
	"regexp"
	"strings"
	"testing"

	"fabricpower/internal/core"
	"fabricpower/study"
)

// quickSim keeps test runtime low while leaving enough slots for
// stable statistics.
func quickSim() study.SimSpec { return simSpec(150, 900, 7) }

// quickPoint is one single-router operating point on the quick window.
func quickPoint(arch string, ports int, load float64) study.Scenario {
	return study.Scenario{
		Fabric:  study.FabricSpec{Arch: arch, Ports: ports},
		Traffic: study.TrafficSpec{Load: load},
		Sim:     quickSim(),
	}
}

// simSpec bounds a spec's runs explicitly.
func simSpec(warmup, measure uint64, seed int64) study.SimSpec {
	return study.SimSpec{WarmupSlots: &warmup, MeasureSlots: measure, Seed: seed}
}

// gridSpec assembles a study spec of the given kind.
func gridSpec(kind string, base study.Scenario, axes ...study.Axis) study.Spec {
	return study.Spec{Version: study.SpecVersion, Kind: kind, Grid: study.Grid{Base: base, Axes: axes}}
}

func intAxis(name string, v ...int) study.Axis { return study.Axis{Name: name, Ints: v} }

func floatAxis(name string, v ...float64) study.Axis { return study.Axis{Name: name, Floats: v} }

func stringAxis(name string, v ...string) study.Axis { return study.Axis{Name: name, Strings: v} }

// archAxis sweeps the given architectures, all four when none are named.
func archAxis(archs ...core.Architecture) study.Axis {
	if len(archs) == 0 {
		archs = core.Architectures()
	}
	a := study.Axis{Name: "arch"}
	for _, arch := range archs {
		a.Strings = append(a.Strings, arch.String())
	}
	return a
}

// runReport runs spec through RunSpecOpts on the given worker count
// and returns its report as the concrete type of the spec's kind.
func runReport[R Report](t testing.TB, spec study.Spec, workers int) R {
	t.Helper()
	rep, err := RunSpecOpts(context.Background(), spec, study.RunOptions{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	r, ok := rep.(R)
	if !ok {
		t.Fatalf("kind %q rendered %T", spec.Kind, rep)
	}
	return r
}

// TestPaperSpecsCanonical pins the embedded paper specs as canonical
// spec files: decoding one and encoding it again reproduces the file
// byte for byte, so what -print-scenario prints is exactly what runs.
func TestPaperSpecsCanonical(t *testing.T) {
	for _, name := range []string{"fig9", "fig10", "crossover", "saturate", "dpm", "net", "simulate", "table1"} {
		data, ok := PaperSpec(name)
		if !ok {
			t.Fatalf("no embedded spec for %s", name)
		}
		spec, err := study.DecodeSpec(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var buf bytes.Buffer
		if err := spec.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		if buf.String() != string(data) {
			t.Errorf("%s is not canonical:\n--- file ---\n%s\n--- re-encoded ---\n%s", name, data, buf.String())
		}
	}
	if _, ok := PaperSpec("tech"); ok {
		t.Error("tech is not a spec study")
	}
}

// TestSinglePointKindsRejectAxes: point and table1 render exactly one
// scenario, so a spec sweeping an axis under either kind fails instead
// of silently rendering only its base (a load axis [0.1, 0.4] over base
// load 0.2 used to print the 20% point, neither axis value).
func TestSinglePointKindsRejectAxes(t *testing.T) {
	point := gridSpec("point", study.Scenario{
		Fabric:  study.FabricSpec{Arch: "banyan", Ports: 8},
		Traffic: study.TrafficSpec{Load: 0.2},
		Sim:     simSpec(50, 200, 1),
	}, floatAxis("load", 0.1, 0.4))
	if _, err := RunSpecOpts(context.Background(), point, study.RunOptions{}); err == nil || !strings.Contains(err.Error(), "takes no axes") {
		t.Errorf("point spec with axes: err = %v", err)
	}
	table1 := gridSpec("table1", study.Scenario{Char: &study.CharSpec{Cycles: 24, BusWidth: 8}},
		intAxis("seed", 1, 2))
	if _, err := RunSpecOpts(context.Background(), table1, study.RunOptions{}); err == nil || !strings.Contains(err.Error(), "takes no axes") {
		t.Errorf("table1 spec with axes: err = %v", err)
	}
	point.Axes = nil
	if p := runReport[*PointReport](t, point, 1); p.Result.Slots != 200 {
		t.Errorf("axis-free point ran %d slots, want 200", p.Result.Slots)
	}
}

func TestRunPointBasics(t *testing.T) {
	res, err := study.RunScenario(quickPoint("crossbar", 8, 0.3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput < 0.25 || res.Throughput > 0.35 {
		t.Fatalf("throughput %g, want ≈0.3", res.Throughput)
	}
	if res.Power.TotalMW() <= 0 {
		t.Fatal("power must be positive")
	}
}

func TestRunPointRejectsBadConfig(t *testing.T) {
	if _, err := study.RunScenario(quickPoint("banyan", 6, 0.3)); err == nil {
		t.Fatal("non-power-of-two should fail")
	}
	if _, err := study.RunScenario(quickPoint("crossbar", 8, 1.5)); err == nil {
		t.Fatal("load > 1 should fail")
	}
}

func TestDefaults(t *testing.T) {
	data, _ := PaperSpec("fig9")
	fig9, err := study.DecodeSpec(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(axisInts(fig9.Axes, "ports", nil)) != 4 || len(axisFloats(fig9.Axes, "load", nil)) != 5 {
		t.Fatal("paper sweep dimensions")
	}
	p := study.Scenario{}.Resolved()
	if *p.Sim.WarmupSlots == 0 || p.Sim.MeasureSlots == 0 || p.Fabric.CellBits == 0 {
		t.Fatal("defaults not filled")
	}
	if p.Queue != "fifo" {
		t.Fatal("paper uses FIFO input buffering by default")
	}
}

func fig9ForTest(t *testing.T) *Fig9 {
	t.Helper()
	return runReport[*Fig9](t, gridSpec("fig9", study.Scenario{Sim: quickSim()},
		intAxis("ports", 4, 16), archAxis(), floatAxis("load", 0.1, 0.3, 0.5)), 0)
}

// TestFig9BanyanSuperlinear reproduces §6 observation 1's first half: the
// Banyan's power grows much faster than linearly with throughput (the
// buffer penalty), while the other three stay near-linear (observation 3).
func TestFig9BanyanSuperlinear(t *testing.T) {
	f := fig9ForTest(t)
	for _, n := range []int{4, 16} {
		x, y := f.Series(core.Banyan, n)
		if len(y) != 3 {
			t.Fatalf("banyan series incomplete: %v", y)
		}
		// Throughput rose 5×; superlinear means power rose much more.
		growth := y[len(y)-1] / y[0]
		if growth < 8 {
			t.Errorf("%dx%d banyan growth %.1f, want > 8 (superlinear)", n, n, growth)
		}
		_ = x
		// Linear architectures: high R² on a straight line.
		for _, a := range []core.Architecture{core.Crossbar, core.FullyConnected, core.BatcherBanyan} {
			r2, err := f.LinearityR2(a, n)
			if err != nil {
				t.Fatal(err)
			}
			if r2 < 0.98 {
				t.Errorf("%v %dx%d: R2 = %.4f, want >= 0.98 (§6 obs. 3)", a, n, n, r2)
			}
		}
	}
}

// TestFig9FullyConnectedCheapestSmallN reproduces §6 observation 2 at
// small port counts.
func TestFig9FullyConnectedCheapestSmallN(t *testing.T) {
	f := fig9ForTest(t)
	for _, n := range []int{4, 16} {
		fcPt, ok := f.Point(core.FullyConnected, n, 0.5)
		if !ok {
			t.Fatal("missing point")
		}
		fc := fcPt.Result.Power.TotalMW()
		for _, a := range []core.Architecture{core.Crossbar, core.Banyan, core.BatcherBanyan} {
			pt, ok := f.Point(a, n, 0.5)
			if !ok {
				t.Fatal("missing point")
			}
			if fc >= pt.Result.Power.TotalMW() {
				t.Errorf("%d×%d: fully connected (%.3f mW) should beat %v (%.3f mW)",
					n, n, fc, a, pt.Result.Power.TotalMW())
			}
		}
	}
}

// TestFig9OnlyBanyanBuffers: buffer power appears exactly where
// interconnect contention exists.
func TestFig9OnlyBanyanBuffers(t *testing.T) {
	f := fig9ForTest(t)
	for _, pt := range f.Points {
		if pt.Arch == core.Banyan {
			if pt.Offered >= 0.3 && pt.Result.Power.BufferMW == 0 {
				t.Errorf("banyan at %.0f%% should buffer", pt.Offered*100)
			}
			continue
		}
		if pt.Result.Power.BufferMW != 0 {
			t.Errorf("%v charged buffer power", pt.Arch)
		}
	}
}

func TestFig9RenderAndCSV(t *testing.T) {
	f := fig9ForTest(t)
	var buf bytes.Buffer
	if err := f.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Fig. 9", "banyan", "buffer_events", "16×16"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
	buf.Reset()
	if err := f.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+len(f.Points) {
		t.Fatalf("CSV rows = %d, want %d", len(lines), 1+len(f.Points))
	}
}

// fig10Spec is Fig. 10 at 50% load over the given sizes.
func fig10Spec(sizes ...int) study.Spec {
	return gridSpec("fig10", study.Scenario{Traffic: study.TrafficSpec{Load: 0.5}, Sim: quickSim()},
		intAxis("ports", sizes...), archAxis())
}

// crossoverSpec is the crossover study at one size over the given loads.
func crossoverSpec(model study.ModelSpec, ports int, sim study.SimSpec, loads ...float64) study.Spec {
	return gridSpec("crossover", study.Scenario{Model: model, Fabric: study.FabricSpec{Ports: ports}, Sim: sim},
		floatAxis("load", loads...), archAxis())
}

// TestFig10GapNarrows reproduces Fig. 10's headline: the fully-connected
// vs Batcher-Banyan gap decreases monotonically with port count (paper:
// 37% -> 20%; our constants give larger magnitudes, same direction).
func TestFig10GapNarrows(t *testing.T) {
	f := runReport[*Fig10](t, fig10Spec(4, 8, 16, 32), 0)
	prev := 2.0
	for _, n := range []int{4, 8, 16, 32} {
		gap, err := f.FCBatcherGap(n)
		if err != nil {
			t.Fatal(err)
		}
		if gap <= 0 {
			t.Errorf("%d×%d: FC should cost less than Batcher-Banyan (gap %.3f)", n, n, gap)
		}
		if gap >= prev {
			t.Errorf("%d×%d: gap %.3f did not narrow (prev %.3f)", n, n, gap, prev)
		}
		prev = gap
	}
	var buf bytes.Buffer
	if err := f.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "paper: 37% -> 20%") {
		t.Error("render should cite the paper's gap")
	}
	buf.Reset()
	if err := f.CSV(&buf); err != nil {
		t.Fatal(err)
	}
}

// TestFig10PowerGrowsWithPorts: every architecture's power rises with N
// at fixed load.
func TestFig10PowerGrowsWithPorts(t *testing.T) {
	f := runReport[*Fig10](t, fig10Spec(4, 16), 0)
	for _, a := range core.Architectures() {
		p4, ok1 := f.Power(a, 4)
		p16, ok2 := f.Power(a, 16)
		if !ok1 || !ok2 {
			t.Fatalf("%v: missing points", a)
		}
		if p16 <= p4 {
			t.Errorf("%v: power should grow with ports (%.3f -> %.3f)", a, p4, p16)
		}
	}
}

// TestCrossoverPerWordAccounting: under the per-word reading of Table 2,
// the Banyan is the cheapest 32×32 fabric at 30% load (§6 obs. 1's
// crossover regime).
func TestCrossoverPerWordAccounting(t *testing.T) {
	c := runReport[*Crossover](t, crossoverSpec(study.PerWordModel(), 32, quickSim(), 0.10, 0.30), 0)
	for i, w := range c.Winner {
		if w != core.Banyan {
			t.Errorf("per-word accounting: banyan should win at %.0f%%, got %v", c.Loads[i]*100, w)
		}
	}
	var buf bytes.Buffer
	if err := c.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

// TestCrossoverShapeCheckedBeforeRun: a crossover grid that is not
// loads × archs with arch innermost fails before any point runs.
func TestCrossoverShapeCheckedBeforeRun(t *testing.T) {
	base := study.Scenario{Fabric: study.FabricSpec{Ports: 8}, Sim: quickSim()}
	for _, tc := range []struct {
		spec study.Spec
		want string
	}{
		{gridSpec("crossover", base, archAxis(core.Banyan, core.Crossbar), floatAxis("load", 0.1, 0.3)),
			"must sweep the load axis before the arch axis"},
		{gridSpec("crossover", base, floatAxis("load", 0.1, 0.3), archAxis(core.Banyan, core.Crossbar), intAxis("seed", 1, 2)),
			"crossover grid shape 8 != 2 loads × 2 archs"},
	} {
		ran := 0
		opt := study.RunOptions{OnPoint: func(int, int, study.Scenario, study.Result, study.PointInfo) { ran++ }}
		if _, err := RunSpecOpts(context.Background(), tc.spec, opt); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("err = %v, want %q", err, tc.want)
		}
		if ran != 0 {
			t.Errorf("%q: %d points ran before the shape check failed", tc.want, ran)
		}
	}
}

// TestCrossoverPerBitAccounting: under the strict per-bit reading the
// buffer penalty moves the crossover to very low loads, and Banyan is no
// longer cheapest at 30%.
func TestCrossoverPerBitAccounting(t *testing.T) {
	c := runReport[*Crossover](t, crossoverSpec(study.PaperModel(), 32, quickSim(), 0.02, 0.30), 0)
	if c.Winner[0] != core.Banyan {
		t.Errorf("at 2%% the banyan should still win, got %v", c.Winner[0])
	}
	if c.Winner[1] == core.Banyan {
		t.Error("at 30% the per-bit buffer penalty should dethrone the banyan")
	}
}

// TestCrossoverDeviationFromPaper pins the 32×32 crossover under both
// buffer readings and the README's "Deviations from the paper" section
// that reports them. Per bit it is the closing line of the crossover
// golden; per 32-bit word it is the embedded crossover spec run with
// model.base "perword" at loads 0.05–0.90, where the Banyan is cheapest
// through 50% and the crossbar from 55% on. Neither is the paper's ≈35%.
func TestCrossoverDeviationFromPaper(t *testing.T) {
	closing := regexp.MustCompile(`(?m)^Banyan is cheapest up to ([0-9.]+%) throughput`)
	golden, err := os.ReadFile("../../scenarios/golden/paper/crossover.txt")
	if err != nil {
		t.Fatal(err)
	}
	m := closing.FindSubmatch(golden)
	if m == nil {
		t.Fatal("crossover golden has no closing line")
	}
	perBit := string(m[1])

	data, _ := PaperSpec("crossover")
	spec, err := study.DecodeSpec(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	spec.Base.Model = study.PerWordModel()
	loads := make([]float64, 18)
	for i := range loads {
		loads[i] = float64(5*(i+1)) / 100
	}
	if spec.Axes[0].Name != "load" {
		t.Fatalf("crossover spec sweeps %q first, want load", spec.Axes[0].Name)
	}
	spec.Axes[0].Floats = loads
	var buf bytes.Buffer
	if err := runReport[*Crossover](t, spec, 0).Render(&buf); err != nil {
		t.Fatal(err)
	}
	m = closing.FindSubmatch(buf.Bytes())
	if m == nil {
		t.Fatalf("per-word report has no closing line:\n%s", buf.String())
	}
	perWord := string(m[1])
	if perBit != "0.0%" || perWord != "50.0%" {
		t.Errorf("32×32 crossover is %s per bit and %s per word, want 0.0%% and 50.0%%", perBit, perWord)
	}

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "\n## Deviations from the paper\n")
	if !ok {
		t.Fatal("README has no \"Deviations from the paper\" section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	for _, row := range []struct{ reading, want string }{
		{"per bit", perBit},
		{"per 32-bit word", perWord},
	} {
		cell := regexp.MustCompile(`(?m)^\| ` + row.reading + `[^|]*\| ([^|]*?) *\|`).FindStringSubmatch(section)
		if cell == nil {
			t.Errorf("README deviations table has no %q row", row.reading)
		} else if cell[1] != row.want {
			t.Errorf("README gives the %s crossover as %q, the run gives %q", row.reading, cell[1], row.want)
		}
	}
}

// TestCrossoverRejectsSwappedAxes: the winner reduction reads each
// load's architectures as one contiguous run, so a spec sweeping arch
// outermost fails instead of crowning the wrong architectures.
func TestCrossoverRejectsSwappedAxes(t *testing.T) {
	spec := crossoverSpec(study.PaperModel(), 8, simSpec(20, 50, 1), 0.1, 0.3)
	spec.Axes[0], spec.Axes[1] = spec.Axes[1], spec.Axes[0]
	if _, err := RunSpecOpts(context.Background(), spec, study.RunOptions{}); err == nil || !strings.Contains(err.Error(), "load axis before the arch axis") {
		t.Errorf("arch-outermost crossover spec: err = %v", err)
	}
}

// TestSaturationCeiling reproduces the input-buffering limit.
func TestSaturationCeiling(t *testing.T) {
	s := runReport[*Saturation](t, gridSpec("saturate", study.Scenario{
		Fabric: study.FabricSpec{Arch: "crossbar", Ports: 16},
		Sim:    quickSim(),
	}, floatAxis("load", 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)), 0)
	if s.Ceiling < 0.55 || s.Ceiling > 0.65 {
		t.Fatalf("ceiling %.3f, want ≈0.60 at N=16", s.Ceiling)
	}
	// Below saturation egress tracks offered.
	if s.Egress[0] < 0.08 || s.Egress[0] > 0.12 {
		t.Fatalf("10%% offered should deliver ≈10%%, got %.3f", s.Egress[0])
	}
	var buf bytes.Buffer
	if err := s.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestBufferAblationDoubles(t *testing.T) {
	a, err := RunBufferAblation(quickPoint("", 16, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	r := a.TwoAccess.Power.BufferMW / a.OneAccess.Power.BufferMW
	if r < 1.9 || r > 2.1 {
		t.Fatalf("write+read should double buffer power, ratio %.3f", r)
	}
	var buf bytes.Buffer
	if err := a.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestFCWireAblationHalves(t *testing.T) {
	a, err := RunFCWireAblation(quickPoint("", 16, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	r := a.Avg.Power.WireMW / a.Worst.Power.WireMW
	if r < 0.4 || r > 0.6 {
		t.Fatalf("average wires should halve wire power, ratio %.3f", r)
	}
	var buf bytes.Buffer
	if err := a.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestQueueAblation(t *testing.T) {
	a, err := RunQueueAblation(quickPoint("", 8, 0))
	if err != nil {
		t.Fatal(err)
	}
	if a.VOQ.Throughput <= a.FIFO.Throughput+0.1 {
		t.Fatalf("VOQ (%.3f) should clearly beat FIFO (%.3f)", a.VOQ.Throughput, a.FIFO.Throughput)
	}
	var buf bytes.Buffer
	if err := a.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestTable2MatchesPaper(t *testing.T) {
	t2, err := RunTable2()
	if err != nil {
		t.Fatal(err)
	}
	if len(t2.Rows) != 4 {
		t.Fatalf("rows = %d", len(t2.Rows))
	}
	var buf bytes.Buffer
	if err := t2.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "320K") {
		t.Error("missing 32×32 row")
	}
}

func TestTable1Characterization(t *testing.T) {
	t1, err := RunTable1(core.PaperModel(), Table1Options{Cycles: 48, BusWidth: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// The anchor entry must match the paper exactly after calibration.
	row, ok := t1.Entry("banyan 2x2", "[1]")
	if !ok {
		t.Fatal("banyan [0,1] row missing")
	}
	if d := row.CharFJ - row.PaperFJ; d > 1 || d < -1 {
		t.Fatalf("anchor mismatch: %g vs %g", row.CharFJ, row.PaperFJ)
	}
	// Idle vectors are zero.
	for _, name := range []string{"crossbar 1x1", "banyan 2x2", "batcher 2x2"} {
		if r, ok := t1.Entry(name, "[0]"); !ok || r.CharFJ != 0 {
			t.Errorf("%s idle should be 0, got %+v", name, r)
		}
	}
	// Orderings of Table 1: crosspoint < banyan < batcher (single input),
	// and mux energy grows with N.
	xp, _ := t1.Entry("crossbar 1x1", "[1]")
	bn, _ := t1.Entry("banyan 2x2", "[1]")
	bt, _ := t1.Entry("batcher 2x2", "[1]")
	if !(xp.CharFJ < bn.CharFJ && bn.CharFJ < bt.CharFJ) {
		t.Errorf("ordering violated: %g, %g, %g", xp.CharFJ, bn.CharFJ, bt.CharFJ)
	}
	prev := 0.0
	for _, n := range []int{4, 8, 16, 32} {
		r, ok := t1.Entry("mux N="+itoa(n), "[1 active]")
		if !ok {
			t.Fatalf("mux %d row missing", n)
		}
		if r.CharFJ <= prev {
			t.Errorf("mux energy should grow with N: %g after %g", r.CharFJ, prev)
		}
		prev = r.CharFJ
	}
	// Concurrency discount on the characterized banyan.
	one, _ := t1.Entry("banyan 2x2", "[1]")
	two, _ := t1.Entry("banyan 2x2", "[11]")
	if !(two.CharFJ > one.CharFJ && two.CharFJ < 2*one.CharFJ) {
		t.Errorf("concurrency discount violated: %g vs %g", two.CharFJ, one.CharFJ)
	}
	var buf bytes.Buffer
	if err := t1.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "calibration") {
		t.Error("render should state the calibration factor")
	}
}

func itoa(n int) string {
	switch n {
	case 4:
		return "4"
	case 8:
		return "8"
	case 16:
		return "16"
	case 32:
		return "32"
	}
	return ""
}

func TestTechReport(t *testing.T) {
	var buf bytes.Buffer
	if err := TechReport(core.PaperModel(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"87", "E_T_bit", "32 bit"} {
		if !strings.Contains(out, want) {
			t.Errorf("tech report missing %q", want)
		}
	}
}
