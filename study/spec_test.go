package study_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"fabricpower/study"
)

// fullySpecified is the base scenario of the paper's spec files: the
// simulation bounds spelled out so a printed spec is explicit and
// reproducible.
func fullySpecified(model study.ModelSpec, cellBits int, measure uint64, seed int64) study.Scenario {
	warmup := uint64(300)
	return study.Scenario{
		Model:  model,
		Fabric: study.FabricSpec{CellBits: cellBits},
		Queue:  "fifo",
		Sim:    study.SimSpec{WarmupSlots: &warmup, MeasureSlots: measure, Seed: seed},
	}
}

// fig10Spec is the reference spec the golden-file tests pin: the
// fig10 study at 2 sizes and quick slots.
func fig10Spec() study.Spec {
	base := fullySpecified(study.PaperModel(), 1024, 300, 1)
	base.Traffic.Load = 0.5
	return study.Spec{
		Version: study.SpecVersion,
		Kind:    "fig10",
		Grid: study.Grid{
			Base: base,
			Axes: []study.Axis{
				{Name: "ports", Ints: []int{4, 8}},
				{Name: "arch", Strings: []string{"crossbar", "fullyconnected", "banyan", "batcherbanyan"}},
			},
		},
	}
}

// update regenerates the golden files instead of comparing:
// UPDATE_GOLDEN=1 go test ./study -run Golden
var update = os.Getenv("UPDATE_GOLDEN") != ""

// TestSpecGoldenEncode pins the on-disk JSON schema: an encoded spec
// must match the checked-in golden file byte for byte, so accidental
// schema changes (renamed fields, reordered keys, lost omitempty) fail
// loudly.

func TestSpecGoldenEncode(t *testing.T) {
	var buf bytes.Buffer
	if err := fig10Spec().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "fig10-spec.golden.json")
	if update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("encoded spec drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

// TestSpecGoldenRoundTrip: decoding the golden file reproduces the
// constructed spec exactly, and re-encoding it is byte-stable.
func TestSpecGoldenRoundTrip(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "fig10-spec.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := study.DecodeSpec(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decoded, fig10Spec()) {
		t.Fatalf("decoded spec differs from constructed:\n%+v\n%+v", decoded, fig10Spec())
	}
	var buf bytes.Buffer
	if err := decoded.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), data) {
		t.Fatal("re-encoded spec is not byte-stable")
	}
}

// TestNetSpecGolden covers the network block's schema the same way.
func TestNetSpecGolden(t *testing.T) {
	base := fullySpecified(study.ModelSpec{Static: true}, 256, 500, 3)
	base.Fabric.Arch = "crossbar"
	base.Network = &study.NetworkSpec{Nodes: 4, Matrix: "uniform"}
	spec := study.Spec{
		Version: study.SpecVersion,
		Kind:    "net",
		Grid: study.Grid{
			Base: base,
			Axes: []study.Axis{
				{Name: "topology", Strings: []string{"ring", "fattree"}},
				{Name: "routing", Strings: []string{"shortest", "consolidate"}},
				{Name: "dpm", Strings: []string{"alwayson", "idlegate"}},
				{Name: "load", Floats: []float64{0.1, 0.3}},
			},
		},
	}
	var buf bytes.Buffer
	if err := spec.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "net-spec.golden.json")
	if update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("net spec drifted from golden:\n%s", buf.Bytes())
	}
	decoded, err := study.DecodeSpec(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decoded, spec) {
		t.Fatal("decoded net spec differs from constructed")
	}
}

// TestSpecVersioning pins the schema-version contract: Encode stamps
// the current version, a pre-versioning spec (no field) reads as v1,
// and any other version fails loudly instead of half-parsing.
func TestSpecVersioning(t *testing.T) {
	var buf bytes.Buffer
	if err := (study.Spec{}).Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"version": 1`) {
		t.Fatalf("Encode did not stamp version 1:\n%s", buf.String())
	}
	legacy, err := study.DecodeSpec(strings.NewReader(`{"study": "saturate", "base": {}}`))
	if err != nil {
		t.Fatalf("pre-versioning spec rejected: %v", err)
	}
	if legacy.Version != study.SpecVersion {
		t.Fatalf("legacy spec normalized to version %d, want %d", legacy.Version, study.SpecVersion)
	}
	if _, err := study.DecodeSpec(strings.NewReader(`{"version": 2, "base": {}}`)); err == nil {
		t.Fatal("future spec version accepted")
	}
	if _, err := study.DecodeSpec(strings.NewReader(`{"version": -3, "base": {}}`)); err == nil {
		t.Fatal("negative spec version accepted")
	}
}

// TestDecodeRejectsUnknownFields: typos in scenario files must fail
// loudly, not silently select defaults.
func TestDecodeRejectsUnknownFields(t *testing.T) {
	cases := []string{
		`{"study": "fig9", "base": {"farbic": {"arch": "banyan"}}}`,
		`{"base": {"fabric": {"arch": "banyan", "prots": 8}}}`,
		`{"base": {"sim": {"wamupSlots": 10}}}`,
		`{"base": {"network": {"topolgy": "ring"}}}`,
	}
	for _, c := range cases {
		if _, err := study.DecodeSpec(strings.NewReader(c)); err == nil {
			t.Errorf("unknown field accepted: %s", c)
		}
	}
	if _, err := study.DecodeScenario(strings.NewReader(`{"fabirc": {}}`)); err == nil {
		t.Error("DecodeScenario accepted an unknown field")
	}
}

// TestDecodeValidates: structurally bad scenarios are rejected at
// decode time.
func TestDecodeValidates(t *testing.T) {
	cases := []string{
		`{"base": {"fabric": {"arch": "toroidal"}}}`,
		`{"base": {"queue": "lifo"}}`,
		`{"base": {"traffic": {"load": 1.5}}}`,
		`{"base": {"fabric": {"ports": 8}, "network": {"topology": "ring", "nodes": 4}}}`,
		`{"base": {"traffic": {"kind": "hotspot"}, "network": {"topology": "ring", "nodes": 4}}}`,
	}
	for _, c := range cases {
		if _, err := study.DecodeSpec(strings.NewReader(c)); err == nil {
			t.Errorf("invalid spec accepted: %s", c)
		}
	}
}

// TestCellBitsLimit: an oversized cell fails validation with an error
// naming the field and the limit, whether it sits in the base (decode
// time) or arrives through a cellbits axis (run time), before any cell
// is allocated. A single 10⁹-bit cell would take 125 MB.
func TestCellBitsLimit(t *testing.T) {
	const wantErr = "fabric.cellBits 1000000000 exceeds the limit of 65536 bits"
	check := func(form string, run func() error) {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := run()
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), wantErr) {
			t.Errorf("%s form: err = %v, want %q", form, err, wantErr)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 16<<20 {
			t.Errorf("%s form allocated %d bytes before failing", form, n)
		}
	}
	check("base", func() error {
		_, err := study.DecodeSpec(strings.NewReader(`{"base": {"fabric": {"cellBits": 1000000000}}}`))
		return err
	})
	check("axis", func() error {
		g := study.Grid{
			Base: study.Scenario{Fabric: study.FabricSpec{Arch: "banyan", Ports: 8}},
			Axes: []study.Axis{{Name: "cellbits", Ints: []int{1000000000}}},
		}
		_, err := g.Run(context.Background(), study.RunOptions{Workers: 1})
		return err
	})
	// The limit itself is a valid size.
	if _, err := study.DecodeSpec(strings.NewReader(`{"base": {"fabric": {"cellBits": 65536}}}`)); err != nil {
		t.Errorf("cellBits at the limit rejected: %v", err)
	}
}

// TestEnumerateOrderAndFeasibility pins the sweep order (first axis
// outermost) and the Batcher-Banyan < 4 ports filter.
func TestEnumerateOrderAndFeasibility(t *testing.T) {
	g := study.Grid{
		Base: study.Scenario{},
		Axes: []study.Axis{
			{Name: "ports", Ints: []int{2, 4}},
			{Name: "arch", Strings: []string{"crossbar", "batcherbanyan"}},
		},
	}
	scs, err := g.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	type pt struct {
		arch  string
		ports int
	}
	var got []pt
	for _, sc := range scs {
		got = append(got, pt{sc.Fabric.Arch, sc.Fabric.Ports})
	}
	want := []pt{
		{"crossbar", 2},
		{"crossbar", 4}, {"batcherbanyan", 4},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("enumeration = %v, want %v", got, want)
	}
}

// TestEnumerateIsolatesNetworkBlocks: axis applications on one grid
// point must not leak into siblings through the shared Network pointer.
func TestEnumerateIsolatesNetworkBlocks(t *testing.T) {
	g := study.Grid{
		Base: study.Scenario{Network: &study.NetworkSpec{Nodes: 4}},
		Axes: []study.Axis{
			{Name: "topology", Strings: []string{"ring", "star"}},
			{Name: "routing", Strings: []string{"shortest", "consolidate"}},
		},
	}
	scs, err := g.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != 4 {
		t.Fatalf("got %d scenarios", len(scs))
	}
	if scs[0].Network.Topology != "ring" || scs[3].Network.Topology != "star" {
		t.Fatalf("topology axis leaked: %+v", scs)
	}
	if scs[0].Network.Routing != "shortest" || scs[1].Network.Routing != "consolidate" {
		t.Fatalf("routing axis leaked: %+v", scs)
	}
	if g.Base.Network.Topology != "" {
		t.Fatal("enumeration mutated the base scenario")
	}
}

// TestUnknownAxisRejected: grids over unregistered axes fail up front.
func TestUnknownAxisRejected(t *testing.T) {
	g := study.Grid{Axes: []study.Axis{{Name: "voltage", Floats: []float64{1.0}}}}
	if _, err := g.Enumerate(); err == nil {
		t.Fatal("unknown axis should fail")
	}
	g = study.Grid{Axes: []study.Axis{{Name: "load"}}}
	if _, err := g.Enumerate(); err == nil {
		t.Fatal("empty axis should fail")
	}
	g = study.Grid{Axes: []study.Axis{{Name: "load", Ints: []int{1}}}}
	if _, err := g.Enumerate(); err == nil {
		t.Fatal("wrong value type should fail")
	}
}

// TestRegisterAxis: a registered axis becomes sweepable.
func TestRegisterAxis(t *testing.T) {
	if err := study.RegisterAxis("testaxis-burst", func(sc *study.Scenario, a study.Axis, i int) error {
		sc.Traffic.MeanBurstSlots = a.Floats[i]
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := study.RegisterAxis("testaxis-burst", nil); err == nil {
		t.Fatal("nil applier should fail")
	}
	g := study.Grid{Axes: []study.Axis{{Name: "testaxis-burst", Floats: []float64{5, 20}}}}
	scs, err := g.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != 2 || scs[0].Traffic.MeanBurstSlots != 5 || scs[1].Traffic.MeanBurstSlots != 20 {
		t.Fatalf("registered axis not applied: %+v", scs)
	}
}

// TestScenarioUnsetVersusZero pins the pointer semantics the schema
// exists for: absent warmupSlots selects the default, an explicit 0
// stays 0 — and both survive a JSON round trip.
func TestScenarioUnsetVersusZero(t *testing.T) {
	absent, err := study.DecodeScenario(strings.NewReader(`{"fabric": {"arch": "crossbar", "ports": 4}}`))
	if err != nil {
		t.Fatal(err)
	}
	if absent.Sim.WarmupSlots != nil {
		t.Fatal("absent warmupSlots must decode to nil (default)")
	}
	explicit, err := study.DecodeScenario(strings.NewReader(
		`{"fabric": {"arch": "crossbar", "ports": 4}, "sim": {"warmupSlots": 0}, "traffic": {"kind": "hotspot", "load": 0.2, "hotspotFraction": 0}}`))
	if err != nil {
		t.Fatal(err)
	}
	if explicit.Sim.WarmupSlots == nil || *explicit.Sim.WarmupSlots != 0 {
		t.Fatal("explicit warmupSlots: 0 must decode to a literal zero")
	}
	if explicit.Traffic.HotspotFraction == nil || *explicit.Traffic.HotspotFraction != 0 {
		t.Fatal("explicit hotspotFraction: 0 must decode to a literal zero")
	}
	out, err := explicit.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	back, err := study.DecodeScenario(bytes.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if back.Sim.WarmupSlots == nil || *back.Sim.WarmupSlots != 0 {
		t.Fatalf("explicit zero lost in round trip: %s", out)
	}
}

// TestDecodeErrorsNameField pins the decode diagnostics: an unknown
// field names the typo, a type mismatch names the field and the value
// it got, and an unsupported version names the number — so a broken
// spec file tells the user what to fix.
func TestDecodeErrorsNameField(t *testing.T) {
	_, err := study.DecodeSpec(strings.NewReader(`{"base": {"farbic": {"arch": "banyan"}}}`))
	if err == nil || !strings.Contains(err.Error(), `"farbic"`) {
		t.Errorf("unknown-field error should name the field: %v", err)
	}
	_, err = study.DecodeSpec(strings.NewReader(`{"base": {"fabric": {"ports": "eight"}}}`))
	if err == nil || !strings.Contains(err.Error(), "ports") || !strings.Contains(err.Error(), "string") {
		t.Errorf("type error should name the field and the offending JSON type: %v", err)
	}
	_, err = study.DecodeSpec(strings.NewReader(`{"version": 99, "base": {}}`))
	if err == nil || !strings.Contains(err.Error(), "99") {
		t.Errorf("version error should name the value: %v", err)
	}
	_, err = study.DecodeScenario(strings.NewReader(`{"sim": {"seed": true}}`))
	if err == nil || !strings.Contains(err.Error(), "seed") {
		t.Errorf("scenario type error should name the field: %v", err)
	}
}

// TestFailureSpecValidation: malformed failures blocks are rejected
// with messages naming the problem.
func TestFailureSpecValidation(t *testing.T) {
	cases := []struct{ spec, want string }{
		{`{"base": {"network": {"failures": {"mtbf": 100}}}}`, "mttr"},
		{`{"base": {"network": {"failures": {"nodeMtbf": 100}}}}`, "nodeMttr"},
		{`{"base": {"network": {"failures": {"mtbf": -5, "mttr": 3}}}}`, ">= 0"},
		{`{"base": {"network": {"failures": {"events": [{"slot": 5, "down": true}]}}}}`, "exactly one"},
		{`{"base": {"network": {"failures": {"events": [{"slot": 5, "link": [0, 1], "node": 2, "down": true}]}}}}`, "exactly one"},
	}
	for _, tc := range cases {
		_, err := study.DecodeSpec(strings.NewReader(tc.spec))
		if err == nil {
			t.Errorf("invalid failures block accepted: %s", tc.spec)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("error %q does not mention %q", err, tc.want)
		}
	}
}

// TestFailureAxes: the mtbf/mttr axes sweep the failures block, and
// enumerated points do not share it.
func TestFailureAxes(t *testing.T) {
	g := study.Grid{
		Base: study.Scenario{Network: &study.NetworkSpec{Topology: "ring", Nodes: 4}},
		Axes: []study.Axis{
			{Name: "mtbf", Floats: []float64{200, 400}},
			{Name: "mttr", Floats: []float64{50}},
		},
	}
	scs, err := g.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != 2 {
		t.Fatalf("enumerated %d scenarios, want 2", len(scs))
	}
	for i, want := range []float64{200, 400} {
		f := scs[i].Network.Failures
		if f == nil || f.MTBF != want || f.MTTR != 50 {
			t.Errorf("point %d failures = %+v, want mtbf %g mttr 50", i, f, want)
		}
	}
	scs[0].Network.Failures.MTBF = 999
	if scs[1].Network.Failures.MTBF != 400 {
		t.Error("enumerated points share one failures block")
	}
}
