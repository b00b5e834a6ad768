package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestScenarioGoldenWithTrace re-runs one network scenario from the
// corpus with -trace attached: the stdout report must stay
// byte-identical to the pinned golden (profiling is simulation-
// invisible), and the side file must be a valid Chrome trace carrying
// spans from the kernel and the sweep engine.
func TestScenarioGoldenWithTrace(t *testing.T) {
	repoRoot, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(repoRoot); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(wd); err != nil {
			t.Error(err)
		}
	}()

	const name = "green-network"
	tracePath := filepath.Join(t.TempDir(), name+".trace.json")
	var out strings.Builder
	err = dispatch(context.Background(), "run",
		[]string{filepath.Join("scenarios", name+".json"), "-trace", tracePath}, &out)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("scenarios", "golden", name+".txt"))
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != string(want) {
		t.Errorf("-trace changed the %s report:\n--- got ---\n%s\n--- want ---\n%s",
			name, out.String(), want)
	}
	checkTraceFile(t, tracePath)
}

// updateGolden regenerates the pinned scenario reports instead of
// comparing: UPDATE_GOLDEN=1 go test ./cmd/fabricpower -run ScenarioGolden
var updateGolden = os.Getenv("UPDATE_GOLDEN") != ""

// TestScenarioGoldenOutputs is the scenario corpus as a regression
// suite: every checked-in scenarios/*.json runs through `fabricpower
// run`, and each `fabricpower ablate` study at its defaults, and must
// reproduce its pinned report in scenarios/golden/ byte for byte. A model change that shifts any number shows up here as a
// diff — re-pin deliberately with UPDATE_GOLDEN=1 and review what
// moved.
func TestScenarioGoldenOutputs(t *testing.T) {
	repoRoot, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	// Scenario files reference repo-relative paths (trace recordings),
	// so run from the repo root like CI and users do.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(repoRoot); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(wd); err != nil {
			t.Error(err)
		}
	}()

	specs, err := filepath.Glob(filepath.Join("scenarios", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) == 0 {
		t.Fatal("no scenario files found; corpus missing")
	}
	type goldenCase struct {
		name, golden string
		cmd          string
		args         []string
	}
	var cases []goldenCase
	for _, spec := range specs {
		name := strings.TrimSuffix(filepath.Base(spec), ".json")
		cases = append(cases, goldenCase{name, filepath.Join("scenarios", "golden", name+".txt"), "run", []string{spec}})
	}
	// The ablations are flag-driven commands rather than specs; their
	// default reports are pinned in scenarios/golden/ablate/.
	for _, study := range []string{"buffer", "fcwire", "queue"} {
		cases = append(cases, goldenCase{"ablate-" + study, filepath.Join("scenarios", "golden", "ablate", study+".txt"),
			"ablate", []string{"-study", study}})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			if err := dispatch(context.Background(), tc.cmd, tc.args, &out); err != nil {
				t.Fatalf("%s %v: %v", tc.cmd, tc.args, err)
			}
			if updateGolden {
				if err := os.MkdirAll(filepath.Dir(tc.golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(tc.golden, []byte(out.String()), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(tc.golden)
			if err != nil {
				t.Fatalf("missing golden report (regenerate with UPDATE_GOLDEN=1 go test ./cmd/fabricpower -run ScenarioGolden): %v", err)
			}
			if out.String() != string(want) {
				t.Errorf("%s %v drifted from its pinned report:\n--- got ---\n%s\n--- want ---\n%s", tc.cmd, tc.args, out.String(), want)
			}
		})
	}
}
