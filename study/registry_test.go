package study_test

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"fabricpower/study"
)

// registerConst registers constFactory under kind in r.
func registerConst(r *study.Registry, kind string) error {
	return r.RegisterTraffic(kind, constFactory)
}

// TestRegistryIsolation: a kind registered in one registry is unknown
// to another — and to Default — and the other can register the same
// kind itself.
func TestRegistryIsolation(t *testing.T) {
	a, b := study.NewRegistry(), study.NewRegistry()
	if err := registerConst(a, "test-iso"); err != nil {
		t.Fatal(err)
	}
	sc := study.Scenario{
		Fabric:  study.FabricSpec{Arch: "crossbar", Ports: 4},
		Traffic: study.TrafficSpec{Kind: "test-iso"},
		Sim:     quickSim(),
	}
	if _, err := runIn(a, sc); err != nil {
		t.Fatal(err)
	}
	for name, reg := range map[string]*study.Registry{"second": b, "default": nil} {
		_, err := runIn(reg, sc)
		if err == nil || !strings.Contains(err.Error(), `unknown traffic kind "test-iso"`) {
			t.Errorf("%s registry ran a kind registered elsewhere: %v", name, err)
		}
	}
	if err := registerConst(b, "test-iso"); err != nil {
		t.Errorf("the same kind must register in a second registry: %v", err)
	}
	if _, err := runIn(b, sc); err != nil {
		t.Errorf("second registry cannot run its own registration: %v", err)
	}
}

// TestRegistryConcurrentRegisterAndRun: registering into a registry
// while a 2-worker grid run resolves names from it is race-free (run
// under -race), and the run measures what a quiet registry does.
func TestRegistryConcurrentRegisterAndRun(t *testing.T) {
	setup := func() *study.Registry {
		reg := study.NewRegistry()
		if err := registerConst(reg, "test-conc"); err != nil {
			t.Fatal(err)
		}
		return reg
	}
	g := study.Grid{
		Base: study.Scenario{
			Model:   study.ModelSpec{Static: true},
			Traffic: study.TrafficSpec{Kind: "test-conc"},
			Sim:     quickSim(),
			Network: &study.NetworkSpec{Topology: "ring", Nodes: 3},
		},
		Axes: []study.Axis{
			{Name: "dpm", Strings: []string{"idlegate", "composite"}},
			{Name: "load", Floats: []float64{0.1, 0.3}},
		},
	}
	want, err := g.Run(context.Background(), study.RunOptions{Workers: 1, Registry: setup()})
	if err != nil {
		t.Fatal(err)
	}

	reg := setup()
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			select {
			case <-done:
				return
			default:
			}
			if err := registerConst(reg, fmt.Sprintf("test-extra-%d", i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	got, err := g.Run(context.Background(), study.RunOptions{Workers: 2, Registry: reg})
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if got.Completed() != 4 {
		t.Fatalf("completed %d of 4 points", got.Completed())
	}
	if !reflect.DeepEqual(got.Results(), want.Results()) {
		t.Error("registering during a run changed its results")
	}
}
