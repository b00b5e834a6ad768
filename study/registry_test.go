package study_test

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"fabricpower/study"
)

// registrations registers one extension in each of a registry's six
// name spaces and lists the names each one then knows.
var registrations = []struct {
	space    string
	register func(r *study.Registry, name string) error
	names    func(r *study.Registry) []string
}{
	{"axis", func(r *study.Registry, name string) error {
		return r.RegisterAxis(name, func(*study.Scenario, study.Axis, int) error { return nil })
	}, (*study.Registry).AxisNames},
	{"traffic", func(r *study.Registry, name string) error {
		return r.RegisterTraffic(name, constFactory)
	}, (*study.Registry).TrafficKinds},
	{"dpm", func(r *study.Registry, name string) error {
		return r.RegisterDPMPolicy(name, func() study.Policy { return gateAllPolicy{} })
	}, (*study.Registry).DPMPolicyNames},
	{"routing", func(r *study.Registry, name string) error {
		return r.RegisterRouting(name, directRouting)
	}, (*study.Registry).RoutingNames},
	{"topology", func(r *study.Registry, name string) error {
		return r.RegisterTopology(name, triangle)
	}, (*study.Registry).TopologyNames},
	{"matrix", func(r *study.Registry, name string) error {
		return r.RegisterMatrix(name, pairMatrix)
	}, (*study.Registry).MatrixNames},
}

// TestRegistryIsolation: a name registered in one registry is unknown
// to another — and to Default — and the other can register the same
// name itself.
func TestRegistryIsolation(t *testing.T) {
	a, b := study.NewRegistry(), study.NewRegistry()
	for _, reg := range registrations {
		if err := reg.register(a, "test-iso"); err != nil {
			t.Fatalf("%s: %v", reg.space, err)
		}
		if !slices.Contains(reg.names(a), "test-iso") {
			t.Errorf("%s: registering registry does not list test-iso: %v", reg.space, reg.names(a))
		}
		if slices.Contains(reg.names(b), "test-iso") || slices.Contains(reg.names(study.Default), "test-iso") {
			t.Errorf("%s: test-iso leaked out of the registry it was registered in", reg.space)
		}
		if err := reg.register(b, "test-iso"); err != nil {
			t.Errorf("%s: the same name must register in a second registry: %v", reg.space, err)
		}
	}

	sc := study.Scenario{
		Fabric:  study.FabricSpec{Arch: "crossbar", Ports: 4},
		Traffic: study.TrafficSpec{Kind: "test-iso-run"},
		Sim:     quickSim(),
	}
	if err := a.RegisterTraffic("test-iso-run", constFactory); err != nil {
		t.Fatal(err)
	}
	if _, err := runIn(a, sc); err != nil {
		t.Fatal(err)
	}
	for name, reg := range map[string]*study.Registry{"second": b, "default": nil} {
		_, err := runIn(reg, sc)
		if err == nil || !strings.Contains(err.Error(), `unknown traffic kind "test-iso-run"`) {
			t.Errorf("%s registry ran a kind registered elsewhere: %v", name, err)
		}
	}
}

// TestRegistryConcurrentRegisterAndRun: registering into a registry
// while a 2-worker grid run resolves names from it is race-free (run
// under -race), and the run measures what a quiet registry does.
func TestRegistryConcurrentRegisterAndRun(t *testing.T) {
	setup := func() *study.Registry {
		reg := study.NewRegistry()
		for _, r := range registrations {
			if err := r.register(reg, "test-conc"); err != nil {
				t.Fatalf("%s: %v", r.space, err)
			}
		}
		return reg
	}
	g := study.Grid{
		Base: study.Scenario{
			Model:   study.ModelSpec{Static: true},
			Traffic: study.TrafficSpec{Kind: "test-conc"},
			Sim:     quickSim(),
			Network: &study.NetworkSpec{Topology: "test-conc", Nodes: 3, Routing: "test-conc", Matrix: "test-conc"},
		},
		Axes: []study.Axis{
			{Name: "dpm", Strings: []string{"idlegate", "test-conc"}},
			{Name: "load", Floats: []float64{0.1, 0.3}},
			{Name: "test-conc", Ints: []int{0}},
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
			r := registrations[i%len(registrations)]
			if err := r.register(reg, fmt.Sprintf("test-extra-%d", i)); err != nil {
				t.Errorf("%s: %v", r.space, err)
				return
			}
			r.names(reg)
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
