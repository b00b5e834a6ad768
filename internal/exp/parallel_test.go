package exp

import (
	"reflect"
	"testing"

	"fabricpower/internal/core"
	"fabricpower/study"
)

// parallelSim keeps the determinism sweeps small but non-trivial.
func parallelSim() study.SimSpec { return simSpec(60, 300, 11) }

// TestFig9ParallelDeterminism is the engine's core guarantee: a sweep
// fanned across N workers is byte-identical to the sequential run — same
// point order, same throughputs, same energies, bit for bit.
func TestFig9ParallelDeterminism(t *testing.T) {
	spec := gridSpec("fig9", study.Scenario{Sim: parallelSim()},
		intAxis("ports", 4, 8), archAxis(), floatAxis("load", 0.2, 0.5))
	seq := runReport[*Fig9](t, spec, 1)
	for _, workers := range []int{0, 4} {
		if par := runReport[*Fig9](t, spec, workers); !reflect.DeepEqual(seq, par) {
			t.Fatalf("workers=%d sweep differs from sequential run", workers)
		}
	}
}

// TestCrossoverParallelDeterminism covers the reduce-after-sweep path:
// the winner per load must not depend on scheduling.
func TestCrossoverParallelDeterminism(t *testing.T) {
	spec := crossoverSpec(study.PerWordModel(), 16, parallelSim(), 0.05, 0.30)
	seq := runReport[*Crossover](t, spec, 1)
	par := runReport[*Crossover](t, spec, 8)
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("parallel crossover differs from sequential run")
	}
}

// TestTable1ParallelSharesCache exercises the characterization cache
// concurrently (run under -race in CI): parallel workers characterizing
// the same switch set must produce the sequential result.
func TestTable1ParallelSharesCache(t *testing.T) {
	opt := Table1Options{Cycles: 24, BusWidth: 8, Seed: 5}
	opt.Workers = 1
	seq, err := RunTable1(core.PaperModel(), opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Workers = 8
	par, err := RunTable1(core.PaperModel(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("parallel Table 1 differs from sequential run")
	}
}
