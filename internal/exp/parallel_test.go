package exp

import (
	"reflect"
	"sync"
	"testing"

	"fabricpower/internal/core"
	"fabricpower/internal/telemetry/trace"
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

// TestTable1ParallelDeterminism: eight workers characterizing the switch
// set concurrently (run under -race in CI) must reproduce the sequential
// tables bit for bit; each run simulates every switch afresh.
func TestTable1ParallelDeterminism(t *testing.T) {
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

// TestTable1TraceSpans: a traced Table 1 run records exactly one
// "characterize" span per switch type on its own recorder's "table1"
// row, even while another traced run characterizes concurrently.
func TestTable1TraceSpans(t *testing.T) {
	opt := Table1Options{Cycles: 24, BusWidth: 8, Seed: 5, Workers: 2}
	want := 3 + len(opt.withDefaults().MuxSizes)
	recs := []*trace.Recorder{trace.NewRecorder(0), trace.NewRecorder(0)}
	var wg sync.WaitGroup
	errs := make([]error, len(recs))
	for i, rec := range recs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := opt
			o.Trace = rec
			_, errs[i] = RunTable1(core.PaperModel(), o)
		}()
	}
	wg.Wait()
	for i, rec := range recs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if n := rec.Track(0, "table1").Len(); n != want {
			t.Errorf("run %d: table1 row holds %d spans, want %d (one per switch)", i, n, want)
		}
	}
}
