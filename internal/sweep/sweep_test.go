package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"fabricpower/internal/telemetry/trace"
)

// TestMapPreservesOrder: results land at their item index for any worker
// count, including oversubscription.
func TestMapPreservesOrder(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	for _, workers := range []int{0, 1, 3, 7, 64} {
		got, _, err := Map(context.Background(), workers, items, func(_, i, item int) (int, error) {
			return item * item, nil
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(items) {
			t.Fatalf("workers=%d: %d results", workers, len(got))
		}
		for i, r := range got {
			if r != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, r, i*i)
			}
		}
	}
}

func TestMapEmptyAndNil(t *testing.T) {
	got, _, err := Map(context.Background(), 4, nil, func(_, i, item int) (int, error) { return 0, nil }, nil)
	if err != nil || got != nil {
		t.Fatalf("empty input: %v, %v", got, err)
	}
	if _, _, err := Map(context.Background(), 4, []int{1}, (func(_, i, item int) (int, error))(nil), nil); err == nil {
		t.Fatal("nil fn should fail")
	}
}

func TestMapErrorCarriesIndex(t *testing.T) {
	boom := errors.New("boom")
	items := []int{0, 1, 2, 3, 4, 5, 6, 7}
	for _, workers := range []int{1, 4} {
		_, _, err := Map(context.Background(), workers, items, func(_, i, item int) (int, error) {
			if item == 5 {
				return 0, boom
			}
			return item, nil
		}, nil)
		if err == nil {
			t.Fatalf("workers=%d: want error", workers)
		}
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: error chain lost: %v", workers, err)
		}
		if !strings.Contains(err.Error(), "point") {
			t.Fatalf("workers=%d: error should name the point: %v", workers, err)
		}
	}
}

// TestMapCtxCancelKeepsPartialResults pins the cancellation contract the
// study grids build on: a cancelled sweep returns ctx's error, the done
// flags mark exactly the finished points, and those results match what
// an uninterrupted run produced at the same indices.
func TestMapCtxCancelKeepsPartialResults(t *testing.T) {
	items := make([]int, 32)
	for i := range items {
		items[i] = i
	}
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		results, done, err := Map(ctx, workers, items, func(_, i, item int) (int, error) {
			if ran.Add(1) == 3 {
				cancel()
			}
			return item * 10, nil
		}, nil)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if len(results) != len(items) || len(done) != len(items) {
			t.Fatalf("workers=%d: slices must be sized to items", workers)
		}
		finished := 0
		for i := range items {
			if done[i] {
				finished++
				if results[i] != i*10 {
					t.Fatalf("workers=%d: finished point %d = %d, want %d", workers, i, results[i], i*10)
				}
			}
		}
		if finished == 0 || finished == len(items) {
			t.Fatalf("workers=%d: cancellation should leave a partial sweep, finished %d/%d",
				workers, finished, len(items))
		}
	}
}

// TestMapCtxCompleteRun: with a live context Map marks every point done.
func TestMapCtxCompleteRun(t *testing.T) {
	items := []int{1, 2, 3, 4, 5}
	results, done, err := Map(context.Background(), 2, items, func(_, i, item int) (int, error) {
		return item + 100, nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range done {
		if !d {
			t.Fatalf("point %d not marked done", i)
		}
		if results[i] != items[i]+100 {
			t.Fatalf("result %d = %d", i, results[i])
		}
	}
}

// TestPointSeedProperties: deterministic, base-sensitive, and
// collision-free over the sweep grids the experiments use (the additive
// scheme it replaces collided for nearby loads).
func TestPointSeedProperties(t *testing.T) {
	if PointSeed(1, 16, 0.3) != PointSeed(1, 16, 0.3) {
		t.Fatal("seed must be deterministic")
	}
	if PointSeed(1, 16, 0.3) == PointSeed(2, 16, 0.3) {
		t.Fatal("base seed must matter")
	}
	seen := make(map[int64]string)
	for ports := 2; ports <= 1024; ports *= 2 {
		for load := 0.01; load <= 1.0; load += 0.01 {
			s := PointSeed(7, ports, load)
			key := fmt.Sprintf("%d/%.2f", ports, load)
			if prev, ok := seen[s]; ok {
				t.Fatalf("seed collision: %s and %s both map to %d", prev, key, s)
			}
			seen[s] = key
		}
	}
}

// TestSeedsPinned pins both seed mixers to values they have always
// produced: every golden report and benchmark digest depends on them.
func TestSeedsPinned(t *testing.T) {
	for _, tc := range []struct{ got, want int64 }{
		{PointSeed(1, 16, 0.3), 2931261075022574776},
		{NetworkSeed(1, "fattree", 48, 0.05), 1760590788145741390},
		{NetworkSeed(-3, "ring", 4, 0.9), -1741535452084320499},
	} {
		if tc.got != tc.want {
			t.Errorf("seed %d, want %d", tc.got, tc.want)
		}
	}
}

// TestMapRecoversPanics pins the robustness contract: a panicking grid
// point becomes an error carrying the point index — sequentially and in
// parallel — instead of crashing the whole study.
func TestMapRecoversPanics(t *testing.T) {
	items := []int{0, 1, 2, 3, 4, 5, 6, 7}
	for _, workers := range []int{1, 4} {
		_, _, err := Map(context.Background(), workers, items, func(_, i, item int) (int, error) {
			if item == 3 {
				panic("bad operating point")
			}
			return item, nil
		}, nil)
		if err == nil {
			t.Fatalf("workers=%d: panicking point produced no error", workers)
		}
		if !strings.Contains(err.Error(), "point 3") {
			t.Errorf("workers=%d: error should name point 3: %v", workers, err)
		}
		if !strings.Contains(err.Error(), "bad operating point") {
			t.Errorf("workers=%d: error should carry the panic value: %v", workers, err)
		}
	}
	// The points that finished before the abort keep their results.
	results, done, err := Map(context.Background(), 1, items, func(_, i, item int) (int, error) {
		if item == 5 {
			panic(item)
		}
		return item * 10, nil
	}, nil)
	if err == nil || !strings.Contains(err.Error(), "point 5") {
		t.Fatalf("want point-5 panic error, got %v", err)
	}
	for i := 0; i < 5; i++ {
		if !done[i] || results[i] != i*10 {
			t.Errorf("point %d: done=%v result=%d, want completed %d", i, done[i], results[i], i*10)
		}
	}
	if done[5] {
		t.Error("panicking point marked done")
	}
}

// TestMapCtxWTSpans: the traced sweep produces identical results to the
// untraced one and one timeline row per worker, each carrying wait and
// point spans whose indices cover every item exactly once.
func TestMapCtxWTSpans(t *testing.T) {
	items := make([]int, 12)
	for i := range items {
		items[i] = i
	}
	square := func(_, _ int, v int) (int, error) { return v * v, nil }
	plain, _, err := Map(context.Background(), 3, items, square, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(0)
	traced, _, err := Map(context.Background(), 3, items, square, rec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, traced) {
		t.Errorf("traced results %v differ from plain %v", traced, plain)
	}

	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	rows := 0
	pointSeen := make(map[int]int)
	waits := 0
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Ph == "M" && ev.Name == "thread_name" && strings.HasPrefix(fmt.Sprint(ev.Args["name"]), "sweep worker"):
			rows++
		case ev.Ph == "X" && ev.Name == "point":
			pointSeen[int(ev.Args["v"].(float64))]++
		case ev.Ph == "X" && ev.Name == "wait":
			waits++
		}
	}
	if rows != 3 {
		t.Errorf("%d sweep worker rows, want 3", rows)
	}
	if waits != len(items) {
		t.Errorf("%d wait spans, want one per point (%d)", waits, len(items))
	}
	for i := range items {
		if pointSeen[i] != 1 {
			t.Errorf("point %d traced %d times, want 1", i, pointSeen[i])
		}
	}
}

// TestMapCtxWTSequential: workers == 1 keeps the inline path and still
// traces onto worker 0's row.
func TestMapCtxWTSequential(t *testing.T) {
	rec := trace.NewRecorder(0)
	res, _, err := Map(context.Background(), 1, []int{1, 2, 3}, func(w, i int, v int) (int, error) {
		if w != 0 {
			t.Errorf("sequential run used worker %d", w)
		}
		return v + 1, nil
	}, rec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, []int{2, 3, 4}) {
		t.Errorf("results %v", res)
	}
	tk := rec.Track(0, "sweep worker 0")
	if tk.Len() != 6 { // one wait + one point per item
		t.Errorf("worker 0 holds %d spans, want 6", tk.Len())
	}
}
