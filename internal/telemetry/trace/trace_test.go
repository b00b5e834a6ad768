package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
)

// TestRingWraparound pins the drop-oldest contract: a track past its
// capacity keeps the newest spans, counts the evictions, and exports in
// emission order.
func TestRingWraparound(t *testing.T) {
	r := NewRecorder(4)
	tk := r.Track(0, "w")
	for i := 0; i < 10; i++ {
		tk.EmitArg("s", int64(i*100), int64(i*100+50), int64(i))
	}
	if tk.Len() != 4 {
		t.Fatalf("ring holds %d spans, want capacity 4", tk.Len())
	}
	if tk.Dropped() != 6 {
		t.Errorf("dropped %d spans, want 6", tk.Dropped())
	}
	var got []int64
	tk.spans(func(s Span) { got = append(got, s.Arg) })
	for i, arg := range got {
		if want := int64(6 + i); arg != want {
			t.Errorf("span %d carries arg %d, want %d (oldest dropped first)", i, arg, want)
		}
	}
	if r.Dropped() != 6 {
		t.Errorf("recorder-wide dropped %d, want 6", r.Dropped())
	}
}

// TestTrackIdentity: same (pid, name) is the same track; distinct pids
// get independent tid spaces.
func TestTrackIdentity(t *testing.T) {
	r := NewRecorder(8)
	a := r.Track(1, "shard 0")
	b := r.Track(1, "shard 0")
	if a != b {
		t.Error("repeated Track lookups returned distinct tracks")
	}
	c := r.Track(1, "shard 1")
	d := r.Track(2, "shard 0")
	if a == c || a == d {
		t.Error("distinct names or pids share a track")
	}
	if a.tid == c.tid {
		t.Error("two tracks under one pid share a tid")
	}
	if d.tid != 0 {
		t.Errorf("first track of pid 2 has tid %d, want 0", d.tid)
	}
}

// TestWriteJSONValid machine-checks the export: the document must be
// valid JSON in the Chrome trace-event object form, with thread/process
// name metadata and complete ("X") events carrying microsecond
// timestamps and args.
func TestWriteJSONValid(t *testing.T) {
	r := NewRecorder(16)
	r.SetProcessName(0, "sweep")
	w0 := r.Track(0, "worker 0")
	w0.Emit("wait", 1000, 2000)
	w0.EmitArg("point", 2000, 5000, 3)
	r.EmitShared(0, "table1", "characterize", 1500, 2500)

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("export is not valid JSON:\n%s", buf.String())
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			PID  *int           `json:"pid"`
			TID  *int           `json:"tid"`
			TS   *float64       `json:"ts"`
			Dur  *float64       `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit %q, want ms", doc.DisplayTimeUnit)
	}
	var haveProc, haveThread bool
	byName := map[string]int{}
	for _, ev := range doc.TraceEvents {
		if ev.PID == nil || ev.TID == nil {
			t.Fatalf("event %q missing pid/tid", ev.Name)
		}
		switch ev.Ph {
		case "M":
			if ev.Name == "process_name" && ev.Args["name"] == "sweep" {
				haveProc = true
			}
			if ev.Name == "thread_name" {
				haveThread = true
			}
		case "X":
			if ev.TS == nil || ev.Dur == nil {
				t.Fatalf("complete event %q missing ts/dur", ev.Name)
			}
			byName[ev.Name]++
		default:
			t.Errorf("unexpected phase %q", ev.Ph)
		}
	}
	if !haveProc || !haveThread {
		t.Error("export lacks process_name/thread_name metadata")
	}
	for _, name := range []string{"wait", "point", "characterize"} {
		if byName[name] == 0 {
			t.Errorf("export lacks the %q span", name)
		}
	}
	// Spot-check units: the point span starts at 2000 ns = 2 µs for 3 µs.
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Name == "point" {
			if *ev.TS != 2 || *ev.Dur != 3 {
				t.Errorf("point span at ts=%g dur=%g µs, want 2 and 3", *ev.TS, *ev.Dur)
			}
			if v, ok := ev.Args["v"].(float64); !ok || v != 3 {
				t.Errorf("point span args %v, want {v: 3}", ev.Args)
			}
		}
	}
}

// TestConcurrentTracks exercises the registration lock and the
// single-writer rings under the race detector: many goroutines each own
// a private track plus shared emits.
func TestConcurrentTracks(t *testing.T) {
	r := NewRecorder(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tk := r.Track(1, fmt.Sprintf("worker %d", g))
			for i := 0; i < 100; i++ {
				s := r.Now()
				tk.Emit("work", s, r.Now())
			}
			r.EmitShared(0, "shared", "join", r.Now(), r.Now())
		}(g)
	}
	wg.Wait()
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Error("export is not valid JSON")
	}
}

// TestEmitAllocationFree pins the hot path: Emit on a private track
// allocates nothing, full ring included.
func TestEmitAllocationFree(t *testing.T) {
	r := NewRecorder(32)
	tk := r.Track(0, "w")
	allocs := testing.AllocsPerRun(1000, func() {
		s := r.Now()
		tk.Emit("work", s, s+10)
	})
	if allocs != 0 {
		t.Errorf("Emit allocates %.1f times per span, want 0", allocs)
	}
}
