package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"strings"
	"testing"

	"fabricpower/study"
)

// tinySpec is a two-point single-router grid small enough for tests.
func tinySpec(t *testing.T) *prepared {
	t.Helper()
	body, err := encodeSpec(study.Spec{Grid: study.Grid{
		Base: study.Scenario{
			Fabric: study.FabricSpec{Arch: "crossbar", Ports: 4, CellBits: 1024},
			Sim:    study.SimSpec{WarmupSlots: u64(20), MeasureSlots: 100, Seed: 3},
		},
		Axes: []study.Axis{{Name: "load", Floats: []float64{0.2, 0.4}}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	p, err := prepare("tiny", body)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCorruptedDigestIsAFailure(t *testing.T) {
	p := tinySpec(t)
	sr := runStudy(context.Background(), p, 1, false, nil)
	if sr.err != nil {
		t.Fatal(sr.err)
	}
	good, err := checkGrid(sr.gr, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := checkGrid(sr.gr, good); err != nil {
		t.Fatalf("the run's own digest was rejected: %v", err)
	}
	bad := "0" + good[1:]
	if bad == good {
		bad = "1" + good[1:]
	}
	if _, err := checkGrid(sr.gr, bad); err == nil {
		t.Fatal("a corrupted digest was accepted")
	}
	bl := loopBatch(p, 1, 0, bad, false, nil)
	vals, correct := bl.e2eMetrics(p, 0)
	if bl.failed != len(bl.runs)*len(p.points) || correct != 0 {
		t.Fatalf("corrupted digest: %d of %d points failed, %d studies counted correct", bl.failed, len(bl.runs)*len(p.points), correct)
	}
	if vals["studies_per_s"] != 0 {
		t.Fatalf("failed studies counted in studies_per_s: %v", vals["studies_per_s"])
	}
}

func TestPinnedDigestsMatch(t *testing.T) {
	for _, w := range workloads {
		if w.spec == nil {
			continue
		}
		d, err := pinnedDigest(digestsJSON, w.name, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(d) != 64 {
			t.Errorf("%s: no pinned digest for the default seed", w.name)
		}
	}
}

// stream renders a study stream: start frame, the given record lines,
// and (when finish is set) the finish frame.
func stream(records [][]byte, points int, finish bool) string {
	var b strings.Builder
	b.WriteString(`{"kind":"study_start","id":"s-1","points":2}` + "\n")
	for _, r := range records {
		b.Write(r)
		b.WriteByte('\n')
	}
	if finish {
		fin, _ := json.Marshal(map[string]any{"kind": "study_finish", "completed": points})
		b.Write(fin)
		b.WriteByte('\n')
	}
	return b.String()
}

func TestStreamChecks(t *testing.T) {
	p := tinySpec(t)
	exp, err := expectedRecords(p)
	if err != nil {
		t.Fatal(err)
	}
	n := len(p.points)
	read := func(s string) *streamStats {
		st := &streamStats{status: 200}
		readStream(strings.NewReader(s), st.sent, exp, false, st)
		return st
	}
	if st := read(stream(exp, n, true)); !st.ok(n) {
		t.Fatalf("a complete stream failed: %s", st.failure(n))
	}
	if st := read(stream(exp, n, false)); st.ok(n) {
		t.Fatal("a stream without study_finish was accepted")
	}
	if st := read(stream(exp[:1], n, true)); st.ok(n) {
		t.Fatal("a stream missing a record was accepted")
	}
	full := stream(exp, n, true)
	if st := read(full[:len(full)/2]); st.ok(n) {
		t.Fatal("a stream cut mid-line was accepted")
	}
	corrupt := [][]byte{exp[0], []byte(strings.Replace(string(exp[1]), `"slots":100`, `"slots":101`, 1))}
	if string(corrupt[1]) == string(exp[1]) {
		t.Fatal("test corruption did not apply")
	}
	if st := read(stream(corrupt, n, true)); st.ok(n) || st.mismatched != 1 {
		t.Fatalf("a corrupted record was accepted (mismatched=%d)", st.mismatched)
	}
}

func TestServedRecordsMatchInProcess(t *testing.T) {
	p := tinySpec(t)
	exp, err := expectedRecords(p)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := startServer()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.stop()
	client := &http.Client{}
	defer client.CloseIdleConnections()
	e := &corpusEntry{prepared: p, expected: exp}
	if st := submit(client, srv.url, e, "", false); !st.ok(len(p.points)) {
		t.Fatalf("served study failed: %s", st.failure(len(p.points)))
	}
}

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark directory:", err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(what string, want [][2]string, got []struct{ Name, Unit string }) {
		if len(want) != len(got) {
			t.Fatalf("%s: %d metrics in code, %d in BENCHMARK.json", what, len(want), len(got))
		}
		for i := range want {
			if want[i][0] != got[i].Name || want[i][1] != got[i].Unit {
				t.Errorf("%s %d: code %v, BENCHMARK.json %s %s", what, i, want[i], got[i].Name, got[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, doc.EndToEnd)
	check("per_layer", perLayer, doc.PerLayer)
}
