package traffic

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"fabricpower/internal/packet"
	"fabricpower/internal/rng"
)

func cfg() packet.Config { return packet.Config{CellBits: 128, BusWidth: 32} }

func TestInjectorValidation(t *testing.T) {
	if _, err := NewInjector(0, 0.5, cfg(), nil, 1); err == nil {
		t.Error("0 ports should fail")
	}
	if _, err := NewInjector(4, -0.1, cfg(), nil, 1); err == nil {
		t.Error("negative load should fail")
	}
	if _, err := NewInjector(4, 1.1, cfg(), nil, 1); err == nil {
		t.Error("load > 1 should fail")
	}
	if _, err := NewInjector(4, 0.5, packet.Config{}, nil, 1); err == nil {
		t.Error("bad cell config should fail")
	}
}

func TestInjectorLoadAccuracy(t *testing.T) {
	in, err := NewInjector(8, 0.3, cfg(), nil, 42)
	if err != nil {
		t.Fatal(err)
	}
	if in.Ports() != 8 || in.Load() != 0.3 {
		t.Fatal("accessors")
	}
	slots := uint64(4000)
	count := 0
	for s := uint64(0); s < slots; s++ {
		cells := in.Generate(s)
		count += len(cells)
		for _, c := range cells {
			if c.Src < 0 || c.Src >= 8 || c.Dest < 0 || c.Dest >= 8 {
				t.Fatalf("ports out of range: %+v", c)
			}
			if len(c.Payload) != cfg().Words() {
				t.Fatalf("payload words = %d", len(c.Payload))
			}
			if c.CreatedSlot != s {
				t.Fatal("created slot mismatch")
			}
		}
	}
	got := float64(count) / float64(slots*8)
	if math.Abs(got-0.3) > 0.02 {
		t.Fatalf("measured load %g, want 0.3 ± 0.02", got)
	}
}

func TestInjectorZeroLoadIsSilent(t *testing.T) {
	in, _ := NewInjector(4, 0, cfg(), nil, 1)
	for s := uint64(0); s < 100; s++ {
		if cells := in.Generate(s); len(cells) != 0 {
			t.Fatal("zero load must inject nothing")
		}
	}
}

func TestInjectorDeterministicForSeed(t *testing.T) {
	run := func() []int {
		in, _ := NewInjector(4, 0.5, cfg(), nil, 7)
		var dests []int
		for s := uint64(0); s < 50; s++ {
			for _, c := range in.Generate(s) {
				dests = append(dests, c.Dest)
			}
		}
		return dests
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must give same traffic")
		}
	}
}

func TestUniformCoversAllDests(t *testing.T) {
	s := rng.New(1)
	seen := make(map[int]bool)
	var uniform *Hotspot
	for i := 0; i < 1000; i++ {
		seen[uniform.pick(s, 8)] = true
	}
	if len(seen) != 8 {
		t.Fatalf("uniform should cover all 8 ports, saw %d", len(seen))
	}
}

func TestHotspotConcentrates(t *testing.T) {
	s := rng.New(2)
	h := &Hotspot{Port: 3, Fraction: 0.5}
	hits := 0
	const n = 4000
	for i := 0; i < n; i++ {
		if h.pick(s, 8) == 3 {
			hits++
		}
	}
	// 50% direct + 1/8 of the remaining 50% ≈ 56%.
	frac := float64(hits) / n
	if frac < 0.5 || frac > 0.65 {
		t.Fatalf("hotspot fraction %g outside [0.5, 0.65]", frac)
	}
}

func TestOnOffInjectorMeanLoad(t *testing.T) {
	in, err := NewOnOffInjector(8, 10, 0.4, cfg(), nil, 11)
	if err != nil {
		t.Fatal(err)
	}
	slots := uint64(20000)
	count := 0
	for s := uint64(0); s < slots; s++ {
		count += len(in.Generate(s))
	}
	got := float64(count) / float64(slots*8)
	if math.Abs(got-0.4) > 0.05 {
		t.Fatalf("bursty mean load %g, want 0.4 ± 0.05", got)
	}
}

func TestOnOffInjectorBurstiness(t *testing.T) {
	// With long bursts, consecutive-slot injections on the same port
	// must be much more frequent than under Bernoulli at equal load.
	in, _ := NewOnOffInjector(1, 20, 0.3, cfg(), nil, 5)
	active := make([]bool, 20000)
	for s := range active {
		active[s] = len(in.Generate(uint64(s))) > 0
	}
	runs, onSlots := 0, 0
	for i := 1; i < len(active); i++ {
		if active[i] {
			onSlots++
			if active[i-1] {
				runs++
			}
		}
	}
	if onSlots == 0 {
		t.Fatal("no traffic generated")
	}
	// P(on | previous on) should be near 1-1/20 = 0.95, far above 0.3.
	cond := float64(runs) / float64(onSlots)
	if cond < 0.7 {
		t.Fatalf("burstiness too low: P(on|on) = %g", cond)
	}
}

func TestOnOffValidation(t *testing.T) {
	if _, err := NewOnOffInjector(0, 10, 0.4, cfg(), nil, 1); err == nil {
		t.Error("0 ports should fail")
	}
	if _, err := NewOnOffInjector(4, 0.5, 0.4, cfg(), nil, 1); err == nil {
		t.Error("burst < 1 should fail")
	}
	if _, err := NewOnOffInjector(4, 10, 0, cfg(), nil, 1); err == nil {
		t.Error("load 0 should fail")
	}
	if _, err := NewOnOffInjector(4, 10, 1, cfg(), nil, 1); err == nil {
		t.Error("load 1 should fail")
	}
}

// TestOnOffInjectorReachableLoads: a load above meanBurst/(meanBurst+1)
// needs an OFF→ON probability above 1, so the injector refuses it with
// an error naming the load, the burst and the bound; a reachable load
// up to the bound is realized.
func TestOnOffInjectorReachableLoads(t *testing.T) {
	cases := []struct {
		load, burst float64
		bound       string // "" when the load is reachable
	}{
		{load: 0.8, burst: 1, bound: "0.5"},
		{load: 0.95, burst: 10, bound: "0.909"},
		{load: 0.93, burst: 12, bound: "0.923"},
		{load: 0.5, burst: 1},
		{load: 0.9, burst: 10},
		{load: 0.75, burst: 3},
	}
	for _, tc := range cases {
		in, err := NewOnOffInjector(4, tc.burst, tc.load, cfg(), nil, 3)
		if tc.bound != "" {
			if err == nil {
				t.Errorf("load %g burst %g: accepted an unreachable load", tc.load, tc.burst)
				continue
			}
			for _, want := range []string{fmt.Sprint(tc.load), fmt.Sprint(tc.burst), tc.bound} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("load %g burst %g: error %q does not name %s", tc.load, tc.burst, err, want)
				}
			}
			continue
		}
		if err != nil {
			t.Errorf("load %g burst %g: %v", tc.load, tc.burst, err)
			continue
		}
		const slots = 50000
		count := 0
		for s := uint64(0); s < slots; s++ {
			count += len(in.Generate(s))
		}
		if got := float64(count) / (slots * 4); math.Abs(got-tc.load) > 0.03*tc.load {
			t.Errorf("load %g burst %g: realized %.4f, want within 3%%", tc.load, tc.burst, got)
		}
	}
}

func TestPacketInjectorSegmentsAndDrains(t *testing.T) {
	in, err := NewPacketInjector(4, 0.5, cfg(), nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	var total, tails int
	for s := uint64(0); s < 8000; s++ {
		for _, c := range in.Generate(s) {
			total++
			if c.Last {
				tails++
			}
			if c.PacketID == 0 {
				t.Fatal("packet traffic must carry packet IDs")
			}
		}
	}
	if total == 0 || tails == 0 {
		t.Fatal("no packet traffic generated")
	}
	// Mean cells per packet for the trimodal mix at 128-bit cells:
	// 40B->3 cells, 576B->36, 1500B->94 ⇒ mean = .55*3+.25*36+.2*94 = 29.45.
	mean := float64(total) / float64(tails)
	if mean < 15 || mean > 45 {
		t.Fatalf("mean cells/packet %g outside plausible band", mean)
	}
}

func TestPacketInjectorValidation(t *testing.T) {
	if _, err := NewPacketInjector(0, 0.5, cfg(), nil, 1); err == nil {
		t.Error("0 ports should fail")
	}
	if _, err := NewPacketInjector(4, 2, cfg(), nil, 1); err == nil {
		t.Error("load > 1 should fail")
	}
}

func TestTraceRecordReplayRoundTrip(t *testing.T) {
	in, _ := NewInjector(4, 0.5, cfg(), nil, 13)
	tr := Record(in, 200)
	if len(tr.Entries) == 0 {
		t.Fatal("empty trace")
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	tr2, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr2.Entries) != len(tr.Entries) {
		t.Fatalf("entries: %d vs %d", len(tr2.Entries), len(tr.Entries))
	}
	for i := range tr.Entries {
		if tr.Entries[i] != tr2.Entries[i] {
			t.Fatalf("entry %d: %+v vs %+v", i, tr.Entries[i], tr2.Entries[i])
		}
	}
	// Replay must reproduce slots/srcs/dests and deterministic payloads.
	p1, err := NewPlayer(tr, cfg())
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := NewPlayer(tr2, cfg())
	for s := uint64(0); s < 200; s++ {
		c1 := p1.Generate(s)
		c2 := p2.Generate(s)
		if len(c1) != len(c2) {
			t.Fatalf("slot %d: %d vs %d cells", s, len(c1), len(c2))
		}
		for i := range c1 {
			if c1[i].Src != c2[i].Src || c1[i].Dest != c2[i].Dest {
				t.Fatal("replay mismatch")
			}
			for w := range c1[i].Payload {
				if c1[i].Payload[w] != c2[i].Payload[w] {
					t.Fatal("payload replay mismatch")
				}
			}
		}
	}
	p1.Rewind()
	if got := p1.Generate(tr.Entries[0].Slot); len(got) == 0 {
		t.Fatal("rewind should replay from the start")
	}
}

func TestReadTraceRejectsGarbage(t *testing.T) {
	if _, err := ReadTrace(bytes.NewBufferString("not a trace\n")); err == nil {
		t.Fatal("garbage should fail")
	}
}

func TestNewPlayerValidation(t *testing.T) {
	if _, err := NewPlayer(nil, cfg()); err == nil {
		t.Error("nil trace should fail")
	}
	if _, err := NewPlayer(&Trace{}, packet.Config{}); err == nil {
		t.Error("bad config should fail")
	}
}

// Property: both patterns (uniform and hotspot) return in-range
// destinations for any port count.
func TestPatternsInRangeProperty(t *testing.T) {
	patterns := []*Hotspot{nil, {Port: 5, Fraction: 0.3}}
	f := func(seed int64, portQ uint8) bool {
		ports := 1 << (uint(portQ)%4 + 1) // 2..16
		s := rng.New(seed)
		for _, p := range patterns {
			d := p.pick(s, ports)
			if d < 0 || d >= ports {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBatchesNeverOverwriteReturnedSlices(t *testing.T) {
	var b batches
	cells := make([]*packet.Cell, 10)
	for i := range cells {
		cells[i] = &packet.Cell{ID: uint64(i)}
	}
	var got [][]*packet.Cell
	for slot := 0; slot < 2000; slot++ {
		s := b.Open(3)
		for k := 0; k < slot%4; k++ {
			s = append(s, cells[(slot+k)%10])
		}
		out := b.Close(s)
		if len(out) == 0 {
			if out != nil {
				t.Fatal("empty slot returned a non-nil slice")
			}
			continue
		}
		if cap(out) != len(out) {
			t.Fatalf("slot %d: cap %d > len %d lets an append overwrite the next slot", slot, cap(out), len(out))
		}
		got = append(got, out)
	}
	i := 0
	for slot := 0; slot < 2000; slot++ {
		if slot%4 == 0 {
			continue
		}
		for k, c := range got[i] {
			if c != cells[(slot+k)%10] {
				t.Fatalf("slot %d cell %d was overwritten", slot, k)
			}
		}
		i++
	}
}
