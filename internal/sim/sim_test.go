package sim

import (
	"math"
	"testing"

	"fabricpower/internal/core"
	"fabricpower/internal/fabric"
	"fabricpower/internal/packet"
	"fabricpower/internal/router"
	"fabricpower/internal/tech"
	"fabricpower/internal/traffic"
)

func testRouter(t *testing.T, arch core.Architecture, ports int) *router.Router {
	t.Helper()
	r, err := router.New(router.Config{
		Arch: arch,
		Fabric: fabric.Config{
			Ports: ports,
			Cell:  packet.Config{CellBits: 1024, BusWidth: 32},
			Model: core.PaperModel(),
		},
		Queue: router.FIFO,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func testGen(t *testing.T, ports int, load float64, seed int64) *traffic.Injector {
	t.Helper()
	gen, err := traffic.NewInjector(ports, load, packet.Config{CellBits: 1024, BusWidth: 32}, nil, seed)
	if err != nil {
		t.Fatal(err)
	}
	return gen
}

func TestRunValidation(t *testing.T) {
	r := testRouter(t, core.Crossbar, 4)
	gen := testGen(t, 4, 0.3, 1)
	opt := Options{MeasureSlots: 10}
	if _, err := Run(nil, gen, tech.Default180nm(), 1024, opt); err == nil {
		t.Error("nil router should fail")
	}
	if _, err := Run(r, nil, tech.Default180nm(), 1024, opt); err == nil {
		t.Error("nil generator should fail")
	}
	if _, err := Run(r, gen, tech.Params{}, 1024, opt); err == nil {
		t.Error("invalid tech should fail")
	}
	if _, err := Run(r, gen, tech.Default180nm(), 0, opt); err == nil {
		t.Error("zero cell bits should fail")
	}
	if _, err := Run(r, gen, tech.Default180nm(), 1024, Options{WarmupSlots: 10}); err == nil {
		t.Error("zero measure slots should fail")
	}
}

func TestRunMeasuresThroughputNearOfferedLoad(t *testing.T) {
	r := testRouter(t, core.Crossbar, 8)
	gen := testGen(t, 8, 0.3, 11)
	res, err := Run(r, gen, tech.Default180nm(), 1024, Options{WarmupSlots: 300, MeasureSlots: 3000})
	if err != nil {
		t.Fatal(err)
	}
	// Below saturation, egress throughput tracks offered load.
	if math.Abs(res.Throughput-0.3) > 0.03 {
		t.Fatalf("throughput %g, want ≈0.3", res.Throughput)
	}
	if res.Power.TotalMW() <= 0 {
		t.Fatal("power must be positive under load")
	}
	if res.Slots != 3000 || res.Ports != 8 || res.Arch != core.Crossbar.String() {
		t.Fatalf("result metadata: %+v", res)
	}
	if res.AvgLatencySlots < 0 {
		t.Fatal("latency must be non-negative")
	}
}

func TestRunPowerConsistentWithEnergy(t *testing.T) {
	r := testRouter(t, core.FullyConnected, 8)
	gen := testGen(t, 8, 0.4, 12)
	tp := tech.Default180nm()
	res, err := Run(r, gen, tp, 1024, Options{WarmupSlots: 100, MeasureSlots: 1000})
	if err != nil {
		t.Fatal(err)
	}
	duration := float64(res.Slots) * tp.CellTimeNS(1024)
	want := tech.PowerMW(res.Energy.TotalFJ(), duration)
	if math.Abs(res.Power.TotalMW()-want) > 1e-9*want {
		t.Fatalf("power %g inconsistent with energy %g", res.Power.TotalMW(), want)
	}
}

func TestRunWarmupExcluded(t *testing.T) {
	// Identical seeds: a run with warmup must not count warmup cells.
	mk := func(warmup uint64) Result {
		r := testRouter(t, core.Crossbar, 4)
		gen := testGen(t, 4, 0.5, 13)
		res, err := Run(r, gen, tech.Default180nm(), 1024, Options{WarmupSlots: warmup, MeasureSlots: 500})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	short := mk(1)
	long := mk(400)
	// Both measure 500 slots at the same load; delivered counts should
	// be in the same ballpark (warmup not leaking into the window).
	if math.Abs(short.Throughput-long.Throughput) > 0.1 {
		t.Fatalf("warmup leakage: %g vs %g", short.Throughput, long.Throughput)
	}
}

// TestRunNoWarmup pins the zero-warmup window: a zero WarmupSlots is
// literal — measurement starts cold at slot 0 — while any non-zero
// warmup still warms the run.
func TestRunNoWarmup(t *testing.T) {
	mk := func(opt Options) Result {
		r := testRouter(t, core.Crossbar, 4)
		// One deterministic cell per port at slot 0, nothing after: a
		// warmed run has nothing left to measure.
		gen := testGen(t, 4, 1.0, 13)
		burst := burstGen{cells: gen.Generate(0)}
		res, err := Run(r, &burst, tech.Default180nm(), 1024, opt)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cold := mk(Options{MeasureSlots: 50})
	if cold.Throughput == 0 {
		t.Error("zero-warmup run measured nothing: slot 0 was warmed away")
	}
	warm := mk(Options{WarmupSlots: 10, MeasureSlots: 50})
	if warm.Throughput != 0 {
		t.Errorf("an explicit warmup should warm normally, measured %g", warm.Throughput)
	}
}

// burstGen emits a fixed batch at slot 0 and goes silent.
type burstGen struct{ cells []*packet.Cell }

func (b *burstGen) Generate(slot uint64) []*packet.Cell {
	if slot == 0 {
		return b.cells
	}
	return nil
}

func (b *burstGen) Release(*packet.Cell) {}

func TestRunBanyanCountsBufferEvents(t *testing.T) {
	r := testRouter(t, core.Banyan, 16)
	gen := testGen(t, 16, 0.5, 14)
	res, err := Run(r, gen, tech.Default180nm(), 1024, Options{WarmupSlots: 100, MeasureSlots: 1500})
	if err != nil {
		t.Fatal(err)
	}
	if res.BufferEvents == 0 {
		t.Fatal("a loaded 16x16 banyan must buffer")
	}
	if res.Energy.BufferFJ <= 0 {
		t.Fatal("buffer energy must follow buffer events")
	}
}

func TestRunContentionFreeFabricsHaveNoBufferEnergy(t *testing.T) {
	for _, a := range []core.Architecture{core.Crossbar, core.FullyConnected, core.BatcherBanyan} {
		r := testRouter(t, a, 8)
		gen := testGen(t, 8, 0.5, 15)
		res, err := Run(r, gen, tech.Default180nm(), 1024, Options{WarmupSlots: 100, MeasureSlots: 800})
		if err != nil {
			t.Fatal(err)
		}
		if res.Energy.BufferFJ != 0 {
			t.Errorf("%v: contention-free fabric charged buffer energy %g", a, res.Energy.BufferFJ)
		}
		if res.BufferEvents != 0 {
			t.Errorf("%v: buffer events %d", a, res.BufferEvents)
		}
	}
}

// TestSaturationNearTheoreticalLimit reproduces the paper's §6 premise:
// with input buffering the egress throughput saturates near the 58.6%
// theoretical maximum (2−√2, the N→∞ limit of Karol & Hluchyj, approached
// from above for finite N: ≈0.66 at N=4, ≈0.60 at N=16, ≈0.59 at N=32).
func TestSaturationNearTheoreticalLimit(t *testing.T) {
	saturate := func(ports int) float64 {
		r := testRouter(t, core.Crossbar, ports)
		gen := testGen(t, ports, 1.0, 16)
		res, err := Run(r, gen, tech.Default180nm(), 1024, Options{WarmupSlots: 500, MeasureSlots: 4000})
		if err != nil {
			t.Fatal(err)
		}
		if res.QueuedCells == 0 {
			t.Fatal("saturated router must have backlog")
		}
		return res.Throughput
	}
	s16 := saturate(16)
	if s16 < 0.57 || s16 > 0.63 {
		t.Fatalf("N=16 saturation %g, want ≈0.60 (Karol-Hluchyj)", s16)
	}
	s4 := saturate(4)
	if s4 < s16 {
		t.Fatalf("finite-N saturation should decrease toward 0.586: N=4 %g < N=16 %g", s4, s16)
	}
	if s4 < 0.62 || s4 > 0.72 {
		t.Fatalf("N=4 saturation %g, want ≈0.66", s4)
	}
}

func TestPowerHelperTotals(t *testing.T) {
	p := Power{SwitchMW: 1, BufferMW: 2, WireMW: 3}
	if p.TotalMW() != 6 {
		t.Fatal("total")
	}
}
