package router

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"fabricpower/internal/arbiter"
	"fabricpower/internal/core"
	"fabricpower/internal/fabric"
	"fabricpower/internal/packet"
)

func routerConfig(arch core.Architecture, ports int, q QueueDiscipline) Config {
	return Config{
		Arch: arch,
		Fabric: fabric.Config{
			Ports: ports,
			Cell:  packet.Config{CellBits: 128, BusWidth: 32},
			Model: core.PaperModel(),
		},
		Queue: q,
	}
}

func mkCell(rng *rand.Rand, id uint64, src, dest, slot int) *packet.Cell {
	return &packet.Cell{
		ID:          id,
		Src:         src,
		Dest:        dest,
		Payload:     packet.RandomPayload(rng, 4),
		CreatedSlot: uint64(slot),
	}
}

func TestNewRouterAllArchitectures(t *testing.T) {
	for _, a := range core.Architectures() {
		for _, q := range []QueueDiscipline{FIFO, VOQ} {
			r, err := New(routerConfig(a, 8, q))
			if err != nil {
				t.Fatalf("%v/%v: %v", a, q, err)
			}
			if r.Ports() != 8 {
				t.Fatalf("%v: ports", a)
			}
		}
	}
}

func TestNewRouterValidation(t *testing.T) {
	cfg := routerConfig(core.Crossbar, 8, FIFO)
	cfg.MaxQueueCells = -1
	if _, err := New(cfg); err == nil {
		t.Error("negative queue cap should fail")
	}
	cfg = routerConfig(core.Crossbar, 8, QueueDiscipline(9))
	if _, err := New(cfg); err == nil {
		t.Error("unknown discipline should fail")
	}
	cfg = routerConfig(core.Banyan, 6, FIFO)
	if _, err := New(cfg); err == nil {
		t.Error("bad fabric config should fail")
	}
}

func TestQueueDisciplineString(t *testing.T) {
	if FIFO.String() != "fifo" || VOQ.String() != "voq" {
		t.Fatal("names")
	}
	if QueueDiscipline(7).String() == "" {
		t.Fatal("unknown should stringify")
	}
}

func TestInjectAndDeliver(t *testing.T) {
	r, err := New(routerConfig(core.Crossbar, 4, FIFO))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	if !r.Inject(mkCell(rng, 1, 0, 2, 0), 0) {
		t.Fatal("inject refused")
	}
	got := r.Step(0)
	if len(got) != 1 || got[0].Dest != 2 {
		t.Fatalf("delivered: %v", got)
	}
	m := r.Metrics()
	if m.InjectedCells != 1 || m.AcceptedCells != 1 || m.DeliveredCells != 1 {
		t.Fatalf("metrics: %+v", m)
	}
	if m.PerEgressCells[2] != 1 {
		t.Fatal("per-egress count missing")
	}
}

func TestInjectRejectsBadPorts(t *testing.T) {
	r, _ := New(routerConfig(core.Crossbar, 4, FIFO))
	rng := rand.New(rand.NewSource(2))
	if r.Inject(mkCell(rng, 1, -1, 2, 0), 0) {
		t.Fatal("negative src accepted")
	}
	if r.Inject(mkCell(rng, 2, 0, 9, 0), 0) {
		t.Fatal("bad dest accepted")
	}
	if r.Metrics().DroppedCells != 2 {
		t.Fatal("drops not counted")
	}
}

func TestQueueCapDropsCells(t *testing.T) {
	cfg := routerConfig(core.Crossbar, 4, FIFO)
	cfg.MaxQueueCells = 2
	r, _ := New(cfg)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5; i++ {
		r.Inject(mkCell(rng, uint64(i+1), 0, 1, 0), 0)
	}
	m := r.Metrics()
	if m.AcceptedCells != 2 || m.DroppedCells != 3 {
		t.Fatalf("cap enforcement: %+v", m)
	}
	if r.QueuedCells() != 2 {
		t.Fatalf("queued = %d", r.QueuedCells())
	}
}

// TestDestinationContentionResolvedBeforeFabric: two heads for the same
// egress are serialized by the arbiter — one delivery per slot.
func TestDestinationContentionResolvedBeforeFabric(t *testing.T) {
	r, _ := New(routerConfig(core.Crossbar, 4, FIFO))
	rng := rand.New(rand.NewSource(4))
	r.Inject(mkCell(rng, 1, 0, 3, 0), 0)
	r.Inject(mkCell(rng, 2, 1, 3, 0), 0)
	first := r.Step(0)
	second := r.Step(1)
	if len(first) != 1 || len(second) != 1 {
		t.Fatalf("contention should serialize: %d then %d", len(first), len(second))
	}
}

// TestFCFSOrderAcrossPorts: the earlier-arrived head wins the shared
// destination.
func TestFCFSOrderAcrossPorts(t *testing.T) {
	r, _ := New(routerConfig(core.Crossbar, 4, FIFO))
	rng := rand.New(rand.NewSource(5))
	r.Inject(mkCell(rng, 1, 0, 3, 0), 5) // later arrival
	r.Inject(mkCell(rng, 2, 1, 3, 0), 2) // earlier arrival
	got := r.Step(6)
	if len(got) != 1 || got[0].ID != 2 {
		t.Fatalf("FCFS violated: %v", got)
	}
}

// TestHOLBlockingExists: with FIFO queues, a blocked head delays a cell
// for a free output behind it — the mechanism behind the 58.6% limit.
func TestHOLBlockingExists(t *testing.T) {
	r, _ := New(routerConfig(core.Crossbar, 4, FIFO))
	rng := rand.New(rand.NewSource(6))
	// Port 0: head wants dest 1 (contended), second cell wants dest 2
	// (free).
	r.Inject(mkCell(rng, 1, 0, 1, 0), 0)
	r.Inject(mkCell(rng, 2, 0, 2, 0), 0)
	// Port 1: older head also wants dest 1 and wins.
	r.Inject(mkCell(rng, 3, 1, 1, 0), 0)
	// Make port 1's cell strictly older.
	r2, _ := New(routerConfig(core.Crossbar, 4, FIFO))
	r2.Inject(mkCell(rng, 3, 1, 1, 0), 0)
	r2.Step(0)
	_ = r2
	got := r.Step(1)
	// Either port 0 or port 1 wins dest 1; cell 2 (dest 2) must NOT be
	// delivered this slot despite output 2 being idle — HOL blocking.
	for _, c := range got {
		if c.ID == 2 {
			t.Fatal("cell behind a blocked head must wait (HOL blocking)")
		}
	}
}

// TestVOQBeatsFIFOAtSaturation: under full offered load on a crossbar,
// VOQ+iSLIP sustains far higher throughput than FIFO (which is pinned
// near the 58.6% input-buffering limit by HOL blocking).
func TestVOQBeatsFIFOAtSaturation(t *testing.T) {
	run := func(q QueueDiscipline) float64 {
		r, err := New(routerConfig(core.Crossbar, 8, q))
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		id := uint64(0)
		const slots = 1500
		for s := 0; s < slots; s++ {
			for p := 0; p < 8; p++ {
				id++
				r.Inject(mkCell(rng, id, p, rng.Intn(8), s), uint64(s))
			}
			r.Step(uint64(s))
		}
		return r.Metrics().Throughput(8, slots)
	}
	fifo := run(FIFO)
	voq := run(VOQ)
	if fifo > 0.66 {
		t.Fatalf("FIFO saturation %g should sit near the 58.6%% limit", fifo)
	}
	if voq < fifo+0.15 {
		t.Fatalf("VOQ (%g) should clearly beat FIFO (%g) at saturation", voq, fifo)
	}
}

func TestResetMetrics(t *testing.T) {
	r, _ := New(routerConfig(core.Crossbar, 4, FIFO))
	rng := rand.New(rand.NewSource(8))
	r.Inject(mkCell(rng, 1, 0, 2, 0), 0)
	r.Step(0)
	r.ResetMetrics()
	m := r.Metrics()
	if m.DeliveredCells != 0 || m.InjectedCells != 0 || len(m.PerEgressCells) != 4 {
		t.Fatalf("reset: %+v", m)
	}
}

func TestMetricsHelpers(t *testing.T) {
	m := Metrics{DeliveredCells: 10, LatencySlots: 50}
	if m.AvgLatency() != 5 {
		t.Fatal("avg latency")
	}
	if (Metrics{}).AvgLatency() != 0 {
		t.Fatal("empty avg latency")
	}
	if got := m.Throughput(4, 10); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("throughput = %g", got)
	}
	if m.Throughput(0, 10) != 0 || m.Throughput(4, 0) != 0 {
		t.Fatal("degenerate throughput")
	}
}

// TestBanyanBackpressurePropagates: a saturated banyan pushes back into
// the ingress queues rather than losing cells.
func TestBanyanBackpressurePropagates(t *testing.T) {
	cfg := routerConfig(core.Banyan, 4, FIFO)
	cfg.Fabric.BufferCells = 1 // tiny node buffers force backpressure
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	id := uint64(0)
	injected := 0
	for s := 0; s < 200; s++ {
		for p := 0; p < 4; p++ {
			id++
			if r.Inject(mkCell(rng, id, p, rng.Intn(4), s), uint64(s)) {
				injected++
			}
		}
		r.Step(uint64(s))
	}
	// Conservation: everything accepted is delivered, queued, or in
	// flight.
	m := r.Metrics()
	total := int(m.DeliveredCells) + r.QueuedCells() + r.InFlight()
	if total != injected {
		t.Fatalf("conservation violated: %d accounted vs %d injected", total, injected)
	}
}

// TestLatencyAccounting: a cell's latency is delivery slot minus creation
// slot.
func TestLatencyAccounting(t *testing.T) {
	r, _ := New(routerConfig(core.Banyan, 8, FIFO)) // 3-stage pipeline
	rng := rand.New(rand.NewSource(10))
	c := mkCell(rng, 1, 0, 5, 0) // created at slot 0
	r.Inject(c, 0)
	var deliveredAt uint64
	for s := uint64(0); s < 10; s++ {
		if got := r.Step(s); len(got) > 0 {
			deliveredAt = s
			break
		}
	}
	m := r.Metrics()
	if m.MaxLatency != deliveredAt {
		t.Fatalf("latency = %d, want %d", m.MaxLatency, deliveredAt)
	}
}

// hashGate is a random but stateless mask gate: whether a port is open
// in a slot is a hash of (seed, port, slot), so two routers asking
// about the same slot get the same mask. Three ports in four are open.
type hashGate struct {
	seed  uint64
	ports int
}

// open is the per-port predicate the mask is built from. The reference
// routers below ask it port by port, the way admission asked the gate
// before gates published masks.
func (g hashGate) open(port int, slot uint64) bool {
	x := g.seed ^ slot*0x9e3779b97f4a7c15 ^ uint64(port)*0xbf58476d1ce4e5b9
	x ^= x >> 31
	x *= 0x94d049bb133111eb
	x ^= x >> 29
	return x&3 != 0
}

func (g hashGate) OpenPorts(slot uint64) []uint64 {
	mask := make([]uint64, arbiter.Words(g.ports))
	for p := 0; p < g.ports; p++ {
		if g.open(p, slot) {
			mask[p>>6] |= 1 << (p & 63)
		}
	}
	return mask
}

// refISLIP is the modulo-wrapping matrix iSLIP the bitset matcher
// replaced (the arbiter package keeps the same oracle): the reference
// router below arbitrates with it.
type refISLIP struct {
	ports, iterations   int
	grantPtr, acceptPtr []int
}

func (s *refISLIP) match(request [][]bool) []int {
	n := s.ports
	matchIn, matchOut, grant := make([]int, n), make([]int, n), make([]int, n)
	for i := range matchIn {
		matchIn[i], matchOut[i] = -1, -1
	}
	for iter := 0; iter < s.iterations; iter++ {
		for o := 0; o < n; o++ {
			grant[o] = -1
			for k := 0; k < n && matchOut[o] == -1; k++ {
				if i := (s.grantPtr[o] + k) % n; matchIn[i] == -1 && request[i][o] {
					grant[o] = i
					break
				}
			}
		}
		for i := 0; i < n; i++ {
			for k := 0; k < n && matchIn[i] == -1; k++ {
				if o := (s.acceptPtr[i] + k) % n; grant[o] == i {
					matchIn[i], matchOut[o] = o, i
					if iter == 0 {
						s.grantPtr[o], s.acceptPtr[i] = (i+1)%n, (o+1)%n
					}
				}
			}
		}
	}
	return matchIn
}

// refStep steps a router the way it was stepped before occupancy
// bitsets and open-port masks: each slot asks the gate's per-port
// predicate about every port, then either rebuilds the VOQ request
// matrix from the queue sizes for the reference matcher, or collects
// the FIFO heads of the open ports for the FCFS arbiter. Only admission
// differs from Step; egress metrics are not kept.
func refStep(r *Router, s *refISLIP, slot uint64) {
	n := r.Ports()
	open := func(p int) bool { return r.cfg.Gate == nil || r.cfg.Gate.(hashGate).open(p, slot) }
	if r.cfg.Queue == FIFO {
		var reqs []arbiter.Request
		for p := range r.fifo {
			if q := &r.fifo[p]; q.size > 0 && open(p) {
				reqs = append(reqs, arbiter.Request{Port: p, Dest: q.head().cell.Dest, Arrival: q.head().arrival})
			}
		}
		for _, gi := range r.arbFCFS.Grant(reqs, slot) {
			r.admitHead(&r.fifo[reqs[gi].Port], reqs[gi].Port)
		}
		r.fab.Step(slot)
		return
	}
	req := make([][]bool, n)
	for i := range req {
		req[i] = make([]bool, n)
		for o := range req[i] {
			req[i][o] = open(i) && r.voq[i][o].size > 0
		}
	}
	for i, o := range s.match(req) {
		if o >= 0 {
			r.admitHead(&r.voq[i][o], i)
		}
	}
	r.fab.Step(slot)
}

// admission is one cell leaving an ingress queue for the fabric.
type admission struct {
	slot    uint64
	in, out int
	cellID  uint64
}

// ingressQueues lists r's ingress queues with their ports: one FIFO per
// port, or the ports² VOQs in (ingress, egress) order.
func ingressQueues(r *Router) (qs []*queue, ports []int) {
	for p := range r.fifo {
		qs, ports = append(qs, &r.fifo[p]), append(ports, p)
	}
	for i := range r.voq {
		for o := range r.voq[i] {
			qs, ports = append(qs, &r.voq[i][o]), append(ports, i)
		}
	}
	return qs, ports
}

// stepAdmissions runs step and returns the cells it admitted, read off
// the queue heads that left.
func stepAdmissions(r *Router, slot uint64, step func()) []admission {
	qs, ports := ingressQueues(r)
	heads := make([]admission, len(qs))
	sizes := make([]int, len(qs))
	for k, q := range qs {
		if q.size > 0 {
			c := q.head().cell
			heads[k], sizes[k] = admission{slot, ports[k], c.Dest, c.ID}, q.size
		}
	}
	step()
	var out []admission
	for k, q := range qs {
		if q.size < sizes[k] {
			out = append(out, heads[k])
		}
	}
	return out
}

// checkOccupancy asserts the VOQ occupancy invariant: bit i of column o
// is set exactly when voq[i][o] holds a cell, and no bit past the last
// port is ever set.
func checkOccupancy(t *testing.T, r *Router, when string) {
	t.Helper()
	n, w := r.Ports(), r.words
	for o := 0; o < n; o++ {
		for b := 0; b < w*64; b++ {
			set := r.occ[o*w+(b>>6)]>>(b&63)&1 == 1
			if want := b < n && r.voq[b][o].size > 0; set != want {
				t.Fatalf("%s: occupancy bit (out %d, in %d) = %v, want %v", when, o, b, set, want)
			}
		}
	}
}

// TestVOQOccupancyInvariant drives a gated Banyan router through a
// random sequence of injections, slots and queue flushes, under VOQ and
// under FIFO. After every operation the VOQ occupancy bitsets must
// mirror the queue sizes, every admitted head's port must be open in
// the gate's mask (port counts past 64 put ports in later mask words),
// and over the whole run the router must admit exactly the cells, in
// exactly the slots, of a reference router that asks the gate port by
// port and, under VOQ, rebuilds the request matrix each slot and
// arbitrates with the matrix iSLIP.
func TestVOQOccupancyInvariant(t *testing.T) {
	for _, ports := range []int{2, 16, 64, 128} {
		t.Run(fmt.Sprintf("ports=%d", ports), func(t *testing.T) {
			for _, queue := range []QueueDiscipline{FIFO, VOQ} {
				t.Run("queue="+queue.String(), func(t *testing.T) {
					gatedAdmissionMatchesReference(t, ports, queue)
				})
			}
		})
	}
}

func gatedAdmissionMatchesReference(t *testing.T, ports int, queue QueueDiscipline) {
	rng := rand.New(rand.NewSource(int64(ports)))
	cfg := routerConfig(core.Banyan, ports, queue)
	cfg.MaxQueueCells = 3
	gate := hashGate{seed: rng.Uint64(), ports: ports}
	cfg.Gate = gate
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	oracle := &refISLIP{ports: ports, iterations: 2,
		grantPtr: make([]int, ports), acceptPtr: make([]int, ports)}
	var got, want []admission
	slot, id := uint64(0), uint64(0)
	for op := 0; op < 600; op++ {
		switch x := rng.Intn(100); {
		case x < 2:
			if a, b := r.FlushQueues(nil), ref.FlushQueues(nil); a != b {
				t.Fatalf("op %d: flushed %d cells, reference %d", op, a, b)
			}
		case x < 50:
			// A burst whose size varies from a trickle to several
			// cells per port.
			for k := rng.Intn(2 * ports); k >= 0; k-- {
				id++
				c := mkCell(rng, id, rng.Intn(ports), rng.Intn(ports), int(slot))
				twin := *c
				twin.Payload = slices.Clone(c.Payload)
				if r.Inject(c, slot) != ref.Inject(&twin, slot) {
					t.Fatalf("op %d: cell %d accepted by only one router", op, id)
				}
			}
		default:
			adm := stepAdmissions(r, slot, func() { r.Step(slot) })
			for _, a := range adm {
				if !gate.open(a.in, slot) {
					t.Fatalf("op %d: cell %d admitted at closed port %d", op, a.cellID, a.in)
				}
			}
			got = append(got, adm...)
			want = append(want, stepAdmissions(ref, slot, func() { refStep(ref, oracle, slot) })...)
			slot++
		}
		if queue == VOQ {
			checkOccupancy(t, r, fmt.Sprintf("op %d", op))
		}
	}
	if len(got) == 0 {
		t.Fatal("no cell was ever admitted")
	}
	if !slices.Equal(got, want) {
		t.Fatalf("admitted %d cells, reference %d; sequences differ", len(got), len(want))
	}
}
