// Package router assembles the full network router of the paper's Fig. 1:
// ingress process units with input buffers, the arbitration unit, the
// switch fabric, and egress process units that reassemble packets and
// measure throughput.
//
// Per §5.2, the input buffers live at the ingress process units — outside
// the switch fabric — so their energy is not charged to the fabric power
// account. The arbiter resolves destination contention before cells enter
// the fabric; the theoretical maximum throughput of this input-buffered
// organization is 58.6%, which the saturation experiment reproduces.
package router

import (
	"fmt"

	"fabricpower/internal/arbiter"
	"fabricpower/internal/core"
	"fabricpower/internal/fabric"
	"fabricpower/internal/packet"
)

// QueueDiscipline selects the ingress queue organization.
type QueueDiscipline int

const (
	// FIFO is the paper's single queue per ingress port (head-of-line
	// blocking limits saturation throughput to ≈58.6%).
	FIFO QueueDiscipline = iota
	// VOQ uses virtual output queues with iSLIP matching — the extension
	// discipline without HOL blocking.
	VOQ
)

// islipIterations is the number of iSLIP request-grant-accept rounds a
// VOQ router runs per slot.
const islipIterations = 2

func (q QueueDiscipline) String() string {
	switch q {
	case FIFO:
		return "fifo"
	case VOQ:
		return "voq"
	}
	return fmt.Sprintf("QueueDiscipline(%d)", int(q))
}

// PortGate is consulted once per slot before queue heads may request
// fabric admission. A closed port models a power-gated ingress path:
// its cells stay queued (the wakeup latency becomes measured cell
// latency) until the port reopens. Implemented by the dynamic power
// manager (internal/dpm); a nil gate leaves every port always
// admissible.
type PortGate interface {
	// OpenPorts returns the ports that may admit a cell into the
	// fabric during slot as a bitset of arbiter.Words(ports) words: bit
	// p of word p>>6 is set when port p is open. The router reads it
	// during the slot's admission and neither writes nor retains it.
	// Called once per slot on the slot hot path — implementations must
	// not allocate.
	OpenPorts(slot uint64) []uint64
}

// Config assembles a router.
type Config struct {
	// Arch selects the switch fabric architecture.
	Arch core.Architecture
	// Fabric configures the fabric model.
	Fabric fabric.Config
	// Queue selects the ingress discipline (FIFO = paper).
	Queue QueueDiscipline
	// MaxQueueCells caps each ingress queue; 0 means unbounded. Cells
	// arriving at a full queue are dropped and counted.
	MaxQueueCells int
	// Gate, when non-nil, power-gates ingress admission per port (see
	// PortGate). The paper's always-on router leaves it nil.
	Gate PortGate
}

// Metrics aggregates what the egress units measure.
type Metrics struct {
	// InjectedCells counts cells presented to the ingress units.
	InjectedCells uint64
	// AcceptedCells counts cells that entered an ingress queue.
	AcceptedCells uint64
	// DroppedCells counts ingress-queue overflows.
	DroppedCells uint64
	// DeliveredCells and DeliveredBits count egress arrivals.
	DeliveredCells uint64
	DeliveredBits  uint64
	// LatencySlots accumulates (delivery slot − creation slot) for the
	// average; MaxLatency tracks the worst cell.
	LatencySlots uint64
	MaxLatency   uint64
	// PerEgressCells counts arrivals per output port.
	PerEgressCells []uint64
}

// AvgLatency returns the mean cell latency in slots.
func (m Metrics) AvgLatency() float64 {
	if m.DeliveredCells == 0 {
		return 0
	}
	return float64(m.LatencySlots) / float64(m.DeliveredCells)
}

// Throughput returns the egress throughput as the fraction of the
// aggregate port capacity used over the given measured slots (the paper's
// x-axis in Fig. 9).
func (m Metrics) Throughput(ports int, slots uint64) float64 {
	if ports == 0 || slots == 0 {
		return 0
	}
	return float64(m.DeliveredCells) / float64(uint64(ports)*slots)
}

// Router is the assembled device.
type Router struct {
	cfg Config
	fab fabric.Fabric

	// FIFO discipline state.
	fifo    []queue // one per ingress port
	arbFCFS *arbiter.FCFSRR
	reqs    []arbiter.Request // per-slot request buffer, reused

	// VOQ discipline state. occ holds one bitset column per egress
	// port, words uint64s each: bit i of column o is set exactly when
	// voq[i][o] is non-empty. Inject sets a bit when a queue turns
	// non-empty, admission clears it when one drains, and FlushQueues
	// clears them all, so no slot rescans the ports² queues. Under a
	// gate, req is occ masked to the gate's open inputs.
	voq     [][]queue // [ingress][egress], rows of one n² slab
	arbSLIP *arbiter.ISLIP
	words   int
	occ     []uint64
	req     []uint64

	// portLen[p] counts the cells queued at ingress port p, and queued
	// counts them all. Both are maintained incrementally, so QueueLens
	// and QueuedCells — the per-slot occupancy signals of the power
	// manager and the network kernel — are O(1) instead of queue scans.
	portLen []int
	queued  int

	// rings supplies every queue's first ring.
	rings ringChunk

	metrics Metrics
}

// New builds a router with the given configuration.
func New(cfg Config) (*Router, error) {
	fab, err := fabric.New(cfg.Arch, cfg.Fabric)
	if err != nil {
		return nil, err
	}
	if cfg.MaxQueueCells < 0 {
		return nil, fmt.Errorf("router: max queue must be >= 0, got %d", cfg.MaxQueueCells)
	}
	r := &Router{
		cfg: cfg,
		fab: fab,
	}
	n := cfg.Fabric.Ports
	r.metrics.PerEgressCells = make([]uint64, n)
	r.portLen = make([]int, n)
	switch cfg.Queue {
	case FIFO:
		r.fifo = make([]queue, n)
		r.rings.perChunk = min(64, n)
		r.arbFCFS = arbiter.NewFCFSRR(n)
		r.reqs = make([]arbiter.Request, 0, n)
	case VOQ:
		r.voq = make([][]queue, n)
		rows := make([]queue, n*n)
		for i := range r.voq {
			r.voq[i] = rows[i*n : (i+1)*n : (i+1)*n]
		}
		r.rings.perChunk = min(64, n*n)
		r.words = arbiter.Words(n)
		m := n * r.words
		masks := make([]uint64, 2*m)
		r.occ, r.req = masks[:m:m], masks[m:]
		r.arbSLIP, err = arbiter.NewISLIP(n, islipIterations)
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("router: unknown queue discipline %v", cfg.Queue)
	}
	return r, nil
}

// Ports returns the port count.
func (r *Router) Ports() int { return r.cfg.Fabric.Ports }

// Fabric exposes the underlying fabric (for energy readout).
func (r *Router) Fabric() fabric.Fabric { return r.fab }

// Metrics returns a copy of the egress measurements.
func (r *Router) Metrics() Metrics { return r.metrics }

// ResetMetrics zeroes the egress measurements (queue and fabric state are
// preserved), so warmup can be excluded.
func (r *Router) ResetMetrics() {
	per := make([]uint64, len(r.metrics.PerEgressCells))
	r.metrics = Metrics{PerEgressCells: per}
}

// QueueLen returns the number of cells waiting at one ingress port (all
// VOQs of the port under the VOQ discipline).
func (r *Router) QueueLen(port int) int {
	if port < 0 || port >= r.Ports() {
		return 0
	}
	return r.portLen[port]
}

// QueueLens returns every port's QueueLen, indexed by port — the
// per-port occupancy signal the power-management policies observe every
// slot. It is a read-only view of the router's own counters, valid until
// the next Inject, Step or FlushQueues; callers must not write it.
func (r *Router) QueueLens() []int { return r.portLen }

// bufferOccupant is implemented by fabrics with internal buffers.
type bufferOccupant interface {
	BufferedCells() int
}

// BufferedCells returns the number of cells parked inside the fabric's
// internal buffers (Banyan node SRAM; zero for bufferless fabrics).
func (r *Router) BufferedCells() int {
	if bo, ok := r.fab.(bufferOccupant); ok {
		return bo.BufferedCells()
	}
	return 0
}

// QueuedCells returns the number of cells waiting in ingress queues.
// O(1): the count is maintained incrementally by Inject, admission and
// FlushQueues.
func (r *Router) QueuedCells() int { return r.queued }

// InFlight returns cells inside the fabric.
func (r *Router) InFlight() int { return r.fab.InFlight() }

// FlushQueues empties every ingress queue, calling fn (if non-nil) for
// each removed cell, and returns the flushed count. The network-level
// failure model uses it when a router goes down: queued cells are lost,
// not delivered, so they bypass the egress metrics entirely — only the
// caller's ledger sees them. Cells already inside the fabric are left
// in place.
func (r *Router) FlushQueues(fn func(*packet.Cell)) int {
	flushed := r.queued
	for p := range r.fifo {
		r.fifo[p].flush(fn)
	}
	for i := range r.voq {
		for j := range r.voq[i] {
			r.voq[i][j].flush(fn)
		}
	}
	clear(r.portLen)
	clear(r.occ)
	r.queued = 0
	return flushed
}

// Inject presents a cell to its ingress unit at the given slot. It
// returns false when the ingress queue is full (the cell is dropped and
// counted).
func (r *Router) Inject(c *packet.Cell, slot uint64) bool {
	r.metrics.InjectedCells++
	if c.Src < 0 || c.Src >= r.Ports() || c.Dest < 0 || c.Dest >= r.Ports() {
		r.metrics.DroppedCells++
		return false
	}
	q := r.queueFor(c)
	if r.cfg.MaxQueueCells > 0 && q.size >= r.cfg.MaxQueueCells {
		r.metrics.DroppedCells++
		return false
	}
	if q.size == 0 && r.cfg.Queue == VOQ {
		r.occ[c.Dest*r.words+(c.Src>>6)] |= 1 << (c.Src & 63)
	}
	q.push(c, slot, &r.rings)
	r.portLen[c.Src]++
	r.queued++
	r.metrics.AcceptedCells++
	return true
}

// queueFor returns the ingress queue a cell joins: its port's FIFO, or
// the VOQ of its (port, destination) pair.
func (r *Router) queueFor(c *packet.Cell) *queue {
	if r.cfg.Queue == FIFO {
		return &r.fifo[c.Src]
	}
	return &r.voq[c.Src][c.Dest]
}

// Step runs one slot: arbitration, fabric admission, fabric transport,
// and egress accounting. It returns the cells delivered this slot.
func (r *Router) Step(slot uint64) []*packet.Cell {
	switch r.cfg.Queue {
	case FIFO:
		r.admitFIFO(slot)
	case VOQ:
		r.admitVOQ(slot)
	}
	delivered := r.fab.Step(slot)
	for _, c := range delivered {
		r.metrics.DeliveredCells++
		r.metrics.DeliveredBits += uint64(c.Bits())
		lat := slot - c.CreatedSlot
		r.metrics.LatencySlots += lat
		if lat > r.metrics.MaxLatency {
			r.metrics.MaxLatency = lat
		}
		if c.Dest >= 0 && c.Dest < len(r.metrics.PerEgressCells) {
			r.metrics.PerEgressCells[c.Dest]++
		}
	}
	return delivered
}

// IdleStep is IdleSteps for one slot, for callers that step an idle
// router slot by slot.
func (r *Router) IdleStep(slot uint64) { r.IdleSteps(1) }

// IdleSteps advances the router k slots while it is provably idle — no
// queued cells, nothing in flight in the fabric — replaying exactly the
// state change k Steps perform on an empty router. FCFS's round-robin
// pointer advances every slot (Grant is called even with no requests,
// and its rotation decides future tie-breaks), so it ticks k times;
// iSLIP's pointers move only on accepted grants, so an empty match
// leaves no state behind and is skipped; the fabric walk and egress
// accounting are no-ops on an empty fabric and are skipped as well.
func (r *Router) IdleSteps(k uint64) {
	if r.cfg.Queue == FIFO {
		r.arbFCFS.IdleTicks(k)
	}
}

// admitFIFO requests grants for queue heads and offers winners to the
// fabric; losers and refused cells stay at their heads (HOL blocking).
// Under a gate, a head requests only when its port's bit is open.
func (r *Router) admitFIFO(slot uint64) {
	var open []uint64
	if r.cfg.Gate != nil {
		open = r.cfg.Gate.OpenPorts(slot)
	}
	reqs := r.reqs[:0]
	for p := range r.fifo {
		q := &r.fifo[p]
		if q.size == 0 {
			continue
		}
		if open != nil && open[p>>6]>>(p&63)&1 == 0 {
			continue
		}
		head := q.head()
		reqs = append(reqs, arbiter.Request{
			Port:    p,
			Dest:    head.cell.Dest,
			Arrival: head.arrival,
		})
	}
	r.reqs = reqs
	for _, gi := range r.arbFCFS.Grant(reqs, slot) {
		r.admitHead(&r.fifo[reqs[gi].Port], reqs[gi].Port)
	}
}

// admitHead offers a queue's head cell to the fabric and dequeues it if
// the fabric takes it; a refused cell stays at the head. It reports
// whether the cell was admitted.
func (r *Router) admitHead(q *queue, port int) bool {
	if !r.fab.Offer(q.head().cell) {
		return false
	}
	q.pop()
	r.portLen[port]--
	r.queued--
	return true
}

// admitVOQ matches VOQ occupancy with iSLIP and offers matched heads.
// Under a gate, each egress column of occ is ANDed with the open-port
// mask, so closed inputs request nothing.
func (r *Router) admitVOQ(slot uint64) {
	req := r.occ
	if r.cfg.Gate != nil {
		open := r.cfg.Gate.OpenPorts(slot)[:r.words]
		req = r.req
		for col := 0; col < len(req); col += r.words {
			for k, w := range open {
				req[col+k] = r.occ[col+k] & w
			}
		}
	}
	for i, o := range r.arbSLIP.Match(req) {
		if o < 0 {
			continue
		}
		q := &r.voq[i][o]
		if r.admitHead(q, i) && q.size == 0 {
			r.occ[o*r.words+(i>>6)] &^= 1 << (i & 63)
		}
	}
}
