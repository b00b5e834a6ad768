// Package traffic generates the workloads of the paper's experiments
// (§5.2): TCP/IP-like flows with random binary payloads and random
// destinations, injected at each ingress port with an adjustable interval
// so the offered load (and hence measured egress throughput) can be swept.
//
// Beyond the paper's uniform Bernoulli traffic, the package provides
// bursty (on/off Markov) and hotspot sources, a variable packet-size
// source that exercises segmentation/reassembly, and trace
// record/replay for reproducible experiments. Every draw comes from one
// rng.Stream per source.
package traffic

import (
	"fmt"

	"fabricpower/internal/packet"
	"fabricpower/internal/rng"
)

// Hotspot sends Fraction of the traffic to the Port hotspot and spreads
// the rest uniformly — the classic stress pattern for shared-resource
// fabrics. The sources take a *Hotspot as their destination pattern; a
// nil one picks any port uniformly (the paper's random destinations,
// self-traffic allowed).
type Hotspot struct {
	Port     int
	Fraction float64
}

// pick draws a destination among ports from s: a Float64 coin for the
// hotspot, then a uniform Intn when the coin misses or h is nil.
func (h *Hotspot) pick(s *rng.Stream, ports int) int {
	if h != nil && s.Float64() < h.Fraction {
		return h.Port % ports
	}
	return s.Intn(ports)
}

// batches hands out per-slot cell slices carved from shared chunks, so an
// injector returns a fresh slice every slot without allocating one per
// slot. A slice it returns is never written again: its capacity ends at
// its length, and a full chunk is dropped, never reused.
type batches struct {
	buf []*packet.Cell
}

// batchChunk is the pointer count of one chunk.
const batchChunk = 4096

// Open returns an empty slice for one slot's cells, with room for at
// least n before an append reallocates it. Pass the filled slice to
// Close.
func (b *batches) Open(n int) []*packet.Cell {
	if cap(b.buf)-len(b.buf) < n {
		b.buf = make([]*packet.Cell, 0, max(n, batchChunk))
	}
	return b.buf[len(b.buf):]
}

// Close commits a slice from Open and returns it capped at its length,
// or nil when it is empty.
func (b *batches) Close(s []*packet.Cell) []*packet.Cell {
	if len(s) == 0 {
		return nil
	}
	if end := len(b.buf) + len(s); end <= cap(b.buf) && &b.buf[:end][len(b.buf)] == &s[0] {
		b.buf = b.buf[:end]
	}
	return s[:len(s):len(s)]
}

// Injector is the paper's cell source: at every slot, every port injects a
// fixed-size cell with probability Load (Bernoulli arrivals — adjusting
// the packet generation interval of §5.2), destination drawn from the
// pattern, payload random.
type Injector struct {
	ports   int
	load    float64
	pattern *Hotspot
	stream  *rng.Stream // coins, destinations and payloads
	nextID  uint64
	pool    *packet.Pool
	batches batches
}

// NewInjector validates and builds a Bernoulli cell injector; a nil
// pattern sends uniformly.
func NewInjector(ports int, load float64, cfg packet.Config, pattern *Hotspot, seed int64) (*Injector, error) {
	if ports < 1 {
		return nil, fmt.Errorf("traffic: ports must be >= 1, got %d", ports)
	}
	if load < 0 || load > 1 {
		return nil, fmt.Errorf("traffic: load must be in [0,1], got %g", load)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Injector{
		ports:   ports,
		load:    load,
		pattern: pattern,
		stream:  rng.New(seed),
		pool:    packet.NewPool(cfg.Words(), 0),
	}, nil
}

// Ports returns the port count.
func (in *Injector) Ports() int { return in.ports }

// Load returns the offered load per port.
func (in *Injector) Load() float64 { return in.load }

// Generate returns the cells injected in this slot, at most one per port,
// each with Src/Dest/payload filled in.
func (in *Injector) Generate(slot uint64) []*packet.Cell {
	cells := in.batches.Open(in.ports)
	for p := 0; p < in.ports; p++ {
		if in.stream.Float64() >= in.load {
			continue
		}
		in.nextID++
		cells = append(cells, newCell(in.pool, in.stream, in.nextID, p, in.pattern.pick(in.stream, in.ports), slot))
	}
	return in.batches.Close(cells)
}

// Release hands a delivered or refused cell back for reuse.
func (in *Injector) Release(c *packet.Cell) { in.pool.Put(c) }

// newCell takes a cell from pool and fills its payload from s. Callers
// draw dest first: destination before payload is the draw order the
// goldens were recorded with.
func newCell(pool *packet.Pool, s *rng.Stream, id uint64, src, dest int, slot uint64) *packet.Cell {
	c := pool.Get()
	c.ID, c.Src, c.Dest, c.CreatedSlot = id, src, dest, slot
	c.FillRandom(s)
	return c
}

// OnOffInjector is a bursty source: each port runs an independent on/off
// Markov chain; while ON it injects every slot. The mean load is
// POn = MeanBurst/(MeanBurst+MeanGap); choose MeanGap for a target load.
type OnOffInjector struct {
	ports    int
	pOnToOff float64
	pOffToOn float64
	on       []bool
	pattern  *Hotspot
	stream   *rng.Stream // chain coins, destinations and payloads
	nextID   uint64
	pool     *packet.Pool
	batches  batches
}

// NewOnOffInjector builds a bursty injector with the given mean burst
// length (slots) and target mean load; a nil pattern sends uniformly.
func NewOnOffInjector(ports int, meanBurst, load float64, cfg packet.Config, pattern *Hotspot, seed int64) (*OnOffInjector, error) {
	if ports < 1 {
		return nil, fmt.Errorf("traffic: ports must be >= 1, got %d", ports)
	}
	if meanBurst < 1 {
		return nil, fmt.Errorf("traffic: mean burst must be >= 1 slot, got %g", meanBurst)
	}
	if load <= 0 || load >= 1 {
		return nil, fmt.Errorf("traffic: bursty load must be in (0,1), got %g", load)
	}
	if err := CheckOnOffRate(load, meanBurst); err != nil {
		return nil, fmt.Errorf("traffic: %w", err)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// load = meanBurst / (meanBurst + meanGap)  =>  meanGap = meanBurst·(1-load)/load.
	meanGap := meanBurst * (1 - load) / load
	return &OnOffInjector{
		ports:    ports,
		pOnToOff: 1 / meanBurst,
		pOffToOn: 1 / meanGap,
		on:       make([]bool, ports),
		pattern:  pattern,
		stream:   rng.New(seed),
		pool:     packet.NewPool(cfg.Words(), 0),
	}, nil
}

// CheckOnOffRate rejects a rate an on/off source with the given mean
// burst cannot reach. The mean gap meanBurst·(1−rate)/rate falls below
// one slot once rate > meanBurst/(meanBurst+1); the OFF→ON probability
// 1/meanGap then exceeds 1, and the realized load would silently cap
// at that bound.
func CheckOnOffRate(rate, meanBurst float64) error {
	if bound := meanBurst / (meanBurst + 1); rate > bound {
		return fmt.Errorf("bursty rate %g is unreachable with mean burst %g slots: the largest reachable rate is %g", rate, meanBurst, bound)
	}
	return nil
}

// Generate returns this slot's injected cells.
func (in *OnOffInjector) Generate(slot uint64) []*packet.Cell {
	cells := in.batches.Open(in.ports)
	for p := 0; p < in.ports; p++ {
		if in.on[p] {
			if in.stream.Float64() < in.pOnToOff {
				in.on[p] = false
			}
		} else if in.stream.Float64() < in.pOffToOn {
			in.on[p] = true
		}
		if !in.on[p] {
			continue
		}
		in.nextID++
		cells = append(cells, newCell(in.pool, in.stream, in.nextID, p, in.pattern.pick(in.stream, in.ports), slot))
	}
	return in.batches.Close(cells)
}

// Release hands a delivered or refused cell back for reuse.
func (in *OnOffInjector) Release(c *packet.Cell) { in.pool.Put(c) }

// PacketInjector generates variable-size TCP/IP packets (the classic
// trimodal internet mix by default) and segments them into cells; each
// port drains its cell queue at one cell per slot, so a long packet
// occupies its ingress for several slots exactly as a 100BaseT line would.
type PacketInjector struct {
	ports     int
	load      float64
	sizesBits []int
	sizeProb  []float64
	cfg       packet.Config
	pattern   *Hotspot
	seg       *packet.Segmenter
	queues    [][]*packet.Cell
	stream    *rng.Stream
	nextID    uint64
}

// TrimodalSizesBits returns the classic 40/576/1500-byte internet packet
// mix with its empirical probabilities.
func TrimodalSizesBits() (sizes []int, probs []float64) {
	return []int{40 * 8, 576 * 8, 1500 * 8}, []float64{0.55, 0.25, 0.20}
}

// NewPacketInjector builds a variable-packet-size source. load is the
// target cell load per port; the injector draws new packets only when a
// port's queue is empty, so the effective load saturates near the packet
// arrival rate times mean packet length. A nil pattern sends uniformly.
func NewPacketInjector(ports int, load float64, cfg packet.Config, pattern *Hotspot, seed int64) (*PacketInjector, error) {
	if ports < 1 {
		return nil, fmt.Errorf("traffic: ports must be >= 1, got %d", ports)
	}
	if load < 0 || load > 1 {
		return nil, fmt.Errorf("traffic: load must be in [0,1], got %g", load)
	}
	seg, err := packet.NewSegmenter(cfg)
	if err != nil {
		return nil, err
	}
	sizes, probs := TrimodalSizesBits()
	return &PacketInjector{
		ports:     ports,
		load:      load,
		sizesBits: sizes,
		sizeProb:  probs,
		cfg:       cfg,
		pattern:   pattern,
		seg:       seg,
		queues:    make([][]*packet.Cell, ports),
		stream:    rng.New(seed),
	}, nil
}

// meanCellsPerPacket returns the average segmentation factor.
func (in *PacketInjector) meanCellsPerPacket() float64 {
	mean := 0.0
	for i, s := range in.sizesBits {
		cells := float64((s + in.cfg.CellBits - 1) / in.cfg.CellBits)
		mean += in.sizeProb[i] * cells
	}
	return mean
}

// Generate drains each port queue one cell per slot, drawing fresh packets
// with the rate that achieves the target cell load.
func (in *PacketInjector) Generate(slot uint64) []*packet.Cell {
	pArrival := in.load / in.meanCellsPerPacket()
	var out []*packet.Cell
	for p := 0; p < in.ports; p++ {
		if len(in.queues[p]) == 0 && in.stream.Float64() < pArrival {
			size := in.pickSize()
			in.nextID++
			pkt, err := packet.NewRandomPacket(in.stream, in.nextID, p, in.pattern.pick(in.stream, in.ports), size)
			if err == nil {
				in.queues[p] = in.seg.Split(pkt, slot)
			}
		}
		if len(in.queues[p]) > 0 {
			out = append(out, in.queues[p][0])
			in.queues[p] = in.queues[p][1:]
		}
	}
	return out
}

// Release implements the kernel's generator contract. Segmented cells
// are not recycled, so it does nothing.
func (in *PacketInjector) Release(*packet.Cell) {}

func (in *PacketInjector) pickSize() int {
	r := in.stream.Float64()
	acc := 0.0
	for i, p := range in.sizeProb {
		acc += p
		if r < acc {
			return in.sizesBits[i]
		}
	}
	return in.sizesBits[len(in.sizesBits)-1]
}
