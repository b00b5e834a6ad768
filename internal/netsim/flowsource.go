package netsim

import (
	"fmt"
	"sort"
	"sync"

	"fabricpower/internal/rng"
	"fabricpower/internal/traffic"
)

// FlowSource is the per-hop injection seam of the network kernel: one
// instance drives one flow's arrival process, a block of BlockSlots
// slots at a time. Bit i of NextBlock(first) is the arrival decision
// for slot first+i; the kernel injects a fresh cell at the flow's
// source edge in every slot whose bit is set.
//
// The owning shard calls NextBlock once per block, in ascending block
// order with first a multiple of BlockSlots, from the block of the
// network's first slot on. The mask must be a pure function of the
// construction seed and the slots decided so far, and NextBlock must
// not allocate: it runs on the slot hot path of every shard. Deciding
// a block at once is exact because arrivals are exogenous: no source
// reads simulation state, so the k-th slot's draws are the same
// whether they run one per slot or 64 in a row.
type FlowSource interface {
	NextBlock(first uint64) uint64
}

// BlockSlots is the number of slots one NextBlock call decides.
const BlockSlots = 64

// flowSourceFactory builds one flow's source. f is the routed flow
// (Rate is the flow's demand in cells/slot), index its position in the
// flow list, and seed the flow's deterministic stream seed (derived
// from Config.Seed and the index, so every shard count replays the
// identical arrivals).
type flowSourceFactory func(f Flow, index int, seed int64) (FlowSource, error)

// Traffic selects the per-flow injection process of a network. The
// zero value is the Bernoulli process at each flow's matrix rate — the
// behavior network simulations always had.
type Traffic struct {
	// Kind names a built-in process: "" or "uniform" (Bernoulli),
	// "bursty" (per-flow on/off Markov bursts), "packet" (trimodal
	// variable-size packets segmented into back-to-back cell trains),
	// or "trace" (cyclic replay of a recorded trace's slot pattern).
	Kind string
	// MeanBurstSlots tunes "bursty" (default 10).
	MeanBurstSlots float64
	// Trace supplies the recording for kind "trace". Flow i replays
	// the injection slots of trace source port i mod (distinct ports),
	// cyclically, so short traces sustain their load forever.
	Trace *traffic.Trace
	// custom, when non-nil, overrides Kind with a per-flow factory: a
	// test hook that drives the kernel with scripted sources.
	custom flowSourceFactory
}

// newSources builds one source per flow.
func (tr Traffic) newSources(flows []Flow, cellBits int, baseSeed int64) ([]FlowSource, error) {
	var idx *traceIndex
	if tr.custom == nil && tr.Kind == "trace" {
		if tr.Trace == nil {
			return nil, fmt.Errorf("netsim: traffic kind trace needs a trace")
		}
		var err error
		idx, err = indexTrace(tr.Trace)
		if err != nil {
			return nil, err
		}
	}
	srcs := make([]FlowSource, len(flows))
	slab := sources{n: len(flows)}
	for fi := range flows {
		seed := flowSeed(baseSeed, fi, saltInject)
		src, err := tr.newSource(&slab, flows[fi], fi, seed, cellBits, idx)
		if err != nil {
			return nil, fmt.Errorf("netsim: flow %d: %w", fi, err)
		}
		srcs[fi] = src
	}
	return srcs, nil
}

func (tr Traffic) newSource(slab *sources, f Flow, fi int, seed int64, cellBits int, idx *traceIndex) (FlowSource, error) {
	if tr.custom != nil {
		return tr.custom(f, fi, seed)
	}
	switch tr.Kind {
	case "", "uniform":
		return slab.bernoulli(f.Rate, seed), nil
	case "bursty":
		mean := tr.MeanBurstSlots
		if mean == 0 {
			mean = 10
		}
		return slab.onOff(f.Rate, mean, seed)
	case "packet":
		return slab.packet(f.Rate, cellBits, seed)
	case "trace":
		return slab.trace(idx, fi), nil
	}
	return nil, fmt.Errorf("unknown traffic kind %q (built-ins: uniform, bursty, packet, trace)", tr.Kind)
}

// sources carves a network's built-in flow sources from one slice per
// kind, sized for every flow when its kind's first source is built, so
// a build allocates per kind rather than per flow. The zero value
// carves one source per allocation.
type sources struct {
	n        int // flows to size a kind's slice for
	bern     []bernoulliSource
	onOffs   []onOffSource
	packets  []packetSource
	traces   []traceSource
	pktCells []int // cells per packet variant, shared by packet sources
	pktProbs []float64
}

// take returns a pointer to the next element of *s, starting a new
// slice of n elements when *s is full. A full slice is never grown, so
// the pointers handed out stay valid.
func take[T any](s *[]T, n int) *T {
	if len(*s) == cap(*s) {
		*s = make([]T, 0, max(n, 1))
	}
	*s = (*s)[:len(*s)+1]
	return &(*s)[len(*s)-1]
}

// Seed salts keep a flow's arrival coin stream and its payload stream
// statistically independent.
const (
	saltInject  = 0x9e3779b97f4a7c15
	saltPayload = 0xbf58476d1ce4e5b9
)

// flowSeed derives flow fi's stream seed from the experiment base seed
// — an FNV-1a mix, so neighboring flow indices land far apart.
func flowSeed(base int64, fi int, salt uint64) int64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64) ^ salt
	for _, v := range [2]uint64{uint64(base), uint64(fi)} {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	return int64(h)
}

// streamPool recycles flow and fault-renewal streams between networks.
// Two 4.9 KB streams per flow are ~10 MB of garbage per build of a
// 48-router fat-tree, and Seed overwrites a stream's whole state, so a
// recycled stream draws exactly what a fresh one would.
var streamPool sync.Pool

// flowStream returns a stream seeded with seed, recycled when the pool
// has one.
func flowStream(seed int64) *rng.Stream {
	s, ok := streamPool.Get().(*rng.Stream)
	if !ok {
		s = new(rng.Stream)
	}
	s.Seed(seed)
	return s
}

// recycleStream returns a built-in source's stream to streamPool; other
// sources keep theirs.
func recycleStream(src FlowSource) {
	switch s := src.(type) {
	case *bernoulliSource:
		streamPool.Put(s.stream)
	case *onOffSource:
		streamPool.Put(s.stream)
	case *packetSource:
		streamPool.Put(s.stream)
	}
}

// bernoulliSource draws an independent coin at the flow's rate every
// slot — the network analogue of the paper's adjustable packet
// generation interval.
type bernoulliSource struct {
	rate   float64
	stream *rng.Stream
}

func (sl *sources) bernoulli(rate float64, seed int64) *bernoulliSource {
	s := take(&sl.bern, sl.n)
	*s = bernoulliSource{rate: rate, stream: flowStream(seed)}
	return s
}

func (s *bernoulliSource) NextBlock(uint64) uint64 {
	st, rate := s.stream, s.rate
	var m uint64
	for i := 0; i < BlockSlots; i++ {
		if st.Float64() < rate {
			m |= 1 << i
		}
	}
	return m
}

// onOffSource is the bursty process: an on/off Markov chain that
// injects every slot while ON. Mean load equals rate because the mean
// gap is meanBurst·(1-rate)/rate.
type onOffSource struct {
	pOnToOff float64
	pOffToOn float64
	on       bool
	stream   *rng.Stream
}

func (sl *sources) onOff(rate, meanBurst float64, seed int64) (FlowSource, error) {
	if meanBurst < 1 {
		return nil, fmt.Errorf("mean burst must be >= 1 slot, got %g", meanBurst)
	}
	switch {
	case rate <= 0:
		return sl.bernoulli(0, seed), nil
	case rate >= 1:
		return sl.bernoulli(1, seed), nil
	}
	if err := traffic.CheckOnOffRate(rate, meanBurst); err != nil {
		return nil, err
	}
	meanGap := meanBurst * (1 - rate) / rate
	s := take(&sl.onOffs, sl.n)
	*s = onOffSource{
		pOnToOff: 1 / meanBurst,
		pOffToOn: 1 / meanGap,
		stream:   flowStream(seed),
	}
	return s, nil
}

func (s *onOffSource) NextBlock(uint64) uint64 {
	st, on := s.stream, s.on
	var m uint64
	for i := 0; i < BlockSlots; i++ {
		if on {
			if st.Float64() < s.pOnToOff {
				on = false
			}
		} else if st.Float64() < s.pOffToOn {
			on = true
		}
		if on {
			m |= 1 << i
		}
	}
	s.on = on
	return m
}

// packetSource models host traffic: variable-size packets (the classic
// 40/576/1500-byte trimodal mix) are segmented into cells that leave
// back to back, one per slot, so a long packet occupies its flow for
// several consecutive slots — segmentation crossing every hop of the
// path. A packet can start only in a slot the flow is idle, so the
// per-idle-slot arrival probability p is set so that the mean cell
// load, p·E[L]/(1−p+p·E[L]) for a mean packet of E[L] cells, equals
// the flow's rate.
type packetSource struct {
	pArrival float64
	cells    []int // cells per packet variant
	probs    []float64
	queued   int
	stream   *rng.Stream
}

func (sl *sources) packet(rate float64, cellBits int, seed int64) (FlowSource, error) {
	if cellBits <= 0 {
		return nil, fmt.Errorf("cell bits must be positive, got %d", cellBits)
	}
	if sl.pktCells == nil { // every flow of a network has the same cell size
		sizes, probs := traffic.TrimodalSizesBits()
		sl.pktCells, sl.pktProbs = make([]int, len(sizes)), probs
		for i, s := range sizes {
			sl.pktCells[i] = (s + cellBits - 1) / cellBits
		}
	}
	mean := 0.0
	for i, c := range sl.pktCells {
		mean += sl.pktProbs[i] * float64(c)
	}
	s := take(&sl.packets, sl.n)
	*s = packetSource{
		pArrival: rate / (mean*(1-rate) + rate),
		cells:    sl.pktCells,
		probs:    sl.pktProbs,
		stream:   flowStream(seed),
	}
	return s, nil
}

func (s *packetSource) NextBlock(uint64) uint64 {
	var m uint64
	for i := 0; i < BlockSlots; i++ {
		if s.queued == 0 && s.stream.Float64() < s.pArrival {
			s.queued = s.packetCells(s.stream.Float64())
		}
		if s.queued > 0 {
			s.queued--
			m |= 1 << i
		}
	}
	return m
}

// packetCells maps a uniform draw r onto a packet size in cells.
func (s *packetSource) packetCells(r float64) int {
	acc := 0.0
	for i, p := range s.probs {
		acc += p
		if r < acc {
			return s.cells[i]
		}
	}
	return s.cells[len(s.cells)-1]
}

// traceIndex precomputes a trace's per-source-port injection slots so
// every flow replaying the same port shares one sorted slot list.
type traceIndex struct {
	ports  []int            // distinct source ports, ascending
	slots  map[int][]uint64 // ascending unique injection slots per port
	period uint64           // replay wraps at last slot + 1
}

func indexTrace(tr *traffic.Trace) (*traceIndex, error) {
	if len(tr.Entries) == 0 {
		return nil, fmt.Errorf("netsim: empty trace")
	}
	idx := &traceIndex{slots: map[int][]uint64{}}
	for _, e := range tr.Entries {
		if e.Slot+1 > idx.period {
			idx.period = e.Slot + 1
		}
		s := idx.slots[e.Src]
		if len(s) == 0 || s[len(s)-1] != e.Slot {
			idx.slots[e.Src] = append(s, e.Slot)
		}
	}
	for p := range idx.slots {
		idx.ports = append(idx.ports, p)
	}
	sort.Ints(idx.ports)
	return idx, nil
}

// trace builds flow fi's replayer: the slot pattern of trace port fi
// mod (distinct ports), repeated with the trace's period.
func (sl *sources) trace(idx *traceIndex, fi int) FlowSource {
	s := take(&sl.traces, sl.n)
	*s = traceSource{
		slots:  idx.slots[idx.ports[fi%len(idx.ports)]],
		period: idx.period,
	}
	return s
}

type traceSource struct {
	slots  []uint64
	period uint64
	pos    int
}

func (s *traceSource) NextBlock(first uint64) uint64 {
	var m uint64
	t := first % s.period
	for i := 0; i < BlockSlots; i++ {
		if t == 0 {
			s.pos = 0
		}
		for s.pos < len(s.slots) && s.slots[s.pos] < t {
			s.pos++
		}
		if s.pos < len(s.slots) && s.slots[s.pos] == t {
			m |= 1 << i
		}
		if t++; t == s.period {
			t = 0
		}
	}
	return m
}
