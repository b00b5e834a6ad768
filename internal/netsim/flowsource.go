package netsim

import (
	"fmt"
	"sort"
	"sync"

	"fabricpower/internal/rng"
	"fabricpower/internal/traffic"
)

// FlowSource is the per-hop injection seam of the network kernel: one
// instance drives one flow's arrival process, a window of up to
// windowBlocks blocks of BlockSlots slots at a time. NextBlocks(first,
// dst) decides the len(dst) blocks that start at slot first: bit i of
// dst[b] is the arrival decision for slot first+b·BlockSlots+i, and the
// kernel injects a fresh cell at the flow's source edge in every slot
// whose bit is set. It overwrites every word of dst.
//
// The owning shard calls NextBlocks with 1 ≤ len(dst) ≤ windowBlocks,
// from slot 0 on, each window starting at the slot after the last one
// ended, so every slot is decided exactly once and in order; a window
// never runs past the block that holds the last slot of the current
// Run. The masks must be a pure function of the construction seed and
// the slots decided so far — however they are cut into windows — and
// NextBlocks must not allocate: it runs on the slot hot path of every
// shard. Deciding a window at once is exact because arrivals are
// exogenous: no source reads simulation state, so the k-th slot's draws
// are the same whether they run one per slot or thousands in a row.
type FlowSource interface {
	NextBlocks(first uint64, dst []uint64)
}

// BlockSlots is the number of slots one mask word decides.
const BlockSlots = 64

// windowBlocks is the most blocks one NextBlocks call decides: 2,048
// slots, so a coin source draws its stream well past the generator's
// 607-word register while that register sits in cache.
const windowBlocks = 32

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
	coins    []coinSource
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

// sourceStream returns a built-in source's stream, or nil for a source
// without one.
func sourceStream(src FlowSource) *rng.Stream {
	switch s := src.(type) {
	case *coinSource:
		return s.stream
	case *packetSource:
		return s.stream
	}
	return nil
}

// recycleStream returns a built-in source's stream to streamPool; other
// sources keep theirs.
func recycleStream(src FlowSource) {
	if st := sourceStream(src); st != nil {
		streamPool.Put(st)
	}
}

// keepBelow is rng.Below(1): Float64 keeps a word whose low 63 bits
// are below it and draws again on the others.
var keepBelow = rng.Below(1)

// coinChunk is the number of words a coin source fills at a time.
const coinChunk = 256

// stayRun returns the first index j ≥ i of words whose low 63 bits lie
// outside [lo, lo+span): one unsigned compare per word, since x-lo
// wraps above span for x < lo.
func stayRun(words []uint64, i int, lo, span uint64) int {
	for i < len(words) && words[i]&(1<<63-1)-lo < span {
		i++
	}
	return i
}

// setRun sets bits [from, from+k) of the bit string dst.
func setRun(dst []uint64, from, k int) {
	for k > 0 {
		n := min(k, BlockSlots-from%BlockSlots)
		dst[from/BlockSlots] |= (uint64(1)<<n - 1) << (from % BlockSlots)
		from += n
		k -= n
	}
}

// coinSource is the uniform and the bursty process: a chain of two
// states that draws one coin per slot and injects in every slot it ends
// ON. The coin is Float64() below a probability, decided on the integer
// word through rng.Below: in each state, the kept words of one range
// leave the chain where it is and the other kept words switch it.
type coinSource struct {
	stayOn, stayOff coinRange
	on              bool
	stream          *rng.Stream
}

// coinRange is the span of low-63-bit words [lo, lo+span) that keep a
// coinSource in its state.
type coinRange struct{ lo, span uint64 }

// bernoulli draws an independent coin at the flow's rate every slot —
// the network analogue of the paper's adjustable packet generation
// interval: a word below rng.Below(rate) is an arrival in either state.
func (sl *sources) bernoulli(rate float64, seed int64) *coinSource {
	b := rng.Below(rate)
	return sl.coin(coinRange{0, b}, coinRange{b, keepBelow - b}, seed)
}

// coin carves a coinSource with the given stay ranges, starting OFF.
func (sl *sources) coin(stayOn, stayOff coinRange, seed int64) *coinSource {
	s := take(&sl.coins, sl.n)
	*s = coinSource{stayOn: stayOn, stayOff: stayOff, stream: flowStream(seed)}
	return s
}

// onOffProbs returns the bursty chain's per-slot probabilities of
// leaving ON and leaving OFF.
func onOffProbs(rate, meanBurst float64) (onToOff, offToOn float64) {
	meanGap := meanBurst * (1 - rate) / rate
	return 1 / meanBurst, 1 / meanGap
}

// onOff builds the bursty process: an on/off Markov chain that injects
// every slot while ON. Mean load equals rate because the mean gap is
// meanBurst·(1-rate)/rate. A word below the threshold of the current
// state's leaving probability switches the chain.
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
	onToOff, offToOn := onOffProbs(rate, meanBurst)
	toOff, toOn := rng.Below(onToOff), rng.Below(offToOn)
	return sl.coin(coinRange{toOff, keepBelow - toOff}, coinRange{toOn, keepBelow - toOn}, seed), nil
}

func (s *coinSource) NextBlocks(_ uint64, dst []uint64) {
	clear(dst)
	on, keep := s.on, keepBelow
	var buf [coinChunk]uint64
	// Each kept word decides one slot; a redrawn word decides none, so
	// filling no more words than slots left never draws past the window.
	for slot, slots := 0, len(dst)*BlockSlots; slot < slots; {
		words := buf[:min(slots-slot, coinChunk)]
		s.stream.Fill(words)
		for i := 0; ; {
			// A run of slots that stay in the current state, then the
			// word that switches it or one that Float64 redraws.
			stay := s.stayOff
			if on {
				stay = s.stayOn
			}
			j := stayRun(words, i, stay.lo, stay.span)
			if on {
				setRun(dst, slot, j-i)
			}
			slot += j - i
			if i = j; i == len(words) {
				break
			}
			x := words[i] & (1<<63 - 1)
			i++
			if x < keep {
				if on = !on; on {
					dst[slot/BlockSlots] |= 1 << (slot % BlockSlots)
				}
				slot++
			}
		}
	}
	s.on = on
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

func (s *packetSource) NextBlocks(_ uint64, dst []uint64) {
	for b := range dst {
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
		dst[b] = m
	}
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

func (s *traceSource) NextBlocks(first uint64, dst []uint64) {
	t := first % s.period
	for b := range dst {
		var m uint64
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
		dst[b] = m
	}
}
