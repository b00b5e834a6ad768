package traffic

import (
	"bufio"
	"fmt"
	"io"
	"sort"

	"fabricpower/internal/packet"
	"fabricpower/internal/rng"
)

// TraceEntry is one recorded injection.
type TraceEntry struct {
	Slot uint64
	Src  int
	Dest int
	// Seed regenerates the payload deterministically without storing it.
	Seed int64
}

// Trace is a replayable record of injections, ordered by slot.
type Trace struct {
	Entries []TraceEntry
}

// Record runs a generator for the given number of slots and captures its
// injections as a trace. Payload seeds are derived from the cell IDs so a
// replay regenerates identical bit patterns.
func Record(gen interface {
	Generate(slot uint64) []*packet.Cell
}, slots uint64) *Trace {
	tr := &Trace{}
	for s := uint64(0); s < slots; s++ {
		for _, c := range gen.Generate(s) {
			tr.Entries = append(tr.Entries, TraceEntry{
				Slot: s,
				Src:  c.Src,
				Dest: c.Dest,
				Seed: int64(c.ID),
			})
		}
	}
	return tr
}

// Write serializes the trace in a simple line format: slot src dest seed.
func (t *Trace) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, e := range t.Entries {
		if _, err := fmt.Fprintf(bw, "%d %d %d %d\n", e.Slot, e.Src, e.Dest, e.Seed); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTrace parses the line format written by Write.
func ReadTrace(r io.Reader) (*Trace, error) {
	tr := &Trace{}
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		var e TraceEntry
		if _, err := fmt.Sscanf(sc.Text(), "%d %d %d %d", &e.Slot, &e.Src, &e.Dest, &e.Seed); err != nil {
			return nil, fmt.Errorf("traffic: trace line %d: %w", line, err)
		}
		tr.Entries = append(tr.Entries, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sort.SliceStable(tr.Entries, func(i, j int) bool { return tr.Entries[i].Slot < tr.Entries[j].Slot })
	return tr, nil
}

// Player replays a trace as a generator.
type Player struct {
	trace  *Trace
	cfg    packet.Config
	pos    int
	nextID uint64
	stream *rng.Stream // reseeded from each entry's payload seed
}

// NewPlayer builds a trace player with the given cell geometry.
func NewPlayer(t *Trace, cfg packet.Config) (*Player, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if t == nil {
		return nil, fmt.Errorf("traffic: nil trace")
	}
	return &Player{trace: t, cfg: cfg, stream: new(rng.Stream)}, nil
}

// Generate emits the recorded cells for the slot, regenerating payloads
// from the recorded seeds.
func (p *Player) Generate(slot uint64) []*packet.Cell {
	var out []*packet.Cell
	for p.pos < len(p.trace.Entries) && p.trace.Entries[p.pos].Slot == slot {
		e := p.trace.Entries[p.pos]
		p.pos++
		p.nextID++
		p.stream.Seed(e.Seed)
		c := &packet.Cell{
			ID:          p.nextID,
			Src:         e.Src,
			Dest:        e.Dest,
			Payload:     make([]uint32, p.cfg.Words()),
			CreatedSlot: slot,
		}
		c.FillRandom(p.stream)
		out = append(out, c)
	}
	return out
}

// Release implements the kernel's generator contract. Replayed cells
// are not recycled, so it does nothing.
func (p *Player) Release(*packet.Cell) {}

// Rewind resets the player to the start of the trace.
func (p *Player) Rewind() {
	p.pos = 0
	p.nextID = 0
}
