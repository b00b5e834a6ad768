package router

import "fabricpower/internal/packet"

// queue is one ingress queue: a power-of-two ring of cells with their
// arrival slots, grown by doubling when full, so a warm queue pushes
// and pops without allocating. (Popping with q = q[1:] and pushing with
// append would keep reallocating the backing array.) The ring starts
// empty: a VOQ router has ports² queues and most are never used, so a
// queue takes its first ring from the router's ringChunk on its first
// push.
type queue struct {
	buf   []entry // power-of-two length
	first int     // index of the head entry
	size  int
}

// entry is one queued cell and the slot it arrived at the ingress (the
// FCFS arbiter's key).
type entry struct {
	cell    *packet.Cell
	arrival uint64
}

func (q *queue) push(c *packet.Cell, arrival uint64, rings *ringChunk) {
	if q.size == len(q.buf) {
		q.grow(rings)
	}
	q.buf[(q.first+q.size)&(len(q.buf)-1)] = entry{cell: c, arrival: arrival}
	q.size++
}

// head returns the oldest entry; the queue must be non-empty.
func (q *queue) head() entry { return q.buf[q.first] }

// pop drops the head entry, clearing its slot so a delivered cell is
// not kept reachable.
func (q *queue) pop() {
	q.buf[q.first] = entry{}
	q.first = (q.first + 1) & (len(q.buf) - 1)
	q.size--
}

func (q *queue) grow(rings *ringChunk) {
	if len(q.buf) == 0 {
		q.buf = rings.carve()
		return
	}
	buf := make([]entry, 2*len(q.buf))
	for i := 0; i < q.size; i++ {
		buf[i] = q.buf[(q.first+i)&(len(q.buf)-1)]
	}
	q.buf, q.first = buf, 0
}

// firstRing is the length of a queue's first ring.
const firstRing = 4

// ringChunk hands out first rings, carved from chunks of up to 64 rings
// so that a router's first pushes allocate once per chunk rather than
// once per queue. A carved ring cannot grow into its neighbour: a full
// ring doubles into storage of its own.
type ringChunk struct {
	free     []entry
	perChunk int // rings per chunk
}

func (rc *ringChunk) carve() []entry {
	if len(rc.free) == 0 {
		rc.free = make([]entry, rc.perChunk*firstRing)
	}
	r := rc.free[:firstRing:firstRing]
	rc.free = rc.free[firstRing:]
	return r
}

// flush empties the queue, calling fn (if non-nil) on each cell in
// queue order.
func (q *queue) flush(fn func(*packet.Cell)) {
	for q.size > 0 {
		if fn != nil {
			fn(q.head().cell)
		}
		q.pop()
	}
}
