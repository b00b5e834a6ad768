package router

import "fabricpower/internal/packet"

// queue is one ingress queue: a power-of-two ring of cells with their
// arrival slots, grown by doubling when full, so a warm queue pushes
// and pops without allocating. (Popping with q = q[1:] and pushing with
// append would keep reallocating the backing array.) The ring starts
// empty: a VOQ router has ports² queues and most stay small.
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

func (q *queue) push(c *packet.Cell, arrival uint64) {
	if q.size == len(q.buf) {
		q.grow()
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

func (q *queue) grow() {
	buf := make([]entry, max(4, 2*len(q.buf)))
	for i := 0; i < q.size; i++ {
		buf[i] = q.buf[(q.first+i)&(len(q.buf)-1)]
	}
	q.buf, q.first = buf, 0
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
