// Package arbiter implements the arbitration unit of the router (§2): it
// decides when and where packets move from ingress ports into the switch
// fabric, resolving destination contention before the fabric sees the
// cells (§3.2).
//
// Two disciplines are provided:
//
//   - FCFSRR — the paper's §5.2 arbiter: first-come-first-served on
//     arrival time with a round-robin pointer breaking ties. With single
//     FIFO input queues this is the classic input-buffered switch whose
//     saturation throughput tends to 2−√2 ≈ 58.6% — the paper's stated
//     theoretical maximum.
//
//   - ISLIP — an iterative VOQ matcher (extension beyond the paper) that
//     removes head-of-line blocking and approaches 100% throughput;
//     used by the ablation experiments.
package arbiter

import (
	"fmt"
	"math/bits"
)

// Request asks to move the head cell of an ingress queue to a destination.
type Request struct {
	// Port is the requesting ingress port.
	Port int
	// Dest is the destination egress port.
	Dest int
	// Arrival is the slot the cell entered the ingress queue (FCFS key).
	Arrival uint64
}

// Arbiter selects a conflict-free subset of requests: at most one grant
// per ingress port and one per egress destination.
type Arbiter interface {
	// Grant returns the indices of the granted requests.
	Grant(reqs []Request, slot uint64) []int
}

// FCFSRR is the paper's first-come-first-served arbiter with round-robin
// tie-breaking. The zero value is ready to use.
type FCFSRR struct {
	rr int
	// Per-call scratch, reused so granting is allocation-free: best maps
	// dest -> winning request index, valid when mark holds the current
	// epoch. Grants are emitted in request order, never map order, so a
	// simulation replays bit-identically.
	epoch  uint64
	best   []int
	mark   []uint64
	grants []int
}

// NewFCFSRR returns the paper's arbiter.
func NewFCFSRR() *FCFSRR { return &FCFSRR{} }

// Grant implements Arbiter: for every destination, the oldest request
// wins; equal arrivals are broken by round-robin distance from the
// rotating pointer. Each ingress port sends at most one request per slot
// by construction of the router, so per-port uniqueness is inherited.
// Grants are returned in ascending request order; the returned slice is
// reused by the next Grant call.
func (a *FCFSRR) Grant(reqs []Request, slot uint64) []int {
	a.epoch++
	for _, r := range reqs {
		if r.Dest >= len(a.best) {
			a.best = append(a.best, make([]int, r.Dest+1-len(a.best))...)
			a.mark = append(a.mark, make([]uint64, r.Dest+1-len(a.mark))...)
		}
	}
	for i, r := range reqs {
		if a.mark[r.Dest] != a.epoch {
			a.mark[r.Dest] = a.epoch
			a.best[r.Dest] = i
			continue
		}
		cur := reqs[a.best[r.Dest]]
		if r.Arrival < cur.Arrival ||
			(r.Arrival == cur.Arrival && a.distance(r.Port) < a.distance(cur.Port)) {
			a.best[r.Dest] = i
		}
	}
	a.grants = a.grants[:0]
	for i, r := range reqs {
		if a.best[r.Dest] == i {
			a.grants = append(a.grants, i)
		}
	}
	// Advance the pointer every slot so ties rotate fairly.
	a.rr++
	return a.grants
}

// IdleTicks advances the per-slot state Grant advances — the scratch
// epoch and the round-robin pointer — over k slots without granting
// anything. It leaves the arbiter in exactly the state k calls of
// Grant(nil, slot) would: an idle slot still rotates the tie-break
// pointer, so a simulator that skips arbitration on provably empty
// slots replays future tie-breaks bit-identically.
func (a *FCFSRR) IdleTicks(k uint64) {
	a.epoch += k
	a.rr += int(k)
}

// distance measures how far a port is ahead of the round-robin pointer.
func (a *FCFSRR) distance(port int) int {
	// Ports are small integers; normalize into a rotating order.
	const span = 1 << 16
	return ((port-a.rr)%span + span) % span
}

// Words returns the number of uint64 words in a bitset with one bit per
// port of an n-port switch.
func Words(n int) int { return (n + 63) / 64 }

// ISLIP is an iterative request-grant-accept matcher over virtual output
// queues (McKeown's iSLIP), provided as the extension arbiter. Grant and
// accept pointers rotate only on accepted grants in the first iteration,
// which is what desynchronizes the pointers and yields high throughput.
//
// Requests, unmatched ports and grants are bitsets, so each
// round-robin pick is a trailing-zero count over a rotated mask and a
// slot costs work in proportion to the requests present, not to ports².
type ISLIP struct {
	ports      int
	words      int // Words(ports)
	iterations int
	grantPtr   []int // per output
	acceptPtr  []int // per input

	// Per-call scratch, reused so matching is allocation-free.
	matchIn []int    // input -> output; Match returns it
	free    []uint64 // unmatched inputs
	outs    []uint64 // unmatched outputs that may still receive a request
	granted []uint64 // per input, the outputs that granted it (words each)
	grantee []uint64 // inputs granted in the current iteration
}

// NewISLIP builds an iSLIP arbiter for the given port count and iteration
// budget (1–4 iterations are typical).
func NewISLIP(ports, iterations int) (*ISLIP, error) {
	if ports < 1 {
		return nil, fmt.Errorf("arbiter: ports must be >= 1, got %d", ports)
	}
	if iterations < 1 {
		return nil, fmt.Errorf("arbiter: iterations must be >= 1, got %d", iterations)
	}
	w := Words(ports)
	return &ISLIP{
		ports:      ports,
		words:      w,
		iterations: iterations,
		grantPtr:   make([]int, ports),
		acceptPtr:  make([]int, ports),
		matchIn:    make([]int, ports),
		free:       make([]uint64, w),
		outs:       make([]uint64, w),
		granted:    make([]uint64, ports*w),
		grantee:    make([]uint64, w),
	}, nil
}

// Match computes a matching over the VOQ occupancy given as one request
// bitset per output: with w = Words(ports), bit i of
// request[o*w:(o+1)*w] is set when input i has a cell queued for
// output o. Bits at or above ports must be clear. The result maps
// input -> matched output, −1 when unmatched; it is reused by the next
// Match call. A request of any length other than ports·w is a
// programming error and panics.
func (s *ISLIP) Match(request []uint64) []int {
	n, w := s.ports, s.words
	if len(request) != n*w {
		panic(fmt.Sprintf("arbiter: request has %d words, want %d", len(request), n*w))
	}
	for i := range s.matchIn {
		s.matchIn[i] = -1
	}
	for k := range s.free {
		s.free[k] = ^uint64(0)
	}
	s.free[w-1] = ^uint64(0) >> (w*64 - n)
	clear(s.outs)
	for o := 0; o < n; o++ {
		for _, word := range request[o*w : (o+1)*w] {
			if word != 0 {
				s.outs[o>>6] |= 1 << (o & 63)
				break
			}
		}
	}
	for iter := 0; iter < s.iterations; iter++ {
		// Grant phase: each unmatched output grants the first requesting
		// unmatched input at or after its grant pointer.
		anyGrant := false
		for k, word := range s.outs {
			for ; word != 0; word &= word - 1 {
				o := k<<6 | bits.TrailingZeros64(word)
				i := firstFrom(request[o*w:(o+1)*w], s.free, s.grantPtr[o])
				if i < 0 {
					// Inputs only ever leave the free set, so o cannot
					// be requested again this slot.
					s.outs[k] &^= 1 << (o & 63)
					continue
				}
				s.granted[i*w+(o>>6)] |= 1 << (o & 63)
				s.grantee[i>>6] |= 1 << (i & 63)
				anyGrant = true
			}
		}
		if !anyGrant {
			// Nothing changed, so every later iteration would repeat
			// this one.
			break
		}
		// Accept phase: each granted input accepts the first granting
		// output at or after its accept pointer.
		for k, word := range s.grantee {
			for ; word != 0; word &= word - 1 {
				i := k<<6 | bits.TrailingZeros64(word)
				g := s.granted[i*w : (i+1)*w]
				o := firstFrom(g, g, s.acceptPtr[i]) // g&g: unmasked
				clear(g)
				s.matchIn[i] = o
				s.free[i>>6] &^= 1 << (i & 63)
				s.outs[o>>6] &^= 1 << (o & 63)
				if iter == 0 {
					// Pointers advance only on first-iteration accepts
					// (iSLIP's desynchronization rule).
					s.grantPtr[o] = next(i, n)
					s.acceptPtr[i] = next(o, n)
				}
			}
			s.grantee[k] = 0
		}
	}
	return s.matchIn
}

// firstFrom returns the index of the first set bit of a&b at or after
// start, wrapping past the end to bit 0, or −1 when a&b is empty.
func firstFrom(a, b []uint64, start int) int {
	k0 := start >> 6
	if m := a[k0] & b[k0] & (^uint64(0) << (start & 63)); m != 0 {
		return k0<<6 | bits.TrailingZeros64(m)
	}
	for k := k0 + 1; k < len(a); k++ {
		if m := a[k] & b[k]; m != 0 {
			return k<<6 | bits.TrailingZeros64(m)
		}
	}
	// Word k0 has no set bit at or after start, so rescanning it here
	// finds only bits before start.
	for k := 0; k <= k0; k++ {
		if m := a[k] & b[k]; m != 0 {
			return k<<6 | bits.TrailingZeros64(m)
		}
	}
	return -1
}

// next returns the port after p, wrapping at n.
func next(p, n int) int {
	if p++; p == n {
		return 0
	}
	return p
}
