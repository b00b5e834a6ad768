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

import "fmt"

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

// IdleTick advances the per-slot state Grant advances — the scratch
// epoch and the round-robin pointer — without granting anything. It
// leaves the arbiter in exactly the state Grant(nil, slot) would: an
// idle slot still rotates the tie-break pointer, so a simulator that
// skips arbitration on provably empty slots replays future tie-breaks
// bit-identically.
func (a *FCFSRR) IdleTick() {
	a.epoch++
	a.rr++
}

// distance measures how far a port is ahead of the round-robin pointer.
func (a *FCFSRR) distance(port int) int {
	// Ports are small integers; normalize into a rotating order.
	const span = 1 << 16
	return ((port-a.rr)%span + span) % span
}

// ISLIP is an iterative request-grant-accept matcher over virtual output
// queues (McKeown's iSLIP), provided as the extension arbiter. Grant and
// accept pointers rotate only on accepted grants in the first iteration,
// which is what desynchronizes the pointers and yields high throughput.
type ISLIP struct {
	ports      int
	iterations int
	grantPtr   []int // per output
	acceptPtr  []int // per input

	// Per-call scratch, reused so matching is allocation-free.
	matchIn  []int // input -> output; Match returns it
	matchOut []int // output -> input
	grant    []int // output -> granted input, per iteration
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
	return &ISLIP{
		ports:      ports,
		iterations: iterations,
		grantPtr:   make([]int, ports),
		acceptPtr:  make([]int, ports),
		matchIn:    make([]int, ports),
		matchOut:   make([]int, ports),
		grant:      make([]int, ports),
	}, nil
}

// Match computes a matching over the VOQ occupancy matrix: request[i][j]
// is true when input i has a cell queued for output j. The result maps
// input -> matched output, −1 when unmatched; it is reused by the next
// Match call.
func (s *ISLIP) Match(request [][]bool) ([]int, error) {
	if len(request) != s.ports {
		return nil, fmt.Errorf("arbiter: request matrix has %d rows, want %d", len(request), s.ports)
	}
	for i, row := range request {
		if len(row) != s.ports {
			return nil, fmt.Errorf("arbiter: request row %d has %d cols, want %d", i, len(row), s.ports)
		}
	}
	n := s.ports
	matchIn, matchOut, grant := s.matchIn, s.matchOut, s.grant
	for i := range matchIn {
		matchIn[i] = -1
		matchOut[i] = -1
	}
	for iter := 0; iter < s.iterations; iter++ {
		// Grant phase: each unmatched output grants the first requesting
		// unmatched input at or after its grant pointer.
		for o := 0; o < n; o++ {
			grant[o] = -1
			if matchOut[o] != -1 {
				continue
			}
			for k, i := 0, s.grantPtr[o]; k < n; k, i = k+1, next(i, n) {
				if matchIn[i] == -1 && request[i][o] {
					grant[o] = i
					break
				}
			}
		}
		// Accept phase: each input accepts the first granting output at
		// or after its accept pointer.
		for i := 0; i < n; i++ {
			if matchIn[i] != -1 {
				continue
			}
			for k, o := 0, s.acceptPtr[i]; k < n; k, o = k+1, next(o, n) {
				if grant[o] == i {
					matchIn[i] = o
					matchOut[o] = i
					if iter == 0 {
						// Pointers advance only on first-iteration
						// accepts (iSLIP's desynchronization rule).
						s.grantPtr[o] = next(i, n)
						s.acceptPtr[i] = next(o, n)
					}
					break
				}
			}
		}
	}
	return matchIn, nil
}

// next returns the port after p, wrapping at n.
func next(p, n int) int {
	if p++; p == n {
		return 0
	}
	return p
}
