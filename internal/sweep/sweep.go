// Package sweep is the deterministic parallel point scheduler behind the
// evaluation sweeps: it fans the independent (architecture × ports × load)
// operating points of a figure or study out across worker goroutines while
// guaranteeing results identical to a sequential run.
//
// Two properties make the parallelism invisible to the experiments:
//
//   - Results are written into a slice indexed by point position, so the
//     output order never depends on goroutine scheduling.
//   - Every point derives its traffic seed from its own coordinates
//     (PointSeed), never from a shared RNG stream, so the cells one point
//     sees do not depend on which other points ran, or in what order.
//
// Together they give the sweep invariant the tests assert: for any worker
// count, a sweep produces byte-identical results.
package sweep

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"fabricpower/internal/telemetry/trace"
)

// DefaultWorkers returns the worker count used when a sweep does not pin
// one: every available core.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// PointSeed derives the deterministic traffic seed for one operating
// point by mixing the point's coordinates into the experiment base seed
// (FNV-1a over the ports and the load bits). Distinct (ports, load)
// points get well-separated streams — unlike additive schemes, nearby
// loads cannot collide — while the architecture is deliberately excluded:
// the paper compares all four architectures under the same traffic
// (§5.2), so every architecture at one (ports, load) point must see an
// identical cell stream.
func PointSeed(base int64, ports int, load float64) int64 {
	h := mix(fnvOffset64, uint64(base))
	h = mix(h, uint64(ports))
	return int64(mix(h, math.Float64bits(load)))
}

// NetworkSeed is PointSeed for a network point: it mixes the topology
// name, node count and load into the base seed — but not the routing
// or DPM policy, so every (routing, policy) pair at one point is
// compared under the identical offered cell sequence.
func NetworkSeed(base int64, topo string, nodes int, load float64) int64 {
	h := mix(fnvOffset64, uint64(base))
	for _, b := range []byte(topo) {
		h ^= uint64(b)
		h *= fnvPrime64
	}
	h = mix(h, uint64(nodes))
	return int64(mix(h, math.Float64bits(load)))
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// mix folds v's eight bytes, low byte first, into the FNV-1a hash h.
func mix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	return h
}

// Map evaluates fn over every item on up to workers goroutines and
// returns the results in item order. workers <= 0 means DefaultWorkers;
// workers == 1 runs inline with no goroutines (the sequential baseline
// the benchmarks compare against). fn must be safe for concurrent use
// when workers > 1; for any worker count the result slice is identical
// as long as fn(worker, i, item) is a pure function of i and item.
// worker is 0 for a sequential run and otherwise identifies which of
// the pool's goroutines evaluated the point; it exists for
// observability (progress events attribute points to workers), and fn
// must not let it influence its result.
//
// Cancellation is checked between points: in-flight points finish, no
// new point starts once ctx is done, and the returned done slice marks
// exactly the points whose results are valid — the partial sweep
// survives intact. When ctx is cancelled the error is ctx's. The first
// failing point (by item index among the items that ran) aborts the
// sweep the same way, and its error, wrapped with its item index, wins
// over a concurrent cancellation. The results and done slices are
// always returned (sized to items), even alongside a non-nil error.
//
// A panic inside fn is recovered and treated as that point's error —
// one broken grid point aborts the sweep with an error naming the
// point instead of crashing the whole study.
//
// A non-nil rec profiles the sweep: each pool worker gets one timeline
// row ("sweep worker N") carrying a "wait" span for the gap since its
// previous point (scheduling queue wait; the run-up to the first point
// for a fresh worker) and a "point" span per evaluated point, tagged
// with the point index — so a grid run's idle tails and stragglers are
// visible in Perfetto. A nil rec installs no profiling closure at all.
func Map[T, R any](ctx context.Context, workers int, items []T, fn func(worker, i int, item T) (R, error), rec *trace.Recorder) ([]R, []bool, error) {
	if fn == nil {
		return nil, nil, fmt.Errorf("sweep: fn is required")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	n := len(items)
	if n == 0 {
		return nil, nil, ctx.Err()
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	results := make([]R, n)
	done := make([]bool, n)
	// call shields the sweep from a panicking point: the panic value
	// becomes the point's error, carrying the index like any other
	// failure, and the sweep aborts cleanly instead of unwinding
	// through (or worse, killing) the worker pool.
	call := func(worker, i int, item T) (r R, err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("panic: %v", p)
			}
		}()
		return fn(worker, i, item)
	}
	if rec != nil {
		// One track per worker, registered up front so even a worker
		// the work-stealing loop starves still gets its (empty) row.
		// Each lasts[w] cell is written only by worker w's goroutine,
		// like the track itself.
		tracks := make([]*trace.Track, workers)
		lasts := make([]int64, workers)
		for w := range tracks {
			tracks[w] = rec.Track(0, fmt.Sprintf("sweep worker %d", w))
			lasts[w] = rec.Now()
		}
		inner := call
		call = func(worker, i int, item T) (R, error) {
			tk := tracks[worker]
			start := rec.Now()
			tk.Emit("wait", lasts[worker], start)
			r, err := inner(worker, i, item)
			end := rec.Now()
			tk.EmitArg("point", start, end, int64(i))
			lasts[worker] = end
			return r, err
		}
	}
	if workers == 1 {
		for i, item := range items {
			if err := ctx.Err(); err != nil {
				return results, done, err
			}
			r, err := call(0, i, item)
			if err != nil {
				return results, done, fmt.Errorf("sweep: point %d: %w", i, err)
			}
			results[i] = r
			done[i] = true
		}
		return results, done, nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() || ctx.Err() != nil {
					return
				}
				r, err := call(w, i, items[i])
				if err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
				results[i] = r
				done[i] = true
			}
		}(w)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return results, done, fmt.Errorf("sweep: point %d: %w", i, err)
		}
	}
	return results, done, ctx.Err()
}
