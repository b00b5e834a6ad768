package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (0 for no
// samples). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(q*float64(len(s)) + 0.999999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// geoMeanOfMedians is the geometric mean of each group's median,
// skipping empty groups. The served corpus mixes six specs of very
// different cost in equal shares, so a pooled median sits in the gap
// between the third- and fourth-fastest specs and jumps between them
// from run to run; each spec's own median repeats.
func geoMeanOfMedians(groups [][]float64) float64 {
	logSum, n := 0.0, 0
	for _, g := range groups {
		if m := median(g); m > 0 {
			logSum += math.Log(m)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// tailQ is the quantile request_ms_p95 reports for n samples: the 95th
// percentile once at least ten samples lie beyond it (n >= 200), else
// the highest percentile that still has ten beyond it, never below the
// median. A 95th percentile of twenty studies is the slowest one and
// does not repeat from run to run.
func tailQ(n int) float64 {
	q := 1 - 10/float64(max(n, 1))
	return min(0.95, max(0.5, q))
}

func tailNote(n int) string {
	return fmt.Sprintf("p%.0f of n=%d studies (nearest rank; %d beyond it)", 100*tailQ(n), n, n-int(tailQ(n)*float64(n)+0.999999999))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// peakRSSMiB reads the process's peak resident set (getrusage maxrss,
// which Linux reports in KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// userHZ is the unit of /proc/stat's CPU times (USER_HZ, 100 on every
// Linux architecture Go supports).
const userHZ = 100

// hostSteal reads the time the hypervisor ran something else while
// this machine's CPUs wanted to run, summed over all CPUs (the steal
// column of /proc/stat). It is 0 on bare metal and where unreadable.
func hostSteal() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := bytes.Fields(line)
	if len(f) < 9 || string(f[0]) != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseUint(string(f[8]), 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * time.Second / userHZ
}

// unstolenShare is the share of a timed region of length wall that the
// host did not steal: 1 − steal ÷ (CPUs × wall), where steal is the
// steal-time delta over the region summed over all CPUs. On a shared
// virtual machine the hypervisor takes a varying share of every vCPU
// as neighbours come and go; timed metrics are scaled by this share so
// they read as the machine would run them unstolen, and the raw wall
// times are printed beside them. It is 1 when nothing was stolen.
func unstolenShare(wall, steal time.Duration) float64 {
	if wall <= 0 || steal <= 0 {
		return 1
	}
	return max(0.05, 1-float64(steal)/(float64(runtime.NumCPU())*float64(wall)))
}

// rssWindow is the window over which peak_rss_mb takes each peak.
const rssWindow = 250 * time.Millisecond

// rssWindows tracks the peak resident set over a timed region in
// fixed windows: at the end of each window it reads the kernel's
// high-water mark (VmHWM) and resets it (clear_refs 5). The median of
// the window peaks is the metric, so one late GC cycle moves one
// window instead of the whole run's peak.
type rssWindows struct {
	stop, done chan struct{}
	peaks      []float64
}

func startRSSWindows() *rssWindows {
	w := &rssWindows{stop: make(chan struct{}), done: make(chan struct{})}
	if !resetHWM() {
		close(w.done)
		return w
	}
	go func() {
		defer close(w.done)
		tick := time.NewTicker(rssWindow)
		defer tick.Stop()
		for {
			select {
			case <-w.stop:
				w.take()
				return
			case <-tick.C:
				w.take()
			}
		}
	}()
	return w
}

func (w *rssWindows) take() {
	if mib, ok := readHWM(); ok {
		w.peaks = append(w.peaks, mib)
	}
	resetHWM()
}

// finish stops the sampler and returns the median window peak in MiB,
// or the process's lifetime peak (getrusage maxrss) where the kernel
// offers no resettable high-water mark.
func (w *rssWindows) finish() (mib float64, windows int) {
	select {
	case <-w.done:
	default:
		close(w.stop)
		<-w.done
	}
	if len(w.peaks) == 0 {
		return peakRSSMiB(), 0
	}
	return median(w.peaks), len(w.peaks)
}

func resetHWM() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// readHWM reads VmHWM from /proc/self/status, in MiB.
func readHWM() (float64, bool) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, false
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		if v, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			f := bytes.Fields(v)
			if len(f) == 0 {
				return 0, false
			}
			kb, err := strconv.ParseFloat(string(f[0]), 64)
			return kb / 1024, err == nil
		}
	}
	return 0, false
}

// rtSnap is one reading of the Go runtime's cumulative counters.
type rtSnap struct {
	allocs   uint64  // heap objects allocated
	gcCycles uint64  // completed GC cycles
	gcCPU    float64 // CPU seconds spent in GC
	totalCPU float64 // CPU seconds available to the process
}

var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtSnap {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	return rtSnap{allocs: u(0), gcCycles: u(1), gcCPU: f(2), totalCPU: f(3)}
}

// sub returns the counter-wise difference r - start.
func (r rtSnap) sub(start rtSnap) rtSnap {
	return rtSnap{
		allocs:   r.allocs - start.allocs,
		gcCycles: r.gcCycles - start.gcCycles,
		gcCPU:    r.gcCPU - start.gcCPU,
		totalCPU: r.totalCPU - start.totalCPU,
	}
}

// clockCost estimates the cost of one time.Now/time.Since pair, which
// per-call timings subtract so short calls are not inflated by the
// clock reads around them.
func clockCost() time.Duration {
	const n = 20000
	var samples []float64
	for rep := 0; rep < 5; rep++ {
		start := time.Now()
		var sink time.Duration
		for i := 0; i < n; i++ {
			t := time.Now()
			sink += time.Since(t)
		}
		_ = sink
		samples = append(samples, float64(time.Since(start))/n)
	}
	return time.Duration(median(samples))
}
