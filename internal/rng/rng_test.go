package rng_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"fabricpower/internal/packet"
	"fabricpower/internal/rng"
)

// Operations a differential program can apply. Each byte of a program
// picks an operation (low nibble) and its argument (high nibble).
const (
	opFloat64 = iota
	opUint32
	opUint64
	opInt63
	opSeed     // Stream.Seed vs Source.Seed
	opRandSeed // rand.Rand.Seed over both
	opIntn
	opExpFloat64
	opPerm
	opFill // Stream.Fill vs as many Source.Uint64 calls
	numOps
)

// edgeSeeds are the seeds math/rand's normalization treats specially:
// zero (mapped to 89482311), signs, the modulus 2³¹−1 and its
// multiples (also mapped to 89482311), its neighbors, values above 2³¹
// that wrap, and the int64 extremes.
var edgeSeeds = []int64{
	0, 1, -1, 2, -2, 42, -42, 89482311,
	1<<31 - 2, 1<<31 - 1, 1 << 31, -(1<<31 - 1), -(1 << 31),
	2 * (1<<31 - 1), 3 * (1<<31 - 1), -5 * (1<<31 - 1), (1<<31 - 1) * (1<<31 - 1),
	1<<32 + 7, 1 << 40, -(1 << 40) - 3, 1<<62 + 12345,
	math.MaxInt64, math.MaxInt64 - 1, math.MinInt64, math.MinInt64 + 1,
}

// intnArgs are the Intn bounds a program can draw: 1, powers of two
// (the masked path), odd bounds (the rejection loop) and bounds past
// 2³¹ (Int63n instead of Int31n).
var intnArgs = [16]int{1, 2, 3, 7, 16, 100, 1000, 1<<20 + 1, 1<<31 - 1, 1 << 31, 1<<31 + 1, 1<<40 + 3, 1 << 52, 1<<62 + 1, 5, 64}

// diff runs prog against a Stream and against rand.NewSource(seed), and
// describes the first draw where they differ, or returns "". Perm and
// rand.Rand.Seed, which Stream lacks, go through rand.New(stream).
func diff(seed int64, prog []byte) string {
	s := rng.New(seed)
	r := rand.New(s)
	o := rand.New(rand.NewSource(seed))
	for i, b := range prog {
		arg := int(b >> 4)
		var got, want any
		switch b & 0x0f % numOps {
		case opFloat64:
			got, want = math.Float64bits(s.Float64()), math.Float64bits(o.Float64())
		case opUint32:
			got, want = s.Uint32(), o.Uint32()
		case opUint64:
			got, want = s.Uint64(), o.Uint64()
		case opInt63:
			got, want = s.Int63(), o.Int63()
		case opSeed:
			v := edgeSeeds[arg%len(edgeSeeds)] + int64(i)
			s.Seed(v)
			o.Seed(v)
			continue
		case opRandSeed:
			v := edgeSeeds[(arg+i)%len(edgeSeeds)]
			r.Seed(v)
			o.Seed(v)
			continue
		case opIntn:
			got, want = s.Intn(intnArgs[arg]), o.Intn(intnArgs[arg])
		case opExpFloat64:
			got, want = math.Float64bits(s.ExpFloat64()), math.Float64bits(o.ExpFloat64())
		case opPerm:
			got, want = r.Perm(arg), o.Perm(arg)
		case opFill:
			// Up to 1,576 words: past both wrap points of the register.
			w := make([]uint64, 1+7*arg*arg)
			s.Fill(w)
			for j := range w {
				w[j] -= o.Uint64()
			}
			got, want = w, make([]uint64, len(w))
		}
		if !reflect.DeepEqual(got, want) {
			return fmt.Sprintf("seed %d, op %d (byte %#x): stream drew %v, math/rand %v", seed, i, b, got, want)
		}
	}
	return ""
}

// TestStreamMatchesMathRand runs thousands of seeded random programs
// and demands every draw equal math/rand's.
func TestStreamMatchesMathRand(t *testing.T) {
	meta := rand.New(rand.NewSource(20260417))
	const cases = 2400
	for c := 0; c < cases; c++ {
		var seed int64
		switch {
		case c < len(edgeSeeds):
			seed = edgeSeeds[c]
		case c%3 == 0:
			seed = edgeSeeds[meta.Intn(len(edgeSeeds))] + int64(meta.Intn(5)) - 2
		case c%3 == 1:
			seed = int64(meta.Uint64()) // full range: above 2³¹ and negative
		default:
			seed = meta.Int63n(1 << 31)
		}
		prog := make([]byte, 1+meta.Intn(300))
		meta.Read(prog)
		if msg := diff(seed, prog); msg != "" {
			t.Fatalf("case %d: %s", c, msg)
		}
	}
}

// TestStreamLongRun compares a long single-method run per seed, well
// past the register's 607-word wrap.
func TestStreamLongRun(t *testing.T) {
	for _, seed := range edgeSeeds {
		s, o := rng.New(seed), rand.New(rand.NewSource(seed))
		for i := 0; i < 5000; i++ {
			if g, w := s.Uint64(), o.Uint64(); g != w {
				t.Fatalf("seed %d draw %d: %#x, math/rand %#x", seed, i, g, w)
			}
		}
	}
}

// TestStreamPinnedValues pins the first draws of three seeds, so a
// change in the oracle itself would show too.
func TestStreamPinnedValues(t *testing.T) {
	for _, pin := range []struct {
		seed  int64
		f     float64
		u32   uint32
		i63   int64
		intn  int
		words [4]uint64
	}{
		{1, 0.6046602879796196, 4039455774, 6129484611666145821, 59,
			[4]uint64{0x4d65822107fcfd52, 0x78629a0f5f3f164f, 0xd5104dc76695721d, 0xb80704bb7b4d7c03}},
		{20021, 0.6574560905529873, 1779493768, 3783451329133622639, 18,
			[4]uint64{0xd427856bbd9485b1, 0x350875c4119f6d1e, 0xb48184f031fd356f, 0x542e45364597549f}},
		{math.MinInt64, 0.8328240056498365, 3155860137, 8748006033234207912, 78,
			[4]uint64{0x6a99fa1dcb7d7dcf, 0xde0d4d54c03bce8f, 0xf967292367e624a8, 0x70baa726beec957e}},
	} {
		s := rng.New(pin.seed)
		if f, u, i, n := s.Float64(), s.Uint32(), s.Int63(), s.Intn(100); f != pin.f || u != pin.u32 || i != pin.i63 || n != pin.intn {
			t.Errorf("seed %d: Float64, Uint32, Int63, Intn(100) = %v, %d, %d, %d; want %v, %d, %d, %d",
				pin.seed, f, u, i, n, pin.f, pin.u32, pin.i63, pin.intn)
		}
		s.Seed(pin.seed)
		for k, want := range pin.words {
			if got := s.Uint64(); got != want {
				t.Errorf("seed %d: Uint64 #%d = %#x, want %#x", pin.seed, k, got, want)
			}
		}
	}
}

// FuzzStreamMatchesMathRand searches (seed, program) space for a draw
// where the stream and math/rand part ways.
func FuzzStreamMatchesMathRand(f *testing.F) {
	f.Add(int64(1), []byte{opFloat64, opUint32, opUint64, opInt63})
	f.Add(int64(0), []byte{opIntn | 0x30, opExpFloat64, opPerm | 0xf0, opSeed | 0x20, opFloat64})
	f.Fuzz(func(t *testing.T, seed int64, prog []byte) {
		if msg := diff(seed, prog); msg != "" {
			t.Fatal(msg)
		}
	})
}

// TestFillMatchesUint64 fills runs of lengths on both sides of the
// register's wrap points (the tap wraps first after 273 words from a
// fresh seed, the feed after 334, both every 607) between single draws,
// and checks every word against a twin stream drawn by Uint64.
func TestFillMatchesUint64(t *testing.T) {
	lengths := []int{1, 2, 272, 273, 274, 60, 333, 334, 335, 606, 607, 608, 1, 1214, 2048, 5000, 0, 3}
	for _, seed := range edgeSeeds {
		s, twin := rng.New(seed), rng.New(seed)
		for i, n := range lengths {
			w := make([]uint64, n)
			s.Fill(w)
			for j, got := range w {
				if want := twin.Uint64(); got != want {
					t.Fatalf("seed %d, fill %d (%d words): word %d = %#x, Uint64 drew %#x", seed, i, n, j, got, want)
				}
			}
			if got, want := s.Uint64(), twin.Uint64(); got != want {
				t.Fatalf("seed %d: Uint64 after fill %d = %#x, twin drew %#x", seed, i, got, want)
			}
		}
	}
}

// float64Of is Float64's value for word w before its redraw test.
func float64Of(w uint64) float64 { return float64(int64(w&(1<<63-1))) / (1 << 63) }

// TestBelowBoundary checks Below(p) at its boundary for every threshold
// the built-in sources use and for random p: the word just below it
// draws a value < p, the word at it one ≥ p. The thresholds are 0, 1,
// the bursty ON→OFF probability 1/meanBurst, and the smallest per-flow
// rates at 128 hosts: a uniform matrix at 5% or 10% load over 127
// destinations, and the bursty OFF→ON probability of those rates.
func TestBelowBoundary(t *testing.T) {
	ps := []float64{0, 1, 1.0 / 10, 1.0 / 12, 1.0 / 4, 0.5, 0.3, 1e-300, math.SmallestNonzeroFloat64, math.Nextafter(1, 0)}
	for _, load := range []float64{0.05, 0.10} {
		rate := load / 127
		ps = append(ps, rate, rate/(10*(1-rate)), 1/(10*(1-rate)/rate))
	}
	meta := rand.New(rand.NewSource(38))
	for i := 0; i < 2000; i++ {
		ps = append(ps, meta.Float64(), math.Ldexp(meta.Float64(), -meta.Intn(70)))
	}
	for _, p := range ps {
		b := rng.Below(p)
		if b > 0 && float64Of(b-1) >= p {
			t.Errorf("Below(%g) = %#x: word %#x draws %g, not below p", p, b, b-1, float64Of(b-1))
		}
		if float64Of(b) < p {
			t.Errorf("Below(%g) = %#x: word %#x draws %g, below p", p, b, b, float64Of(b))
		}
	}
	keep := rng.Below(1)
	if float64Of(keep-1) >= 1 || float64Of(keep) != 1 || float64Of(1<<63-1) != 1 {
		t.Errorf("Below(1) = %#x is not where Float64's redraws start", keep)
	}
	for _, p := range []float64{-1, math.Inf(-1), math.NaN()} {
		if b := rng.Below(p); b != 0 {
			t.Errorf("Below(%g) = %#x, want 0", p, b)
		}
	}
	for _, p := range []float64{1.5, math.Inf(1)} {
		if b := rng.Below(p); b != keep {
			t.Errorf("Below(%g) = %#x, want Below(1) = %#x", p, b, keep)
		}
	}
}

// TestBelowCoinMatchesFloat64 draws the coin Float64() < p and the
// integer coin from twin streams, word for word, redraws included.
func TestBelowCoinMatchesFloat64(t *testing.T) {
	keep := rng.Below(1)
	for _, p := range []float64{0, 0.004, 0.1, 0.5, 0.9, 1} {
		s, twin := rng.New(int64(p*1000)+1), rng.New(int64(p*1000)+1)
		below := rng.Below(p)
		for i := 0; i < 100000; i++ {
			x := twin.Uint64() & (1<<63 - 1)
			for x >= keep {
				x = twin.Uint64() & (1<<63 - 1)
			}
			if got, want := x < below, s.Float64() < p; got != want {
				t.Fatalf("p %g draw %d: integer coin %v, Float64 coin %v", p, i, got, want)
			}
		}
	}
}

var (
	sinkF float64
	sinkU uint32
)

// TestStreamDrawsAllocationFree pins the draw sites at zero
// allocations: the Bernoulli coin, a payload word, a cell fill, a
// destination pick and a fault renewal time.
func TestStreamDrawsAllocationFree(t *testing.T) {
	s := rng.New(7)
	c := packet.NewPool(16, 0).Get()
	var words [700]uint64
	for name, f := range map[string]func(){
		"Float64":    func() { sinkF = s.Float64() },
		"Uint32":     func() { sinkU = s.Uint32() },
		"FillRandom": func() { c.FillRandom(s) },
		"Fill":       func() { s.Fill(words[:]) },
		"Intn":       func() { sinkN = s.Intn(100) },
		"ExpFloat64": func() { sinkF = s.ExpFloat64() },
	} {
		if a := testing.AllocsPerRun(1000, f); a != 0 {
			t.Errorf("%s: %v allocs per call, want 0", name, a)
		}
	}
}

// fillMathRand is Cell.FillRandom's loop over a *rand.Rand, the draw
// path cells used before Stream.
func fillMathRand(p []uint32, r *rand.Rand) int {
	var prev uint32
	flips := 0
	for i := range p {
		w := r.Uint32()
		if i > 0 {
			flips += packet.FlipCount(prev, w)
		}
		p[i], prev = w, w
	}
	return flips
}

var sinkN int

// BenchmarkStream is the traffic/rng rung: seeding one stream, one
// round-robin Float64 coin over 992 flow streams (as net-lowload's
// bursty flows draw every slot), and one 16-word payload fill, each
// through math/rand and through Stream.
func BenchmarkStream(b *testing.B) {
	b.Run("seed/mathrand", func(b *testing.B) {
		src := rand.NewSource(1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			src.Seed(int64(i))
		}
	})
	b.Run("seed/stream", func(b *testing.B) {
		s := rng.New(1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Seed(int64(i))
		}
	})
	const streams = 992
	b.Run(fmt.Sprintf("float64/streams=%d/mathrand", streams), func(b *testing.B) {
		rs := make([]*rand.Rand, streams)
		for i := range rs {
			rs[i] = rand.New(rand.NewSource(int64(i)))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, r := range rs {
				sinkF = r.Float64()
			}
		}
	})
	b.Run(fmt.Sprintf("float64/streams=%d/stream", streams), func(b *testing.B) {
		ss := make([]*rng.Stream, streams)
		for i := range ss {
			ss[i] = rng.New(int64(i))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, s := range ss {
				sinkF = s.Float64()
			}
		}
	})
	const words = 16
	b.Run(fmt.Sprintf("fill/words=%d/mathrand", words), func(b *testing.B) {
		r := rand.New(rand.NewSource(1))
		p := make([]uint32, words)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkN = fillMathRand(p, r)
		}
	})
	b.Run(fmt.Sprintf("fill/words=%d/stream", words), func(b *testing.B) {
		s := rng.New(1)
		c := packet.NewPool(words, 0).Get()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.FillRandom(s)
		}
	})
}
