package packet

import (
	"testing"

	"fabricpower/internal/rng"
)

// crossingMatches checks the cached path against the streaming one for
// a spread of held words.
func crossingMatches(t *testing.T, draws *rng.Stream, c *Cell, what string) {
	t.Helper()
	for _, last := range []uint32{0, ^uint32(0), draws.Uint32(), draws.Uint32()} {
		wantFlips, wantLast := FlipsThrough(last, c.Payload)
		for pass := 0; pass < 2; pass++ { // the second pass reads the cache
			flips, newLast := c.Crossing(last)
			if flips != wantFlips || newLast != wantLast {
				t.Fatalf("%s: Crossing(%#x) = (%d, %#x), FlipsThrough = (%d, %#x)",
					what, last, flips, newLast, wantFlips, wantLast)
			}
		}
	}
}

func TestCrossingMatchesFlipsThrough(t *testing.T) {
	s := rng.New(1)
	for _, words := range []int{1, 2, 3, 32, 64} {
		pool := NewPool(words, 0)
		for i := 0; i < 200; i++ {
			c := pool.Get()
			c.FillRandom(s)
			crossingMatches(t, s, c, "filled")
			pool.Put(c)
		}
		for i := 0; i < 50; i++ {
			// Literal cells compute the interior count on first use.
			crossingMatches(t, s, &Cell{Payload: RandomPayload(s, words)}, "literal")
		}
		crossingMatches(t, s, &Cell{Payload: AlternatingPayload(words)}, "alternating")
		crossingMatches(t, s, &Cell{Payload: ZeroPayload(words)}, "zero")
	}
	if flips, last := (&Cell{}).Crossing(7); flips != 0 || last != 7 {
		t.Fatalf("empty payload crossed as (%d, %d), want (0, 7)", flips, last)
	}
}

func TestCrossingAfterRecycle(t *testing.T) {
	s := rng.New(2)
	pool := NewPool(32, 0)
	c := pool.Get()
	c.FillRandom(s)
	c.Crossing(0)
	pool.Put(c)
	// A recycled cell whose payload is overwritten in place must not
	// keep the old cell's cached count.
	d := pool.Get()
	if d != c {
		t.Fatal("pool did not reuse the released cell")
	}
	copy(d.Payload, AlternatingPayload(32))
	crossingMatches(t, s, d, "recycled, rewritten")
	pool.Put(d)
	e := pool.Get()
	e.FillRandom(s)
	crossingMatches(t, s, e, "recycled, refilled")
}

// TestFillRandomDrawsLikeRandomPayload checks a pooled cell's fill
// against RandomPayload over a stream of the same seed: the same words,
// leaving the stream at the same position.
func TestFillRandomDrawsLikeRandomPayload(t *testing.T) {
	a, b := rng.New(3), rng.New(3)
	pool := NewPool(32, 0)
	for i := 0; i < 20; i++ {
		c := pool.Get()
		c.FillRandom(a)
		want := RandomPayload(b, 32)
		for w := range want {
			if c.Payload[w] != want[w] {
				t.Fatalf("cell %d word %d: %#x, RandomPayload drew %#x", i, w, c.Payload[w], want[w])
			}
		}
	}
	if a.Uint32() != b.Uint32() {
		t.Fatal("FillRandom and RandomPayload left the streams at different positions")
	}
}

func TestPoolRecyclesOnlyItsOwnCells(t *testing.T) {
	pool := NewPool(4, 2)
	c := pool.Get()
	if len(c.Payload) != 4 || cap(c.Payload) != 4 {
		t.Fatalf("payload len/cap = %d/%d, want 4/4", len(c.Payload), cap(c.Payload))
	}
	c.ID, c.Src, c.Dest, c.FlowID, c.Hop, c.CreatedSlot = 9, 1, 2, 3, 4, 5
	pool.Put(c)
	d := pool.Get()
	if d != c {
		t.Fatal("released cell was not reused")
	}
	if d.ID != 0 || d.Src != 0 || d.Dest != 0 || d.FlowID != 0 || d.Hop != 0 || d.CreatedSlot != 0 {
		t.Fatalf("reused cell kept state: %+v", *d)
	}
	pool.Put(&Cell{Payload: make([]uint32, 4)})
	other := NewPool(8, 0)
	pool.Put(other.Get())
	if pool.Free() != 0 {
		t.Fatalf("pool kept %d foreign cells", pool.Free())
	}
	for i := 0; i < 3; i++ {
		pool.Put(pool.Get())
		pool.Put(NewPool(4, 0).Get())
	}
	if pool.Free() > 2 {
		t.Fatalf("free list %d cells past its cap of 2", pool.Free())
	}
}

func TestPoolDoubleReleasePanics(t *testing.T) {
	pool := NewPool(4, 0)
	c := pool.Get()
	pool.Put(c)
	defer func() {
		if recover() == nil {
			t.Fatal("second release of one cell did not panic")
		}
	}()
	pool.Put(c)
}

func TestPoolTake(t *testing.T) {
	a, b := NewPool(4, 3), NewPool(4, 0)
	for i := 0; i < 5; i++ {
		b.Put(b.Get())
	}
	cells := make([]*Cell, 5)
	for i := range cells {
		cells[i] = b.Get()
	}
	for _, c := range cells {
		b.Put(c)
	}
	a.Take(b, 10)
	if a.Free() != 3 || b.Free() != 2 {
		t.Fatalf("after Take: free %d/%d, want 3/2 (cap 3)", a.Free(), b.Free())
	}
}

func TestPoolDropAndPoisonNeverReuse(t *testing.T) {
	for _, mode := range []Reuse{Drop, Poison} {
		pool := NewPool(4, 0)
		pool.SetReuse(mode)
		c := pool.Get()
		c.Src, c.Dest = 1, 2
		c.Payload[0] = 42
		pool.Put(c)
		if d := pool.Get(); d == c {
			t.Fatalf("mode %d reused a released cell", mode)
		}
		if mode == Poison && (c.Src != -1 || c.Dest != -1 || c.Payload[0] == 42) {
			t.Fatalf("poisoned cell kept its contents: %+v", *c)
		}
	}
}
