package arbiter

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestFCFSRRGrantsOnePerDest(t *testing.T) {
	a := NewFCFSRR(8)
	reqs := []Request{
		{Port: 0, Dest: 3, Arrival: 10},
		{Port: 1, Dest: 3, Arrival: 5},
		{Port: 2, Dest: 7, Arrival: 20},
	}
	grants := a.Grant(reqs, 100)
	if len(grants) != 2 {
		t.Fatalf("grants = %d, want 2", len(grants))
	}
	granted := map[int]bool{}
	for _, g := range grants {
		granted[g] = true
	}
	if !granted[1] {
		t.Error("oldest request (port 1, arrival 5) must win dest 3")
	}
	if !granted[2] {
		t.Error("uncontested request must be granted")
	}
}

func TestFCFSRRTieBreakRotates(t *testing.T) {
	// Two requests with identical arrivals: the winner should not always
	// be the same port across slots.
	wins := map[int]int{}
	a := NewFCFSRR(2)
	for slot := uint64(0); slot < 10; slot++ {
		reqs := []Request{
			{Port: 0, Dest: 1, Arrival: slot},
			{Port: 1, Dest: 1, Arrival: slot},
		}
		g := a.Grant(reqs, slot)
		if len(g) != 1 {
			t.Fatalf("want exactly 1 grant, got %d", len(g))
		}
		wins[reqs[g[0]].Port]++
	}
	if len(wins) < 2 {
		t.Fatalf("round robin should rotate winners, got %v", wins)
	}
}

func TestFCFSRREmpty(t *testing.T) {
	a := NewFCFSRR(4)
	if g := a.Grant(nil, 0); len(g) != 0 {
		t.Fatal("no requests, no grants")
	}
}

// TestFCFSRRIdleTicksMatchesEmptyGrants pins that IdleTicks(k) leaves
// the arbiter exactly where k empty Grant calls do, so a skipped idle
// stretch replays every later tie-break.
func TestFCFSRRIdleTicksMatchesEmptyGrants(t *testing.T) {
	for _, k := range []uint64{0, 1, 5, 70000} {
		ticked, granted := NewFCFSRR(3), NewFCFSRR(3)
		ticked.IdleTicks(k)
		for i := uint64(0); i < k; i++ {
			granted.Grant(nil, i)
		}
		if ticked.rr != granted.rr {
			t.Fatalf("k=%d: IdleTicks left rr %d, empty grants %d", k, ticked.rr, granted.rr)
		}
		reqs := []Request{{Port: 0, Dest: 1}, {Port: 1, Dest: 1}, {Port: 2, Dest: 1}}
		if a, b := ticked.Grant(reqs, k), granted.Grant(reqs, k); a[0] != b[0] {
			t.Fatalf("k=%d: tie-break after IdleTicks grants %d, after empty grants %d", k, a[0], b[0])
		}
	}
}

// Property: FCFSRR grants are conflict-free (unique dests, unique ports)
// and always include every uncontested destination.
func TestFCFSRRProperty(t *testing.T) {
	f := func(seed int64, nQ uint8) bool {
		n := int(nQ%16) + 1
		a := NewFCFSRR(16)
		reqs := make([]Request, n)
		for i := range reqs {
			reqs[i] = Request{
				Port:    i,
				Dest:    int(seed+int64(i*7)) % 8 & 7,
				Arrival: uint64((seed + int64(i*13)) % 50 & 63),
			}
		}
		grants := a.Grant(reqs, 0)
		dests := map[int]bool{}
		ports := map[int]bool{}
		for _, g := range grants {
			r := reqs[g]
			if dests[r.Dest] || ports[r.Port] {
				return false
			}
			dests[r.Dest] = true
			ports[r.Port] = true
		}
		// Every requested destination must receive exactly one grant.
		want := map[int]bool{}
		for _, r := range reqs {
			want[r.Dest] = true
		}
		return len(grants) == len(want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// columns packs a request matrix (request[i][o]: input i has a cell for
// output o) into Match's per-output bitset columns.
func columns(request [][]bool) []uint64 {
	n := len(request)
	w := Words(n)
	cols := make([]uint64, n*w)
	for i, row := range request {
		for o, r := range row {
			if r {
				cols[o*w+(i>>6)] |= 1 << (i & 63)
			}
		}
	}
	return cols
}

func TestISLIPValidation(t *testing.T) {
	if _, err := NewISLIP(0, 1); err == nil {
		t.Error("0 ports should fail")
	}
	if _, err := NewISLIP(4, 0); err == nil {
		t.Error("0 iterations should fail")
	}
	s, err := NewISLIP(65, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, words := range []int{0, 65, 65*2 - 1, 65*2 + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("a %d-word request should panic", words)
				}
			}()
			s.Match(make([]uint64, words))
		}()
	}
}

func fullMatrix(n int) [][]bool {
	m := make([][]bool, n)
	for i := range m {
		m[i] = make([]bool, n)
		for j := range m[i] {
			m[i][j] = true
		}
	}
	return m
}

func TestISLIPFullLoadPerfectMatch(t *testing.T) {
	s, err := NewISLIP(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Under all-to-all requests iSLIP should find a perfect matching
	// once pointers desynchronize; check after a few slots.
	var match []int
	for slot := 0; slot < 8; slot++ {
		match = s.Match(columns(fullMatrix(4)))
	}
	matched := 0
	seen := map[int]bool{}
	for _, o := range match {
		if o >= 0 {
			matched++
			if seen[o] {
				t.Fatal("output matched twice")
			}
			seen[o] = true
		}
	}
	if matched != 4 {
		t.Fatalf("desynchronized iSLIP should match all 4, got %d", matched)
	}
}

func TestISLIPEmptyRequests(t *testing.T) {
	s, _ := NewISLIP(4, 2)
	for p := range s.grantPtr {
		s.grantPtr[p], s.acceptPtr[p] = p, 3-p
	}
	for _, o := range s.Match(make([]uint64, 4)) {
		if o != -1 {
			t.Fatal("no requests, no matches")
		}
	}
	if !slices.Equal(s.grantPtr, []int{0, 1, 2, 3}) || !slices.Equal(s.acceptPtr, []int{3, 2, 1, 0}) {
		t.Fatalf("an empty match moved the pointers: %v/%v", s.grantPtr, s.acceptPtr)
	}
}

// Property: iSLIP matchings are always conflict-free and only match
// requested pairs.
func TestISLIPMatchingProperty(t *testing.T) {
	f := func(seed int64) bool {
		n := 8
		s, err := NewISLIP(n, 2)
		if err != nil {
			return false
		}
		rngState := seed
		next := func() int64 {
			rngState = rngState*6364136223846793005 + 1442695040888963407
			return rngState
		}
		req := make([][]bool, n)
		for i := range req {
			req[i] = make([]bool, n)
			for j := range req[i] {
				req[i][j] = next()&3 == 0
			}
		}
		match := s.Match(columns(req))
		outSeen := map[int]bool{}
		for i, o := range match {
			if o == -1 {
				continue
			}
			if !req[i][o] || outSeen[o] {
				return false
			}
			outSeen[o] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// oracleISLIP is the allocating, modulo-wrapping iSLIP the scratch-reusing
// Match replaced, kept verbatim as the differential oracle.
type oracleISLIP struct {
	ports, iterations   int
	grantPtr, acceptPtr []int
}

func (s *oracleISLIP) match(request [][]bool) []int {
	matchIn := make([]int, s.ports)  // input -> output
	matchOut := make([]int, s.ports) // output -> input
	for i := range matchIn {
		matchIn[i] = -1
		matchOut[i] = -1
	}
	for iter := 0; iter < s.iterations; iter++ {
		grant := make([]int, s.ports) // output -> granted input
		for o := 0; o < s.ports; o++ {
			grant[o] = -1
			if matchOut[o] != -1 {
				continue
			}
			for k := 0; k < s.ports; k++ {
				i := (s.grantPtr[o] + k) % s.ports
				if matchIn[i] == -1 && request[i][o] {
					grant[o] = i
					break
				}
			}
		}
		for i := 0; i < s.ports; i++ {
			if matchIn[i] != -1 {
				continue
			}
			for k := 0; k < s.ports; k++ {
				o := (s.acceptPtr[i] + k) % s.ports
				if grant[o] == i {
					matchIn[i] = o
					matchOut[o] = i
					if iter == 0 {
						s.grantPtr[o] = (i + 1) % s.ports
						s.acceptPtr[i] = (o + 1) % s.ports
					}
					break
				}
			}
		}
	}
	return matchIn
}

// TestISLIPMatchesOracle drives Match and the oracle through the same
// random request matrices from random pointer states, slot after slot,
// and demands identical matches and identical pointer evolution. Port
// counts straddle the 64-bit word boundaries of the bitset form, and
// every count runs empty, full and random-density requests.
func TestISLIPMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sizes := []int{1, 2, 63, 64, 65, 127, 128, 129, 130}
	for len(sizes) < 40 {
		sizes = append(sizes, 1+rng.Intn(130))
	}
	for _, n := range sizes {
		for _, density := range []float64{0, 1, rng.Float64()} {
			iters := 1 + rng.Intn(4)
			s, err := NewISLIP(n, iters)
			if err != nil {
				t.Fatal(err)
			}
			for p := 0; p < n; p++ {
				s.grantPtr[p], s.acceptPtr[p] = rng.Intn(n), rng.Intn(n)
			}
			o := &oracleISLIP{ports: n, iterations: iters,
				grantPtr: slices.Clone(s.grantPtr), acceptPtr: slices.Clone(s.acceptPtr)}
			req := make([][]bool, n)
			for i := range req {
				req[i] = make([]bool, n)
			}
			for slot := 0; slot < 12; slot++ {
				for i := range req {
					for j := range req[i] {
						req[i][j] = rng.Float64() < density
					}
				}
				got := s.Match(columns(req))
				want := o.match(req)
				if !slices.Equal(got, want) || !slices.Equal(s.grantPtr, o.grantPtr) || !slices.Equal(s.acceptPtr, o.acceptPtr) {
					t.Fatalf("n=%d iters=%d density=%.2f slot %d: match %v ptrs %v/%v, oracle %v ptrs %v/%v",
						n, iters, density, slot, got, s.grantPtr, s.acceptPtr, want, o.grantPtr, o.acceptPtr)
				}
			}
		}
	}
}

func TestISLIPMatchAllocationFree(t *testing.T) {
	for _, n := range []int{16, 128} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			s, err := NewISLIP(n, 2)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(2))
			req := make([][]bool, n)
			for i := range req {
				req[i] = make([]bool, n)
				for j := range req[i] {
					req[i][j] = rng.Intn(2) == 0
				}
			}
			cols := columns(req)
			if allocs := testing.AllocsPerRun(200, func() { s.Match(cols) }); allocs != 0 {
				t.Fatalf("Match allocates %.1f times per call, want 0", allocs)
			}
		})
	}
}
