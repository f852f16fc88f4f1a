package xtree

import (
	"math/rand"
	"testing"
	"testing/quick"

	"xtreesim/internal/bitstr"
)

// TestFigure1 checks X(3) against the picture in the paper: 15 vertices,
// tree edges plus horizontal chains on every level.
func TestFigure1(t *testing.T) {
	x := New(3)
	if x.NumVertices() != 15 {
		t.Fatalf("X(3) has %d vertices, want 15", x.NumVertices())
	}
	// Edge count: tree edges 2^(r+1)-2 = 14, horizontal edges sum
	// (2^j - 1) for j=1..3 = 1+3+7 = 11, total 25.
	g := x.AsGraph()
	if g.M() != 25 {
		t.Fatalf("X(3) has %d edges, want 25", g.M())
	}
	mustEdge := func(a, b string) {
		t.Helper()
		if !x.HasEdge(bitstr.MustParse(a), bitstr.MustParse(b)) {
			t.Errorf("missing edge %s -- %s", a, b)
		}
	}
	noEdge := func(a, b string) {
		t.Helper()
		if x.HasEdge(bitstr.MustParse(a), bitstr.MustParse(b)) {
			t.Errorf("unexpected edge %s -- %s", a, b)
		}
	}
	mustEdge("", "0")
	mustEdge("", "1")
	mustEdge("0", "1")
	mustEdge("01", "10") // horizontal across the middle
	mustEdge("011", "100")
	mustEdge("10", "101")
	noEdge("00", "11")
	noEdge("000", "010")
	noEdge("0", "11")
	noEdge("", "")
}

func TestNeighborsDegree(t *testing.T) {
	x := New(3)
	cases := []struct {
		v      string
		degree int
	}{
		{"", 2},    // root: two children
		{"0", 4},   // parent, sibling-successor, two children
		{"1", 4},   //
		{"00", 4},  // parent, successor, two children
		{"01", 5},  // parent, pred, succ, two children
		{"11", 4},  // parent, pred, two children (no successor)
		{"000", 2}, // leaf: parent, successor
		{"011", 3}, // leaf: parent, pred, succ
		{"111", 2}, // last leaf: parent, pred
		{"101", 3},
	}
	for _, c := range cases {
		if got := x.Degree(bitstr.MustParse(c.v)); got != c.degree {
			t.Errorf("degree(%q) = %d, want %d", c.v, got, c.degree)
		}
	}
	// Max degree of an X-tree is 5.
	g := x.AsGraph()
	if g.MaxDegree() != 5 {
		t.Errorf("X(3) max degree = %d, want 5", g.MaxDegree())
	}
}

func TestNeighborsMatchGraph(t *testing.T) {
	x := New(5)
	g := x.AsGraph()
	x.Vertices(func(a bitstr.Addr) bool {
		ns := x.Neighbors(a, nil)
		if len(ns) != g.Degree(int(a.ID())) {
			t.Errorf("degree mismatch at %v: %d vs %d", a, len(ns), g.Degree(int(a.ID())))
		}
		for _, b := range ns {
			if !g.HasEdge(int(a.ID()), int(b.ID())) {
				t.Errorf("implicit edge %v--%v missing from graph", a, b)
			}
			if !x.HasEdge(a, b) || !x.HasEdge(b, a) {
				t.Errorf("HasEdge inconsistent for %v--%v", a, b)
			}
		}
		return true
	})
}

func TestDistanceAgainstBFS(t *testing.T) {
	x := New(5)
	g := x.AsGraph()
	n := int(x.NumVertices())
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		u := bitstr.FromID(int64(r.Intn(n)))
		v := bitstr.FromID(int64(r.Intn(n)))
		want := g.Distance(int(u.ID()), int(v.ID()))
		if got := x.Distance(u, v); got != want {
			t.Fatalf("Distance(%v,%v) = %d, want %d", u, v, got, want)
		}
	}
}

func TestDistanceWithin(t *testing.T) {
	x := New(6)
	g := x.AsGraph()
	r := rand.New(rand.NewSource(12))
	n := int(x.NumVertices())
	for trial := 0; trial < 200; trial++ {
		u := bitstr.FromID(int64(r.Intn(n)))
		v := bitstr.FromID(int64(r.Intn(n)))
		radius := r.Intn(5)
		want := g.Distance(int(u.ID()), int(v.ID()))
		if want > radius {
			want = -1
		}
		if got := x.DistanceWithin(u, v, radius); got != want {
			t.Fatalf("DistanceWithin(%v,%v,%d) = %d, want %d", u, v, radius, got, want)
		}
	}
}

// bidiDistance is the bidirectional breadth-first search over the
// implicit adjacency that Distance replaced; it stays here as the oracle
// for the closed form.
func bidiDistance(x *XTree, a, b bitstr.Addr) int {
	if a == b {
		return 0
	}
	distA := map[bitstr.Addr]int{a: 0}
	distB := map[bitstr.Addr]int{b: 0}
	frontA := []bitstr.Addr{a}
	frontB := []bitstr.Addr{b}
	var buf []bitstr.Addr
	best := -1
	for len(frontA) > 0 || len(frontB) > 0 {
		// Expand the smaller frontier.
		front, dist, other := &frontA, distA, distB
		if len(frontB) > 0 && (len(frontA) == 0 || len(frontB) < len(frontA)) {
			front, dist, other = &frontB, distB, distA
		}
		var next []bitstr.Addr
		for _, u := range *front {
			du := dist[u]
			buf = x.Neighbors(u, buf[:0])
			for _, v := range buf {
				if _, seen := dist[v]; seen {
					continue
				}
				if dv, meet := other[v]; meet {
					if d := du + 1 + dv; best < 0 || d < best {
						best = d
					}
					continue
				}
				dist[v] = du + 1
				next = append(next, v)
			}
		}
		*front = next
		if best >= 0 {
			// The first meeting can overshoot by one layer; once best
			// is at most the sum of both search depths no shorter path
			// can appear.
			da, db := 0, 0
			for _, d := range distA {
				if d > da {
					da = d
				}
			}
			for _, d := range distB {
				if d > db {
					db = d
				}
			}
			if best <= da+db {
				return best
			}
		}
	}
	return best
}

// ball is the radius-bounded breadth-first search DistanceWithin used to
// run: the distance to every vertex within radius of a.  It is the oracle
// for DistanceWithin.
func ball(x *XTree, a bitstr.Addr, radius int) map[bitstr.Addr]int {
	dist := map[bitstr.Addr]int{a: 0}
	queue := []bitstr.Addr{a}
	var buf []bitstr.Addr
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		du := dist[u]
		if du >= radius {
			continue
		}
		buf = x.Neighbors(u, buf[:0])
		for _, v := range buf {
			if _, seen := dist[v]; !seen {
				dist[v] = du + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// TestDistanceExhaustive checks the closed form against both search
// oracles on every ordered pair of X(0) … X(8), and DistanceWithin at
// radii 0–4 against the bounded ball.
func TestDistanceExhaustive(t *testing.T) {
	maxR := 8
	if testing.Short() {
		maxR = 6
	}
	for r := 0; r <= maxR; r++ {
		x := New(r)
		n := x.NumVertices()
		for ia := int64(0); ia < n; ia++ {
			a := bitstr.FromID(ia)
			near := ball(x, a, 4)
			for ib := int64(0); ib < n; ib++ {
				b := bitstr.FromID(ib)
				want := bidiDistance(x, a, b)
				if got := x.Distance(a, b); got != want {
					t.Fatalf("X(%d): Distance(%v,%v) = %d, BFS %d", r, a, b, got, want)
				}
				for radius := 0; radius <= 4; radius++ {
					want, ok := near[b]
					if !ok || want > radius {
						want = -1
					}
					if got := x.DistanceWithin(a, b, radius); got != want {
						t.Fatalf("X(%d): DistanceWithin(%v,%v,%d) = %d, ball %d", r, a, b, radius, got, want)
					}
				}
			}
		}
	}
}

// TestDistanceDeepTree compares Distance with single-source BFS over the
// materialized X(16) from 32 seeded sources to every vertex, covering
// index gaps far beyond the exhaustive heights.
func TestDistanceDeepTree(t *testing.T) {
	x := New(16)
	g := x.AsGraph()
	n := x.NumVertices()
	rng := rand.New(rand.NewSource(16))
	for s := 0; s < 32; s++ {
		src := rng.Int63n(n)
		a := bitstr.FromID(src)
		for id, want := range g.BFSFrom(int(src)) {
			if got := x.Distance(a, bitstr.FromID(int64(id))); got != want {
				t.Fatalf("Distance(%v,%v) = %d, BFS %d", a, bitstr.FromID(int64(id)), got, want)
			}
		}
	}
}

// TestDistanceZeroAlloc holds the closed form allocation-free: the
// metric walk of every /v1/embed calls it once per guest edge.
func TestDistanceZeroAlloc(t *testing.T) {
	x := New(40)
	a := bitstr.MustParse("0110110011010101001101010111010101010101")
	b := bitstr.MustParse("10010110111")
	if allocs := testing.AllocsPerRun(100, func() { _ = x.Distance(a, b) }); allocs != 0 {
		t.Fatalf("Distance allocates %.0f times per call, want 0", allocs)
	}
}

// BenchmarkDistance measures one closed-form query between far-apart
// vertices of X(10).
func BenchmarkDistance(b *testing.B) {
	x := New(10)
	u := bitstr.MustParse("0000110101")
	v := bitstr.MustParse("1101")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = x.Distance(u, v)
	}
}

func TestDistanceLargeTree(t *testing.T) {
	// The implicit representation must handle heights far beyond anything
	// materializable.  Distances between a vertex and its ancestors and
	// horizontal neighbors must stay correct.
	x := New(40)
	a := bitstr.MustParse("0110110011010101001101010111010101010101")
	if d := x.Distance(a, a.Parent()); d != 1 {
		t.Errorf("parent distance = %d", d)
	}
	if d := x.Distance(a, a.Parent().Parent()); d != 2 {
		t.Errorf("grandparent distance = %d", d)
	}
	s, _ := a.Successor()
	if d := x.Distance(a, s); d != 1 {
		t.Errorf("successor distance = %d", d)
	}
	if d := x.Distance(bitstr.Root(), a); d > 40 || d < 1 {
		t.Errorf("root distance = %d", d)
	}
}

// TestFigure2NSet verifies the N(a) neighborhood properties used by
// Theorems 1 and 4: |N(a) − {a}| ≤ 20, every element lies within distance 3,
// and at most 5 vertices see a without being seen back.
func TestFigure2NSet(t *testing.T) {
	x := New(6)
	g := x.AsGraph()
	maxN, maxRevOnly := 0, 0
	x.Vertices(func(a bitstr.Addr) bool {
		ns := x.NSet(a)
		seen := map[bitstr.Addr]bool{}
		foundSelf := false
		for _, b := range ns {
			if seen[b] {
				t.Fatalf("NSet(%v) contains %v twice", a, b)
			}
			seen[b] = true
			if b == a {
				foundSelf = true
				continue
			}
			if d := g.Distance(int(a.ID()), int(b.ID())); d > 3 {
				t.Fatalf("NSet(%v) member %v at distance %d", a, b, d)
			}
			if !x.InN(a, b) {
				t.Fatalf("InN(%v,%v) = false but b in NSet", a, b)
			}
		}
		if !foundSelf {
			t.Fatalf("NSet(%v) misses a itself", a)
		}
		if len(ns)-1 > 20 {
			t.Fatalf("|NSet(%v)-{a}| = %d > 20", a, len(ns)-1)
		}
		if len(ns)-1 > maxN {
			maxN = len(ns) - 1
		}
		// Reverse-only count.
		revOnly := 0
		for _, b := range x.ReverseN(a) {
			if !x.InN(b, a) {
				t.Fatalf("ReverseN(%v) contains %v but a not in N(%v)", a, b, b)
			}
			if !x.InN(a, b) {
				revOnly++
			}
		}
		if revOnly > 5 {
			t.Fatalf("vertex %v has %d reverse-only neighbors, want <= 5", a, revOnly)
		}
		if revOnly > maxRevOnly {
			maxRevOnly = revOnly
		}
		return true
	})
	// The bounds are tight somewhere in a big enough tree.
	if maxN != 20 {
		t.Errorf("max |N(a)-{a}| = %d, want the tight 20", maxN)
	}
	if maxRevOnly != 5 {
		t.Errorf("max reverse-only = %d, want the tight 5", maxRevOnly)
	}
}

// TestNSetComplete checks NSet against a brute-force enumeration of the
// defining paths: ≤3 horizontal moves, or ≤2 downward then ≤2 horizontal.
func TestNSetComplete(t *testing.T) {
	x := New(7)
	brute := func(a bitstr.Addr) map[bitstr.Addr]bool {
		set := map[bitstr.Addr]bool{}
		// ≤ 3 horizontal.
		cur := map[bitstr.Addr]bool{a: true}
		set[a] = true
		for step := 0; step < 3; step++ {
			next := map[bitstr.Addr]bool{}
			for v := range cur {
				if p, ok := v.Predecessor(); ok {
					next[p] = true
				}
				if s, ok := v.Successor(); ok {
					next[s] = true
				}
			}
			for v := range next {
				set[v] = true
			}
			cur = next
		}
		// ≤ 2 down then ≤ 2 horizontal.
		down := map[bitstr.Addr]bool{a: true}
		for d := 0; d < 2; d++ {
			nextDown := map[bitstr.Addr]bool{}
			for v := range down {
				if v.Level < x.height {
					nextDown[v.Child(0)] = true
					nextDown[v.Child(1)] = true
				}
			}
			for v := range nextDown {
				set[v] = true
			}
			cur := nextDown
			for step := 0; step < 2; step++ {
				next := map[bitstr.Addr]bool{}
				for v := range cur {
					if p, ok := v.Predecessor(); ok {
						next[p] = true
					}
					if s, ok := v.Successor(); ok {
						next[s] = true
					}
				}
				for v := range next {
					set[v] = true
				}
				cur = next
			}
			down = nextDown
		}
		return set
	}
	r := rand.New(rand.NewSource(13))
	n := int(x.NumVertices())
	for trial := 0; trial < 100; trial++ {
		a := bitstr.FromID(int64(r.Intn(n)))
		want := brute(a)
		got := x.NSet(a)
		if len(got) != len(want) {
			t.Fatalf("NSet(%v) size %d, brute force %d", a, len(got), len(want))
		}
		for _, b := range got {
			if !want[b] {
				t.Fatalf("NSet(%v) contains %v not in brute-force set", a, b)
			}
		}
	}
}

func TestPropertyInNConsistency(t *testing.T) {
	x := New(10)
	r := rand.New(rand.NewSource(14))
	n := int(x.NumVertices())
	f := func() bool {
		a := bitstr.FromID(int64(r.Intn(n)))
		b := bitstr.FromID(int64(r.Intn(n)))
		in := x.InN(a, b)
		// Membership must match set construction.
		found := false
		for _, c := range x.NSet(a) {
			if c == b {
				found = true
				break
			}
		}
		if in != found {
			return false
		}
		// And everything in N(a) is within distance 3.
		if in && x.DistanceWithin(a, b, 3) < 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestLevelIsPath(t *testing.T) {
	// Every level of the X-tree forms a path under horizontal edges.
	x := New(8)
	for level := 1; level <= 8; level++ {
		for i := int64(0); i < int64(1)<<uint(level)-1; i++ {
			a := bitstr.Addr{Level: level, Index: uint64(i)}
			b := bitstr.Addr{Level: level, Index: uint64(i + 1)}
			if !x.HasEdge(a, b) {
				t.Fatalf("level %d not a path at index %d", level, i)
			}
		}
	}
}

func TestContains(t *testing.T) {
	x := New(4)
	if !x.Contains(bitstr.MustParse("0101")) {
		t.Error("level-4 vertex should be contained")
	}
	if x.Contains(bitstr.MustParse("01010")) {
		t.Error("level-5 vertex should not be contained")
	}
	if !x.IsLeaf(bitstr.MustParse("1111")) {
		t.Error("1111 should be a leaf of X(4)")
	}
	if x.IsLeaf(bitstr.MustParse("111")) {
		t.Error("111 should not be a leaf of X(4)")
	}
}
