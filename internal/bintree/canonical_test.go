package bintree

import (
	"math/rand"
	"sync"
	"testing"
)

// relabelTest returns an isomorphic copy of t: node v becomes perm[v] and
// every node's children are swapped (left/right flipped), so both the
// numbering and the child order differ from the original.
func relabelTest(t *testing.T, tr *Tree, perm []int32, mirror bool) *Tree {
	t.Helper()
	n := tr.N()
	parent := make([]int32, n)
	side := make([]byte, n)
	for v := int32(0); v < int32(n); v++ {
		p := tr.Parent(v)
		if p == None {
			parent[perm[v]] = None
			continue
		}
		parent[perm[v]] = perm[p]
		s := byte(0)
		if tr.Right(p) == v {
			s = 1
		}
		if mirror {
			s ^= 1
		}
		side[perm[v]] = s
	}
	out, err := NewFromParents(parent, side)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func randPerm(n int, rng *rand.Rand) []int32 {
	perm := make([]int32, n)
	for i, v := range rng.Perm(n) {
		perm[i] = int32(v)
	}
	return perm
}

func TestCanonicalAgreesOnIsomorphic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, f := range Families {
		tr, err := Generate(f, 300, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		code, _ := tr.CanonicalCode()
		hash := tr.CanonicalHash()
		for trial := 0; trial < 3; trial++ {
			iso := relabelTest(t, tr, randPerm(tr.N(), rng), trial%2 == 0)
			if c, _ := iso.CanonicalCode(); c != code {
				t.Errorf("%s: isomorphic copy has different canonical code", f)
			}
			if iso.CanonicalHash() != hash {
				t.Errorf("%s: isomorphic copy has different canonical hash", f)
			}
		}
	}
}

func TestCanonicalOrderIsIsomorphism(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr, err := Generate(FamilyRandom, 257, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	iso := relabelTest(t, tr, randPerm(tr.N(), rng), true)
	codeA, orderA := tr.CanonicalCode()
	codeB, orderB := iso.CanonicalCode()
	if codeA != codeB {
		t.Fatal("isomorphic trees disagree on canonical code")
	}
	// Map tr node -> iso node by canonical position and check that every
	// tree edge of tr maps to a tree edge of iso.
	m := make([]int32, tr.N())
	for i := range orderA {
		m[orderA[i]] = orderB[i]
	}
	adjacent := func(u *Tree, a, b int32) bool {
		return u.Parent(a) == b || u.Parent(b) == a
	}
	for v := int32(0); v < int32(tr.N()); v++ {
		if p := tr.Parent(v); p != None {
			if !adjacent(iso, m[v], m[p]) {
				t.Fatalf("edge %d-%d not preserved under canonical mapping", v, p)
			}
		}
	}
}

func TestCanonicalDistinguishesShapes(t *testing.T) {
	a := CompleteN(15)
	b := Path(15)
	ca, _ := a.CanonicalCode()
	cb, _ := b.CanonicalCode()
	if ca == cb {
		t.Error("complete tree and path share a canonical code")
	}
	if a.CanonicalHash() == b.CanonicalHash() {
		t.Error("complete tree and path share a canonical hash")
	}
}

// TestCanonicalClassCounts checks the number of canonical classes over
// all ordered shapes of n nodes against the Wedderburn–Etherington
// numbers (unordered binary trees): 1, 1, 2, 3, 6, 11, 23 for n = 1..7.
func TestCanonicalClassCounts(t *testing.T) {
	want := map[int]int{1: 1, 2: 1, 3: 2, 4: 3, 5: 6, 6: 11, 7: 23}
	for n := 1; n <= 7; n++ {
		classes := map[string]bool{}
		for _, tr := range AllShapes(n) {
			code, order := tr.CanonicalCode()
			if len(order) != n {
				t.Fatalf("n=%d: canonical order has %d nodes", n, len(order))
			}
			classes[code] = true
		}
		if len(classes) != want[n] {
			t.Errorf("n=%d: %d canonical classes, want %d", n, len(classes), want[n])
		}
	}
}

func TestCanonicalEmptyAndSingle(t *testing.T) {
	empty := &Tree{root: None}
	if code, order := empty.CanonicalCode(); code != "." || order != nil {
		t.Errorf("empty tree: code %q order %v", code, order)
	}
	single := Path(1)
	if code, _ := single.CanonicalCode(); code != "(..)" {
		t.Errorf("single node: code %q", code)
	}
}

// TestCanonicalCodeMemoConcurrent: concurrent first calls on one tree
// agree with each other and with a fresh computation on an equal tree,
// and every later call returns the stored form (same order slice).
// Run under -race it also checks the memo is published safely.
func TestCanonicalCodeMemoConcurrent(t *testing.T) {
	tr := RandomBSTShape(700, rand.New(rand.NewSource(9)))
	fresh, err := Decode(tr.Encode())
	if err != nil {
		t.Fatal(err)
	}
	wantCode, _ := fresh.CanonicalCode()
	const g = 8
	codes := make([]string, g)
	orders := make([][]int32, g)
	hashes := make([]uint64, g)
	var wg sync.WaitGroup
	for i := 0; i < g; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], orders[i] = tr.CanonicalCode()
			hashes[i] = tr.CanonicalHash()
		}(i)
	}
	wg.Wait()
	code, order := tr.CanonicalCode()
	for i := 0; i < g; i++ {
		if codes[i] != wantCode || hashes[i] != HashCode(wantCode) {
			t.Fatalf("goroutine %d: code or hash differs from a fresh computation", i)
		}
		if &orders[i][0] != &order[0] {
			t.Fatalf("goroutine %d: order is not the stored slice", i)
		}
	}
	if code != wantCode {
		t.Fatal("stored code differs from a fresh computation")
	}
}
