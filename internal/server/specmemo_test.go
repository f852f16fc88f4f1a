package server

import (
	"context"
	"math/rand"
	"net/http"
	"sync"
	"testing"

	"xtreesim/internal/bintree"
)

// TestSpecMemoSharesTree: a deterministic spec resolves to one shared
// tree — an explicit seed, and a deterministic family whatever its seed
// field says.
func TestSpecMemoSharesTree(t *testing.T) {
	memo := newSpecMemo()
	for _, pair := range [][2]TreeSpec{
		{{Family: "random", N: 300, Seed: Seed(7)}, {Family: "random", N: 300, Seed: Seed(7)}},
		{{Family: "bst", N: 300, Seed: Seed(0)}, {Family: "bst", N: 300, Seed: Seed(0)}},
		{{Family: "complete", N: 300}, {Family: "complete", N: 300}},
		{{Family: "path", N: 300, Seed: Seed(1)}, {Family: "path", N: 300, Seed: Seed(2)}},
	} {
		a, err := pair[0].resolve(10000, memo)
		if err != nil {
			t.Fatal(err)
		}
		b, err := pair[1].resolve(10000, memo)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("%+v: two resolves built two trees", pair[0])
		}
	}
	seven, err := (&TreeSpec{Family: "random", N: 300, Seed: Seed(7)}).resolve(10000, memo)
	if err != nil {
		t.Fatal(err)
	}
	eight, err := (&TreeSpec{Family: "random", N: 300, Seed: Seed(8)}).resolve(10000, memo)
	if err != nil {
		t.Fatal(err)
	}
	if seven == eight || seven.Encode() == eight.Encode() {
		t.Error("seeds 7 and 8 resolved to one tree")
	}
}

// TestSpecMemoSkipsUnseededAndEncoded: specs that do not name one tree
// (seed omitted on a randomized family) and encoded specs are never
// stored.
func TestSpecMemoSkipsUnseededAndEncoded(t *testing.T) {
	memo := newSpecMemo()
	for _, spec := range []TreeSpec{
		{Family: "random", N: 200},
		{Family: "bst", N: 200},
		{Encoded: bintree.CompleteN(15).Encode()},
	} {
		if _, err := spec.resolve(10000, memo); err != nil {
			t.Fatal(err)
		}
	}
	if len(memo.trees) != 0 || len(memo.fifo) != 0 || memo.nodes != 0 {
		t.Fatalf("memo stored %d trees (%d nodes), want none", len(memo.trees), memo.nodes)
	}
}

// TestSpecMemoBudget overfills the memo: it stays within specMemoNodes,
// drops the oldest trees first, keeps its bookkeeping consistent, and
// does not store a tree larger than the whole budget.
func TestSpecMemoBudget(t *testing.T) {
	memo := newSpecMemo()
	tr := bintree.Path(100000)
	const puts = 25 // 2.5M nodes offered against a 1M budget
	for i := 0; i < puts; i++ {
		memo.put(specKey{bintree.FamilyRandom, tr.N(), int64(i)}, tr)
		if memo.nodes > specMemoNodes {
			t.Fatalf("after %d puts the memo holds %d nodes, budget %d", i+1, memo.nodes, specMemoNodes)
		}
	}
	sum := 0
	for _, k := range memo.fifo {
		sum += memo.trees[k].N()
	}
	if len(memo.fifo) != len(memo.trees) || sum != memo.nodes {
		t.Fatalf("bookkeeping: %d fifo keys, %d trees, %d nodes counted, %d summed",
			len(memo.fifo), len(memo.trees), memo.nodes, sum)
	}
	if memo.get(specKey{bintree.FamilyRandom, tr.N(), puts - 1}) == nil {
		t.Error("the newest tree was evicted")
	}
	if memo.get(specKey{bintree.FamilyRandom, tr.N(), 0}) != nil {
		t.Error("the oldest tree survived the overfill")
	}

	huge := bintree.Path(specMemoNodes + 1)
	if got := memo.put(specKey{bintree.FamilyPath, huge.N(), 0}, huge); got != huge {
		t.Error("put of an oversized tree did not return it")
	}
	if memo.get(specKey{bintree.FamilyPath, huge.N(), 0}) != nil || memo.nodes > specMemoNodes {
		t.Error("a tree larger than the budget was stored")
	}
}

// TestSpecMemoConcurrent resolves one spec and canonicalizes the result
// from many goroutines at once (run it under -race): every goroutine
// gets the same tree and the same canonical form, equal to a fresh
// generation's.
func TestSpecMemoConcurrent(t *testing.T) {
	memo := newSpecMemo()
	spec := TreeSpec{Family: "random", N: 1008, Seed: Seed(11)}
	fresh, err := spec.resolve(10000, newSpecMemo())
	if err != nil {
		t.Fatal(err)
	}
	wantCode, wantOrder := fresh.CanonicalCode()
	const g = 8
	trees := make([]*bintree.Tree, g)
	codes := make([]string, g)
	orders := make([][]int32, g)
	var wg sync.WaitGroup
	for i := 0; i < g; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr, err := spec.resolve(10000, memo)
			if err != nil {
				t.Error(err)
				return
			}
			trees[i] = tr
			codes[i], orders[i] = tr.CanonicalCode()
		}(i)
	}
	wg.Wait()
	for i := 0; i < g; i++ {
		if trees[i] != trees[0] {
			t.Fatalf("goroutine %d resolved a different tree", i)
		}
		if codes[i] != wantCode || len(orders[i]) != len(wantOrder) {
			t.Fatalf("goroutine %d: canonical form differs from a fresh generation", i)
		}
		for j := range wantOrder {
			if orders[i][j] != wantOrder[j] {
				t.Fatalf("goroutine %d: canonical order differs at %d", i, j)
			}
		}
	}
}

// isoVariant returns an isomorphic copy of tr: the children of about
// half the nodes trade sides and every node is renumbered.
func isoVariant(t *testing.T, tr *bintree.Tree, rng *rand.Rand) *bintree.Tree {
	t.Helper()
	n := tr.N()
	perm := rng.Perm(n)
	swap := make([]bool, n)
	for v := range swap {
		swap[v] = rng.Intn(2) == 0
	}
	parent := make([]int32, n)
	side := make([]byte, n)
	for v := int32(0); v < int32(n); v++ {
		p := tr.Parent(v)
		if p == bintree.None {
			parent[perm[v]] = bintree.None
			continue
		}
		parent[perm[v]] = int32(perm[p])
		if tr.Right(p) == v {
			side[perm[v]] = 1
		}
		if swap[p] {
			side[perm[v]] ^= 1
		}
	}
	out, err := bintree.NewFromParents(parent, side)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCachedMetricsAudit is the audit of the metric cache: a cache may
// make an answer faster but must never change it.  Each seeded tree is
// embedded cold; then isomorphic variants arrive as encoded specs.  Every
// variant must be a cache hit whose wire dilation and average dilation
// equal a fresh EdgeStats walk over its own remapped result.
func TestCachedMetricsAudit(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	eng := s.pool.engineFor(profile{})
	rng := rand.New(rand.NewSource(3))
	for _, spec := range []TreeSpec{
		{Family: "random", N: 1008, Seed: Seed(1)},
		{Family: "bst", N: 700, Seed: Seed(2)},
	} {
		resp, data := postJSON(t, ts.URL+"/v1/embed", EmbedRequest{Tree: &spec})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("cold %+v: status %d: %s", spec, resp.StatusCode, data)
		}
		if decodeEmbed(t, data).Items[0].CacheHit {
			t.Fatalf("cold %+v: reported a cache hit", spec)
		}
		orig, err := spec.resolve(10000, s.specs)
		if err != nil {
			t.Fatal(err)
		}
		var specs []TreeSpec
		var variants []*bintree.Tree
		for i := 0; i < 6; i++ {
			enc := isoVariant(t, orig, rng).Encode()
			if enc == orig.Encode() {
				t.Fatal("variant kept the original's encoding")
			}
			v, err := bintree.Decode(enc)
			if err != nil {
				t.Fatal(err)
			}
			specs = append(specs, TreeSpec{Encoded: enc})
			variants = append(variants, v)
		}
		resp, data = postJSON(t, ts.URL+"/v1/embed", EmbedRequest{Trees: specs})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("variants of %+v: status %d: %s", spec, resp.StatusCode, data)
		}
		wire := decodeEmbed(t, data).Items
		for i, bi := range eng.EmbedBatch(context.Background(), variants) {
			if bi.Err != nil {
				t.Fatal(bi.Err)
			}
			dil, avg := bi.Result.Embedding().EdgeStats()
			it := wire[i]
			if !it.CacheHit || !bi.CacheHit {
				t.Errorf("variant %d of %+v: cache_hit wire=%v engine=%v, want hits", i, spec, it.CacheHit, bi.CacheHit)
			}
			if it.Dilation != dil || it.AvgDilation != avg {
				t.Errorf("variant %d of %+v: wire dilation %d avg %v, fresh walk %d avg %v",
					i, spec, it.Dilation, it.AvgDilation, dil, avg)
			}
		}
	}
}
