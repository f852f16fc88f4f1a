package server

// specmemo.go remembers the trees that deterministic generator specs
// produce.  A family spec with an explicit seed, or of a family that
// draws no random numbers, names exactly one tree, so a repeated request
// can reuse the tree the first one built instead of generating it again.
// Reusing the *bintree.Tree also reuses its memoized canonical form
// (bintree.Tree.CanonicalCode), so such a request reaches the engine
// already keyed.  Trees are immutable, which is what makes sharing one
// between concurrent requests sound.
//
// The memo holds trees, not embeddings: every request still goes
// through the engine, whose cache stays the only embedding cache and
// whose hit/miss/coalesced counters keep their meaning.

import (
	"sync"

	"xtreesim/internal/bintree"
)

// specMemoNodes bounds the memo by the total node count of the trees it
// holds; beyond it the oldest trees are dropped first.
const specMemoNodes = 1 << 20

// specKey identifies a deterministic generator spec.  seed is 0 for the
// families that ignore it.
type specKey struct {
	family bintree.Family
	n      int
	seed   int64
}

// specMemo is a FIFO map from specKey to the generated tree, bounded by
// specMemoNodes.  It is safe for concurrent use.
type specMemo struct {
	mu    sync.Mutex
	trees map[specKey]*bintree.Tree
	fifo  []specKey // insertion order, oldest first
	nodes int       // Σ N() over trees
}

func newSpecMemo() *specMemo {
	return &specMemo{trees: make(map[specKey]*bintree.Tree)}
}

// get returns the tree stored for k, or nil.
func (m *specMemo) get(k specKey) *bintree.Tree {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.trees[k]
}

// put stores t for k, dropping the oldest trees until the budget holds,
// and returns the tree stored for k: t, or the tree a concurrent put
// stored first, so every caller of one spec shares one tree.  A tree
// larger than the whole budget is not stored.
func (m *specMemo) put(k specKey, t *bintree.Tree) *bintree.Tree {
	m.mu.Lock()
	defer m.mu.Unlock()
	if old := m.trees[k]; old != nil {
		return old
	}
	if t.N() > specMemoNodes {
		return t
	}
	for m.nodes+t.N() > specMemoNodes {
		oldest := m.fifo[0]
		m.fifo = m.fifo[1:]
		m.nodes -= m.trees[oldest].N()
		delete(m.trees, oldest)
	}
	m.trees[k] = t
	m.fifo = append(m.fifo, k)
	m.nodes += t.N()
	return t
}
