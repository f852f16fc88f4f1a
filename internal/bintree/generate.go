package bintree

import (
	"fmt"
	"math/rand"
)

// Family names a guest-tree family used in the experiment sweeps.
type Family string

// The tree families exercised by the benchmarks.  "random" is the
// random-attachment model (a new node picks a uniformly random free child
// slot), "bst" is the shape of a binary search tree built from a random
// permutation, "caterpillar" is a spine with alternating leaves, "broom" is
// a long handle ending in a complete brush, and "zigzag" alternates
// left/right single children with occasional leaves.
const (
	FamilyComplete    Family = "complete"
	FamilyPath        Family = "path"
	FamilyRandom      Family = "random"
	FamilyBST         Family = "bst"
	FamilyCaterpillar Family = "caterpillar"
	FamilyBroom       Family = "broom"
	FamilyZigzag      Family = "zigzag"
)

// Families lists every generator family in a stable order.
var Families = []Family{
	FamilyComplete, FamilyPath, FamilyRandom, FamilyBST,
	FamilyCaterpillar, FamilyBroom, FamilyZigzag,
}

// Randomized reports whether the family draws from an rng: the shape of
// every other family is a function of n alone.
func (f Family) Randomized() bool { return f == FamilyRandom || f == FamilyBST }

// Generate builds an n-node tree of the given family.  rng is only used by
// the randomized families and may be nil for the deterministic ones.
func Generate(f Family, n int, rng *rand.Rand) (*Tree, error) {
	if n < 0 {
		return nil, fmt.Errorf("bintree: negative size %d", n)
	}
	switch f {
	case FamilyComplete:
		return CompleteN(n), nil
	case FamilyPath:
		return Path(n), nil
	case FamilyRandom:
		if rng == nil {
			return nil, fmt.Errorf("bintree: family %q needs an rng", f)
		}
		return RandomAttachment(n, rng), nil
	case FamilyBST:
		if rng == nil {
			return nil, fmt.Errorf("bintree: family %q needs an rng", f)
		}
		return RandomBSTShape(n, rng), nil
	case FamilyCaterpillar:
		return Caterpillar(n), nil
	case FamilyBroom:
		return Broom(n), nil
	case FamilyZigzag:
		return Zigzag(n), nil
	default:
		return nil, fmt.Errorf("bintree: unknown family %q", f)
	}
}

// Complete returns the complete binary tree of the given height
// (2^(height+1) − 1 nodes), numbered in heap order.
func Complete(height int) *Tree {
	if height < 0 {
		return mustTree(nil, nil)
	}
	n := 1<<(height+1) - 1
	return CompleteN(n)
}

// CompleteN returns the "left-complete" binary tree on n nodes: the shape of
// a binary heap, numbered in heap order (node v has children 2v+1, 2v+2).
func CompleteN(n int) *Tree {
	parent := make([]int32, n)
	side := make([]byte, n)
	for v := 0; v < n; v++ {
		if v == 0 {
			parent[v] = None
			continue
		}
		parent[v] = int32((v - 1) / 2)
		side[v] = byte((v - 1) % 2)
	}
	return mustTree(parent, side)
}

// Path returns the path on n nodes: every node has a single left child.
func Path(n int) *Tree {
	parent := make([]int32, n)
	for v := 0; v < n; v++ {
		parent[v] = int32(v) - 1
	}
	return mustTree(parent, nil)
}

// Zigzag returns a path that alternates between left and right children.
func Zigzag(n int) *Tree {
	parent := make([]int32, n)
	side := make([]byte, n)
	for v := 0; v < n; v++ {
		parent[v] = int32(v) - 1
		side[v] = byte(v % 2)
	}
	return mustTree(parent, side)
}

// Caterpillar returns a spine of ⌈n/2⌉ nodes with a leaf hanging off each
// spine node (as long as nodes remain).
func Caterpillar(n int) *Tree {
	parent := make([]int32, n)
	side := make([]byte, n)
	spineLen := (n + 1) / 2
	for i := 0; i < spineLen; i++ {
		v := 2 * i
		if i == 0 {
			parent[v] = None
		} else {
			parent[v] = int32(2 * (i - 1))
		}
		side[v] = 0
		leaf := v + 1
		if leaf < n {
			parent[leaf] = int32(v)
			side[leaf] = 1
		}
	}
	return mustTree(parent, side)
}

// Broom returns a handle of ⌈n/2⌉ path nodes whose end carries a
// left-complete brush with the remaining nodes.
func Broom(n int) *Tree {
	if n == 0 {
		return mustTree(nil, nil)
	}
	handle := (n + 1) / 2
	parent := make([]int32, n)
	side := make([]byte, n)
	for v := 0; v < handle; v++ {
		parent[v] = int32(v) - 1
	}
	// Brush nodes handle..n-1 form a heap rooted at the handle's end.
	for v := handle; v < n; v++ {
		k := v - handle // heap index within the brush
		if k == 0 {
			parent[v] = int32(handle - 1)
			side[v] = 0
			continue
		}
		parent[v] = int32(handle + (k-1)/2)
		side[v] = byte((k - 1) % 2)
	}
	return mustTree(parent, side)
}

// RandomAttachment returns a random n-node binary tree grown by repeatedly
// attaching a new node to a uniformly random free child slot.
func RandomAttachment(n int, rng *rand.Rand) *Tree {
	parent := make([]int32, n)
	side := make([]byte, n)
	if n == 0 {
		return mustTree(nil, nil)
	}
	parent[0] = None
	type slot struct {
		node int32
		side byte
	}
	slots := []slot{{0, 0}, {0, 1}}
	for v := 1; v < n; v++ {
		i := rng.Intn(len(slots))
		s := slots[i]
		slots[i] = slots[len(slots)-1]
		slots = slots[:len(slots)-1]
		parent[v] = s.node
		side[v] = s.side
		slots = append(slots, slot{int32(v), 0}, slot{int32(v), 1})
	}
	return mustTree(parent, side)
}

// RandomBSTShape returns the shape of a binary search tree built by
// inserting a uniformly random permutation of n keys.
func RandomBSTShape(n int, rng *rand.Rand) *Tree {
	parent := make([]int32, n)
	side := make([]byte, n)
	if n == 0 {
		return mustTree(nil, nil)
	}
	perm := rng.Perm(n)
	// node ids are insertion order; keys are perm values.
	type nd struct{ left, right int32 }
	nodes := make([]nd, n)
	for i := range nodes {
		nodes[i] = nd{None, None}
	}
	key := make([]int, n)
	key[0] = perm[0]
	parent[0] = None
	for v := 1; v < n; v++ {
		k := perm[v]
		key[v] = k
		cur := int32(0)
		for {
			if k < key[cur] {
				if nodes[cur].left == None {
					nodes[cur].left = int32(v)
					parent[v] = cur
					side[v] = 0
					break
				}
				cur = nodes[cur].left
			} else {
				if nodes[cur].right == None {
					nodes[cur].right = int32(v)
					parent[v] = cur
					side[v] = 1
					break
				}
				cur = nodes[cur].right
			}
		}
	}
	return mustTree(parent, side)
}

func mustTree(parent []int32, side []byte) *Tree {
	t, err := NewFromParents(parent, side)
	if err != nil {
		panic("bintree: generator produced invalid tree: " + err.Error())
	}
	return t
}
