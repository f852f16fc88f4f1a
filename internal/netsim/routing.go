package netsim

import (
	"fmt"

	"xtreesim/internal/graph"
)

// Routing picks how a run finds next hops when Config.NextHop is nil, from
// a property of the host alone: a tree gets an O(V) interval router, any
// other host the BFS tables of BuildNextHopTables.  Exactly one of hop and
// tables is non-nil on success.  Both runners call it, so a host routes the
// same way single-process and sharded.
//
// The tree router is exact, not an approximation: a tree has one path
// between any two vertices, so the shortest-path next hop is unique and
// every BFS table names that same neighbor.  Only table-routed hosts are
// bounded by MaxHostVertices.
func Routing(host *graph.Graph) (hop func(cur, dst int32) int32, tables [][]int32, err error) {
	if host.IsTree() {
		return newTreeRouter(host).next, nil, nil
	}
	if host.N() > MaxHostVertices {
		return nil, nil, fmt.Errorf("netsim: host has %d vertices, limit %d for table-routed (non-tree) hosts (pass a NextHop router to lift it)", host.N(), MaxHostVertices)
	}
	return nil, BuildNextHopTables(host), nil
}

// treeRouter answers next-hop queries on a tree from one DFS rooted at
// vertex 0: v's subtree is exactly the vertices whose preorder number lies
// in [tin[v], tout[v]].  A destination outside cur's subtree is reached
// through cur's parent; one inside it, through the child whose interval
// holds it.
type treeRouter struct {
	parent    []int32
	tin, tout []int32
	// kids[kidLo[v]:kidHi[v]] are v's children in DFS visiting order,
	// hence in ascending tin.
	kids         []int32
	kidLo, kidHi []int32
}

func newTreeRouter(host *graph.Graph) *treeRouter {
	n := host.N()
	t := &treeRouter{
		parent: make([]int32, n),
		tin:    make([]int32, n),
		tout:   make([]int32, n),
		kids:   make([]int32, 0, n-1),
		kidLo:  make([]int32, n),
		kidHi:  make([]int32, n),
	}
	// visit assigns v its preorder number and lays out its children
	// contiguously; they are then entered in that same order, so their
	// tin values ascend along kids.
	clock := int32(0)
	visit := func(v, parent int32) {
		t.parent[v] = parent
		t.tin[v] = clock
		clock++
		t.kidLo[v] = int32(len(t.kids))
		for _, w := range host.Neighbors(int(v)) {
			if w != parent {
				t.kids = append(t.kids, w)
			}
		}
		t.kidHi[v] = int32(len(t.kids))
	}
	visit(0, -1)
	// stack[i] is a vertex on the DFS path; next[i] the position in kids
	// of the child to enter after the current one.
	stack := []int32{0}
	next := []int32{t.kidLo[0]}
	for len(stack) > 0 {
		top := len(stack) - 1
		v := stack[top]
		if next[top] == t.kidHi[v] {
			t.tout[v] = clock - 1
			stack, next = stack[:top], next[:top]
			continue
		}
		w := t.kids[next[top]]
		next[top]++
		visit(w, v)
		stack = append(stack, w)
		next = append(next, t.kidLo[w])
	}
	return t
}

// next returns the neighbor of cur on the unique path toward dst (dst
// itself when cur == dst, as the tables do).
func (t *treeRouter) next(cur, dst int32) int32 {
	if cur == dst {
		return dst
	}
	td := t.tin[dst]
	if td < t.tin[cur] || td > t.tout[cur] {
		return t.parent[cur]
	}
	// The child holding dst is the last one entered at or before dst's
	// preorder number.
	ks := t.kids[t.kidLo[cur]:t.kidHi[cur]]
	lo, hi := 0, len(ks)
	for hi-lo > 1 {
		mid := int(uint(lo+hi) >> 1)
		if t.tin[ks[mid]] <= td {
			lo = mid
		} else {
			hi = mid
		}
	}
	return ks[lo]
}
