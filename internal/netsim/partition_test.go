package netsim

import (
	"reflect"
	"strings"
	"testing"

	"xtreesim/internal/bintree"
	"xtreesim/internal/graph"
)

// TestEdgeRankerMatchesBuildEdges pins the shared enumeration: the
// single-process loop lays its links out by EdgeRanker rank, and the rank
// every boundary message is keyed by must be the position of the edge in
// the (tail ascending, head ascending) order, or the two runners would
// disagree about FIFO apply order.  The unsorted host checks that the
// ranker sorts adjacency it did not receive sorted.
func TestEdgeRankerMatchesBuildEdges(t *testing.T) {
	unsorted := graph.New(5)
	for _, e := range [][2]int{{0, 4}, {0, 2}, {0, 1}, {3, 1}, {2, 3}} {
		unsorted.AddEdge(e[0], e[1])
	}
	hosts := map[string]*graph.Graph{
		"tree":     bintree.CompleteN(31).AsGraph(),
		"cycle":    cycleHost(),
		"path":     pathHost(9),
		"unsorted": unsorted,
	}
	for name, g := range hosts {
		var want [][2]int32
		for u := 0; u < g.N(); u++ {
			for v := 0; v < g.N(); v++ {
				if g.HasEdge(u, v) {
					want = append(want, [2]int32{int32(u), int32(v)})
				}
			}
		}
		s := &sim{host: g}
		s.buildEdges()
		if !reflect.DeepEqual(s.edges, want) {
			t.Fatalf("%s: sim edges %v, want %v", name, s.edges, want)
		}
		r := s.ranker
		if r.Count() != len(want) {
			t.Fatalf("%s: ranker counts %d edges, want %d", name, r.Count(), len(want))
		}
		for idx, e := range want {
			if got := r.Rank(e[0], e[1]); got != idx {
				t.Fatalf("%s: edge %d->%d ranked %d, want %d", name, e[0], e[1], got, idx)
			}
		}
		if r.Rank(0, 0) != -1 {
			t.Fatalf("%s: self-loop ranked", name)
		}
	}
}

// TestOversizedHostError pins the cap on table-routed hosts: a non-tree
// host over the cap with no NextHop router must get an error naming the
// cap and the escape hatch instead of the V² tables.  A tree host of the
// same size routes without tables and is not capped.
func TestOversizedHostError(t *testing.T) {
	n := MaxHostVertices + 10
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	// The path is a tree: no tables, no cap.
	if _, err := Run(Config{Host: g, Place: []int32{0, int32(n - 1)}}, &testStream{n: 1}); err != nil {
		t.Fatalf("tree host over the table cap refused: %v", err)
	}
	g.AddEdge(n-1, 0) // now a cycle, routed by tables
	_, err := Run(Config{Host: g, Place: []int32{0, 1}}, &testStream{n: 1})
	if err == nil {
		t.Fatal("no error for oversized host")
	}
	for _, want := range []string{"4096", "NextHop", "table-routed"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	// The escape hatch works: the same host with a router simulates.
	hop := func(cur, dst int32) int32 {
		if dst > cur {
			return cur + 1
		}
		return cur - 1
	}
	place := []int32{0, 42}
	if _, err := Run(Config{Host: g, Place: place, NextHop: hop}, &testStream{n: 1}); err != nil {
		t.Fatalf("NextHop escape hatch failed: %v", err)
	}
}
