package metrics

import (
	"math/rand"
	"testing"

	"xtreesim/internal/bintree"
	"xtreesim/internal/graph"
	"xtreesim/internal/hypercube"
	"xtreesim/internal/xtree"
)

// hostPath returns a path host with n vertices.
func hostPath(n int) GraphHost {
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return GraphHost{g}
}

func TestIdentityEmbedding(t *testing.T) {
	guest := bintree.Path(5)
	e := &Embedding{Guest: guest, Host: hostPath(5), Map: []int64{0, 1, 2, 3, 4}}
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	if d := e.Dilation(); d != 1 {
		t.Errorf("dilation = %d", d)
	}
	if l := e.MaxLoad(); l != 1 {
		t.Errorf("load = %d", l)
	}
	if !e.IsInjective() {
		t.Error("identity not injective")
	}
	if x := e.Expansion(); x != 1 {
		t.Errorf("expansion = %v", x)
	}
	if a := e.AverageDilation(); a != 1 {
		t.Errorf("avg dilation = %v", a)
	}
}

func TestStretchedEmbedding(t *testing.T) {
	guest := bintree.Path(3)
	// Map 0->0, 1->4, 2->2 on a 6-path: edges stretch 4 and 2.
	e := &Embedding{Guest: guest, Host: hostPath(6), Map: []int64{0, 4, 2}}
	if d := e.Dilation(); d != 4 {
		t.Errorf("dilation = %d, want 4", d)
	}
	h := e.DilationHistogram()
	if h[4] != 1 || h[2] != 1 {
		t.Errorf("histogram = %v", h)
	}
	if a := e.AverageDilation(); a != 3 {
		t.Errorf("avg = %v", a)
	}
	if e.Expansion() != 2 {
		t.Errorf("expansion = %v", e.Expansion())
	}
}

func TestLoads(t *testing.T) {
	guest := bintree.Path(6)
	e := &Embedding{Guest: guest, Host: hostPath(3), Map: []int64{0, 0, 1, 1, 1, 2}}
	if l := e.MaxLoad(); l != 3 {
		t.Errorf("load = %d", l)
	}
	if e.IsInjective() {
		t.Error("non-injective reported injective")
	}
	hist := e.LoadHistogram()
	if len(hist) != 3 || hist[0] != 1 || hist[2] != 3 {
		t.Errorf("load histogram = %v", hist)
	}
	loads := e.Loads()
	if loads[1] != 3 || loads[0] != 2 || loads[2] != 1 {
		t.Errorf("loads = %v", loads)
	}
}

func TestValidateErrors(t *testing.T) {
	guest := bintree.Path(3)
	e := &Embedding{Guest: guest, Host: hostPath(3), Map: []int64{0, 1}}
	if err := e.Validate(); err == nil {
		t.Error("short map accepted")
	}
	e.Map = []int64{0, 1, 7}
	if err := e.Validate(); err == nil {
		t.Error("out-of-range vertex accepted")
	}
	e.Map = []int64{0, 1, -1}
	if err := e.Validate(); err == nil {
		t.Error("negative vertex accepted")
	}
}

func TestSummarize(t *testing.T) {
	guest := bintree.Path(4)
	e := &Embedding{Guest: guest, Host: hostPath(8), Map: []int64{0, 1, 2, 3}}
	r := e.Summarize()
	if r.GuestN != 4 || r.HostN != 8 || r.Dilation != 1 || r.MaxLoad != 1 || !r.Injective {
		t.Errorf("report = %+v", r)
	}
	if r.Expansion != 2 {
		t.Errorf("expansion = %v", r.Expansion)
	}
	if r.String() == "" {
		t.Error("empty string rendering")
	}
}

func TestEdgeCongestion(t *testing.T) {
	// Star host: center 0, leaves 1..4.  Guest path 1-2-3-4 mapped to the
	// leaves routes every edge through the center.
	g := graph.New(5)
	for i := 1; i <= 4; i++ {
		g.AddEdge(0, i)
	}
	guest := bintree.Path(4)
	e := &Embedding{Guest: guest, Host: GraphHost{g}, Map: []int64{1, 2, 3, 4}}
	max, mean := EdgeCongestion(e, g)
	// Edges (1,2),(2,3),(3,4) each cross two star edges; host edge (0,2)
	// and (0,3) carry 2 each.
	if max != 2 {
		t.Errorf("max congestion = %d, want 2", max)
	}
	if mean != 6.0/4.0 {
		t.Errorf("mean congestion = %v", mean)
	}
}

// TestEdgeStatsMatchesSeparateWalks pins the one-walk EdgeStats to the
// separate Dilation and AverageDilation walks on every host kind the
// server reports: x-tree, hypercube, and a materialized graph.
func TestEdgeStatsMatchesSeparateWalks(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	hosts := []Host{
		XTreeHost{xtree.New(6)},
		HypercubeHost{hypercube.New(7)},
		GraphHost{xtree.New(4).AsGraph()},
		hostPath(1),
	}
	for _, h := range hosts {
		for _, n := range []int{1, 2, 50, 600} {
			guest := bintree.RandomAttachment(n, rng)
			m := make([]int64, n)
			for i := range m {
				m[i] = rng.Int63n(h.NumVertices())
			}
			e := &Embedding{Guest: guest, Host: h, Map: m}
			dil, avg := e.EdgeStats()
			if want := e.Dilation(); dil != want {
				t.Errorf("%T n=%d: EdgeStats dilation %d, Dilation %d", h, n, dil, want)
			}
			if want := e.AverageDilation(); avg != want {
				t.Errorf("%T n=%d: EdgeStats avg %v, AverageDilation %v", h, n, avg, want)
			}
			if rep := e.Summarize(); rep.Dilation != dil || rep.AvgDil != avg {
				t.Errorf("%T n=%d: Summarize %d/%v, EdgeStats %d/%v", h, n, rep.Dilation, rep.AvgDil, dil, avg)
			}
		}
	}
}
