package metrics

import (
	"math/rand"
	"testing"

	"xtreesim/internal/bintree"
)

// lineHost is a host with O(1) distances (vertices on a line), so the
// parallel-vs-sequential comparison is not drowned in BFS time.
type lineHost struct{ n int64 }

func (h lineHost) NumVertices() int64 { return h.n }
func (h lineHost) Distance(u, v int64) int {
	if u > v {
		u, v = v, u
	}
	return int(v - u)
}

func TestDilationParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	// The size the fan-out used to start at, plus some.
	n := 1<<14 + 500
	guest := bintree.RandomAttachment(n, rng)
	m := make([]int64, n)
	for i := range m {
		m[i] = int64(rng.Intn(n))
	}
	e := &Embedding{Guest: guest, Host: lineHost{int64(n)}, Map: m}
	seq := e.Dilation()
	par := e.DilationParallel()
	if seq != par {
		t.Fatalf("parallel dilation %d != sequential %d", par, seq)
	}
	small := &Embedding{Guest: bintree.Path(4), Host: hostPath(4), Map: []int64{0, 1, 2, 3}}
	if small.DilationParallel() != small.Dilation() {
		t.Error("small-instance mismatch")
	}
}
