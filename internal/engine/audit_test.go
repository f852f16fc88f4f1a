package engine

import (
	"bytes"
	"context"
	"testing"

	"xtreesim/internal/bintree"
)

// auditMetrics checks that every item carries the dilation and average
// dilation a fresh walk over its own result measures.  A cached entry's
// metrics reach isomorphic guests through remap; this is the check that
// the carried numbers are the numbers.
func auditMetrics(t *testing.T, items []BatchItem) {
	t.Helper()
	for _, it := range items {
		if it.Err != nil {
			t.Fatalf("item %d: %v", it.Index, it.Err)
		}
		dil, avg := it.Result.Embedding().EdgeStats()
		if it.Dilation != dil || it.AvgDilation != avg {
			t.Errorf("item %d (hit=%v coalesced=%v): carries dilation %d avg %v, fresh walk measures %d avg %v",
				it.Index, it.CacheHit, it.Coalesced, it.Dilation, it.AvgDilation, dil, avg)
		}
	}
}

// TestCarriedMetricsCoalesced audits the coalesced path: a herd of
// isomorphic relabelings parks on one gated compute, and every waiter's
// carried metrics must match its own remapped result.
func TestCarriedMetricsCoalesced(t *testing.T) {
	const n = 8
	gate, calls, restore := gateEmbeds(t, nil)
	defer restore()
	e := New(Config{Workers: n, CacheSize: 64})
	defer e.Close()

	base := mustGen(t, bintree.FamilyBST, 500, 5)
	trees := []*bintree.Tree{base}
	for i := 1; i < n; i++ {
		trees = append(trees, relabel(t, base, int64(i)))
	}
	done := make(chan []BatchItem)
	go func() { done <- e.EmbedBatch(context.Background(), trees) }()
	waitCounter(t, n-1, func() int64 { return e.Stats().Coalesced })
	close(gate)
	items := <-done
	if calls.Load() != 1 {
		t.Fatalf("embed compute ran %d times, want 1", calls.Load())
	}
	auditMetrics(t, items)
}

// TestCarriedMetricsWarmedFromSnapshot audits entries that never ran a
// compute in this engine: Warm measures each snapshot record, and hits
// on relabeled guests must carry exactly what a fresh walk measures.
func TestCarriedMetricsWarmedFromSnapshot(t *testing.T) {
	hot := New(Config{Workers: 2, CacheSize: 64})
	defer hot.Close()
	trees := fillCache(t, hot, 4, 300)
	var buf bytes.Buffer
	if _, err := hot.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	cold := New(Config{Workers: 2, CacheSize: 64})
	defer cold.Close()
	if ws, err := cold.Warm(&buf); err != nil || ws.Loaded != len(trees) {
		t.Fatalf("warm: %+v, %v", ws, err)
	}
	var variants []*bintree.Tree
	for i, tr := range trees {
		variants = append(variants, relabel(t, tr, int64(10+i)))
	}
	items := cold.EmbedBatch(context.Background(), variants)
	for _, it := range items {
		if !it.CacheHit {
			t.Fatalf("item %d missed the warmed cache", it.Index)
		}
	}
	if st := cold.Stats(); st.Misses != 0 {
		t.Fatalf("warmed engine computed %d times", st.Misses)
	}
	auditMetrics(t, items)
}
