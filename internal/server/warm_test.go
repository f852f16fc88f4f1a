package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestWarmHitReportsColdMetrics asks for the same tree twice on every
// host profile: the second answer comes from the cache, and its measured
// dilation, average dilation and load must equal the cold answer's.
func TestWarmHitReportsColdMetrics(t *testing.T) {
	for _, req := range []EmbedRequest{
		{Tree: &TreeSpec{Family: "random", N: 1008, Seed: Seed(3)}, Injective: true},
		{Tree: &TreeSpec{Family: "bst", N: 600, Seed: Seed(4)}, Host: HostHypercube},
	} {
		_, ts := newTestServer(t, Config{})
		var items [2]EmbedItem
		for i := range items {
			resp, data := postJSON(t, ts.URL+"/v1/embed", req)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("host %q: status %d: %s", req.Host, resp.StatusCode, data)
			}
			items[i] = decodeEmbed(t, data).Items[0]
		}
		cold, warm := items[0], items[1]
		if cold.CacheHit || !warm.CacheHit {
			t.Fatalf("host %q: cache_hit cold=%v warm=%v, want false then true", req.Host, cold.CacheHit, warm.CacheHit)
		}
		if warm.Dilation != cold.Dilation || warm.AvgDilation != cold.AvgDilation || warm.MaxLoad != cold.MaxLoad {
			t.Errorf("host %q: warm dilation/avg/load %d/%v/%d, cold %d/%v/%d", req.Host,
				warm.Dilation, warm.AvgDilation, warm.MaxLoad, cold.Dilation, cold.AvgDilation, cold.MaxLoad)
		}
		if cold.Dilation == 0 || cold.MaxLoad == 0 {
			t.Errorf("host %q: cold item %+v carries no measurement", req.Host, cold)
		}
		if req.Injective {
			ci, wi := cold.Injective, warm.Injective
			if ci == nil || wi == nil {
				t.Fatalf("injective item missing: cold %v warm %v", ci, wi)
			}
			if *wi != *ci {
				t.Errorf("injective warm %+v, cold %+v", *wi, *ci)
			}
		}
	}
}

// warmEmbedAllocBudget caps the allocations of one warm n=1008 x-tree
// /v1/embed through the full handler stack (middleware, decode, spec
// resolve, canonical encode, cache remap, encode).  A warm request
// reuses the memoized tree and its canonical form and reports the
// metrics stored with the cache entry, so it does no per-node
// allocation: ~50 allocations, against ~1100 when every request
// generated, canonicalized and measured its tree again.  A return of
// per-node or per-edge work fails this loudly.
const warmEmbedAllocBudget = 150

// TestWarmEmbedAllocBudget holds the warm-request gain with an exact
// allocation count (testing.AllocsPerRun, no timer noise).
func TestWarmEmbedAllocBudget(t *testing.T) {
	s, _ := newTestServer(t, Config{MaxQueue: -1})
	h := s.Handler()
	const body = `{"tree":{"family":"random","n":1008,"seed":1}}`
	serve := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/embed", strings.NewReader(body)))
		return rec
	}
	if rec := serve(); rec.Code != http.StatusOK {
		t.Fatalf("cold request: status %d: %s", rec.Code, rec.Body)
	}
	if rec := serve(); !strings.Contains(rec.Body.String(), `"cache_hit":true`) {
		t.Fatalf("second request missed the cache: %s", rec.Body)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if rec := serve(); rec.Code != http.StatusOK {
			t.Fatalf("warm request: status %d", rec.Code)
		}
	})
	t.Logf("warm n=1008 x-tree /v1/embed: %.0f allocs (budget %d)", allocs, warmEmbedAllocBudget)
	if allocs > warmEmbedAllocBudget {
		t.Fatalf("warm /v1/embed allocates %.0f times, budget %d", allocs, warmEmbedAllocBudget)
	}
}
