package server

// embedmetrics.go accumulates the series that answer "are the paper's
// bounds holding on live traffic": a per-host histogram of the measured
// dilation of every served embedding, and one violation counter per
// bound claim.  Both are fed from the item the handler has already
// measured, so they cost no extra distance queries.

import (
	"fmt"
	"strings"
	"sync"
)

// maxDilationBucket is the largest dilation with its own histogram
// bucket; larger values land only in +Inf.  It covers every bound the
// server reports against (Theorem 2's injective dilation is ≤ 11).
const maxDilationBucket = 12

// boundClaim is one of the paper's bounds checked on every served item.
type boundClaim struct {
	name    string // the claim label on xtreesim_bound_violations_total
	host    string
	load    bool // the bound is on max load rather than dilation
	maximum int
}

// boundClaims lists Theorem 1 (X-tree: dilation 3, load 16) and Theorem 3
// (hypercube: dilation 4, load 16).
var boundClaims = [...]boundClaim{
	{"thm1_dilation", HostXTree, false, 3},
	{"thm1_load", HostXTree, true, 16},
	{"thm3_dilation", HostHypercube, false, 4},
	{"thm3_load", HostHypercube, true, 16},
}

// dilationCounts holds one host's histogram: counts[d] items measured at
// dilation d, the last slot everything above maxDilationBucket.
type dilationCounts struct {
	counts [maxDilationBucket + 2]int64
	sum    int64
}

// embedMetrics is the mutable state behind the xtreesim_embed_dilation
// and xtreesim_bound_violations_total families.
type embedMetrics struct {
	mu         sync.Mutex
	dilation   map[string]*dilationCounts // by host
	violations [len(boundClaims)]int64    // parallel to boundClaims
}

func newEmbedMetrics() *embedMetrics {
	return &embedMetrics{dilation: make(map[string]*dilationCounts)}
}

// observe folds one top-level item into the histogram and the bound
// counters.  Items that failed before measurement carry no host and are
// skipped.
func (m *embedMetrics) observe(it EmbedItem) {
	if it.Host == "" {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.dilation[it.Host]
	if h == nil {
		h = &dilationCounts{}
		m.dilation[it.Host] = h
	}
	h.counts[min(it.Dilation, maxDilationBucket+1)]++
	h.sum += int64(it.Dilation)
	for i, c := range boundClaims {
		v := it.Dilation
		if c.load {
			v = it.MaxLoad
		}
		if it.Host == c.host && v > c.maximum {
			m.violations[i]++
		}
	}
}

// render writes both families in the Prometheus text format, hosts in
// lexical order so the output is stable.
func (m *embedMetrics) render(b *strings.Builder) {
	m.mu.Lock()
	defer m.mu.Unlock()
	writeHelp(b, "xtreesim_embed_dilation", "histogram", "Measured dilation of every served embedding, by host.")
	for _, host := range []string{HostHypercube, HostUniversal, HostXTree} {
		h := m.dilation[host]
		if h == nil {
			continue
		}
		var cum, total int64
		for _, c := range h.counts {
			total += c
		}
		for d := 0; d <= maxDilationBucket; d++ {
			cum += h.counts[d]
			fmt.Fprintf(b, "xtreesim_embed_dilation_bucket{host=\"%s\",le=\"%d\"} %d\n", host, d, cum)
		}
		fmt.Fprintf(b, "xtreesim_embed_dilation_bucket{host=\"%s\",le=\"+Inf\"} %d\n", host, total)
		fmt.Fprintf(b, "xtreesim_embed_dilation_sum{host=\"%s\"} %d\n", host, h.sum)
		fmt.Fprintf(b, "xtreesim_embed_dilation_count{host=\"%s\"} %d\n", host, total)
	}
	writeHelp(b, "xtreesim_bound_violations_total", "counter",
		"Served embeddings whose measured dilation or load exceeds a bound of the paper, by claim.")
	for i, c := range boundClaims {
		fmt.Fprintf(b, "xtreesim_bound_violations_total{claim=\"%s\"} %d\n", c.name, m.violations[i])
	}
}
