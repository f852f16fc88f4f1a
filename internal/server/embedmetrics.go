package server

// embedmetrics.go accumulates the series that answer "are the paper's
// bounds holding on live traffic": per-host histograms of the measured
// dilation and maximum load of every served embedding, and one violation
// counter per bound claim.  All are fed from the item the handler has
// already measured, so they cost no extra distance queries.

import (
	"fmt"
	"strings"
	"sync"
)

// maxDilationBucket is the largest dilation with its own histogram
// bucket; larger values land only in +Inf.  It covers every bound the
// server reports against (Theorem 2's injective dilation is ≤ 11).
const maxDilationBucket = 12

// maxLoadBucket is the largest load with its own histogram bucket: the
// load bound of Theorems 1 and 3.
const maxLoadBucket = 16

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

// intHistogram counts small non-negative integer observations:
// counts[v] for v up to its top bucket, the last slot everything above.
type intHistogram struct {
	counts []int64
	sum    int64
}

func newIntHistogram(top int) *intHistogram {
	return &intHistogram{counts: make([]int64, top+2)}
}

func (h *intHistogram) add(v int) {
	h.counts[min(v, len(h.counts)-1)]++
	h.sum += int64(v)
}

// render writes the histogram's series for one host.
func (h *intHistogram) render(b *strings.Builder, name, host string) {
	var cum, total int64
	for _, c := range h.counts {
		total += c
	}
	for v := 0; v < len(h.counts)-1; v++ {
		cum += h.counts[v]
		fmt.Fprintf(b, "%s_bucket{host=\"%s\",le=\"%d\"} %d\n", name, host, v, cum)
	}
	fmt.Fprintf(b, "%s_bucket{host=\"%s\",le=\"+Inf\"} %d\n", name, host, total)
	fmt.Fprintf(b, "%s_sum{host=\"%s\"} %d\n", name, host, h.sum)
	fmt.Fprintf(b, "%s_count{host=\"%s\"} %d\n", name, host, total)
}

// hostEmbeds is one host's pair of histograms.
type hostEmbeds struct {
	dilation, maxLoad *intHistogram
}

// embedMetrics is the mutable state behind the xtreesim_embed_dilation,
// xtreesim_embed_max_load and xtreesim_bound_violations_total families.
type embedMetrics struct {
	mu         sync.Mutex
	hosts      map[string]*hostEmbeds
	violations [len(boundClaims)]int64 // parallel to boundClaims
}

func newEmbedMetrics() *embedMetrics {
	return &embedMetrics{hosts: make(map[string]*hostEmbeds)}
}

// observe folds one top-level item into the histograms and the bound
// counters.  Items that failed before measurement carry no host and are
// skipped.
func (m *embedMetrics) observe(it EmbedItem) {
	if it.Host == "" {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.hosts[it.Host]
	if h == nil {
		h = &hostEmbeds{dilation: newIntHistogram(maxDilationBucket), maxLoad: newIntHistogram(maxLoadBucket)}
		m.hosts[it.Host] = h
	}
	h.dilation.add(it.Dilation)
	h.maxLoad.add(it.MaxLoad)
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

// render writes every family in the Prometheus text format, hosts in
// lexical order so the output is stable.
func (m *embedMetrics) render(b *strings.Builder) {
	m.mu.Lock()
	defer m.mu.Unlock()
	hosts := []string{HostHypercube, HostUniversal, HostXTree}
	writeHelp(b, "xtreesim_embed_dilation", "histogram", "Measured dilation of every served embedding, by host.")
	for _, host := range hosts {
		if h := m.hosts[host]; h != nil {
			h.dilation.render(b, "xtreesim_embed_dilation", host)
		}
	}
	writeHelp(b, "xtreesim_embed_max_load", "histogram", "Maximum load of every served embedding, by host.")
	for _, host := range hosts {
		if h := m.hosts[host]; h != nil {
			h.maxLoad.render(b, "xtreesim_embed_max_load", host)
		}
	}
	writeHelp(b, "xtreesim_bound_violations_total", "counter",
		"Served embeddings whose measured dilation or load exceeds a bound of the paper, by claim.")
	for i, c := range boundClaims {
		fmt.Fprintf(b, "xtreesim_bound_violations_total{claim=\"%s\"} %d\n", c.name, m.violations[i])
	}
}
