package server

import (
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"xtreesim/internal/metrics"
)

// TestEscapeLabelValue pins the exposition-format escaping rules: the
// spec escapes exactly backslash, double quote and newline in label
// values; every other byte — tabs, control characters, UTF-8 — passes
// through verbatim.
func TestEscapeLabelValue(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want string
	}{
		{"plain", "/v1/simulate", "/v1/simulate"},
		{"backslash", `c:\temp`, `c:\\temp`},
		{"quote", `say "hi"`, `say \"hi\"`},
		{"newline", "line1\nline2", `line1\nline2`},
		{"all three", "\\\"\n", `\\\"\n`},
		{"backslash before quote", `\"`, `\\\"`},
		{"tab untouched", "a\tb", "a\tb"},
		{"utf8 untouched", "λx→x", "λx→x"},
		{"carriage return untouched", "a\rb", "a\rb"},
		{"empty", "", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := escapeLabelValue(tc.in); got != tc.want {
				t.Errorf("escapeLabelValue(%q) = %q, want %q", tc.in, got, tc.want)
			}
		})
	}
}

// TestWriteHistogramOrdering asserts the series layout the text format
// mandates: cumulative _bucket lines with le="+Inf" last, then _sum,
// then _count — labeled and unlabeled.
func TestWriteHistogramOrdering(t *testing.T) {
	h := metrics.NewHistogram(1e-6, 10, 10)
	for _, v := range []float64{0.0001, 0.002, 0.002, 0.5, 3} {
		h.Observe(v)
	}
	for _, labels := range []string{"", `phase="embed.separator"`} {
		var b strings.Builder
		writeHistogram(&b, "m", labels, h)
		lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
		if len(lines) < 3 {
			t.Fatalf("labels=%q: %d lines", labels, len(lines))
		}
		nb := len(lines) - 2
		var prev uint64
		for i, ln := range lines[:nb] {
			if !strings.HasPrefix(ln, "m_bucket{") {
				t.Fatalf("labels=%q line %d: want _bucket, got %q", labels, i, ln)
			}
			if labels != "" && !strings.Contains(ln, labels+",") {
				t.Fatalf("labels=%q missing from bucket line %q", labels, ln)
			}
			cnt, err := strconv.ParseUint(ln[strings.LastIndexByte(ln, ' ')+1:], 10, 64)
			if err != nil {
				t.Fatalf("parse %q: %v", ln, err)
			}
			if cnt < prev {
				t.Fatalf("bucket counts not cumulative: %q after %d", ln, prev)
			}
			prev = cnt
		}
		if !strings.Contains(lines[nb-1], `le="+Inf"`) {
			t.Fatalf("labels=%q: last bucket is %q, want le=\"+Inf\"", labels, lines[nb-1])
		}
		if !strings.Contains(lines[nb-1], " 5") {
			t.Fatalf("labels=%q: +Inf bucket %q should count all 5 observations", labels, lines[nb-1])
		}
		if !strings.HasPrefix(lines[nb], "m_sum") {
			t.Fatalf("labels=%q: want _sum after buckets, got %q", labels, lines[nb])
		}
		if !strings.HasPrefix(lines[nb+1], "m_count") || !strings.HasSuffix(lines[nb+1], " 5") {
			t.Fatalf("labels=%q: want _count 5 last, got %q", labels, lines[nb+1])
		}
	}
}

// TestBoundViolationCounter feeds one crafted item that breaks Theorem 1's
// dilation bound, next to conforming x-tree and hypercube items, and
// reads the counters and the per-host dilation and max-load histograms
// back from /metrics: exactly the thm1_dilation series moves.
func TestBoundViolationCounter(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.embeds.observe(EmbedItem{Host: HostXTree, Dilation: 4, MaxLoad: 16})
	s.embeds.observe(EmbedItem{Host: HostXTree, Dilation: 3, MaxLoad: 16})
	s.embeds.observe(EmbedItem{Host: HostHypercube, Dilation: 4, MaxLoad: 16})
	s.embeds.observe(EmbedItem{Error: "embed failed"})

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(data)
	for _, want := range []string{
		`xtreesim_bound_violations_total{claim="thm1_dilation"} 1`,
		`xtreesim_bound_violations_total{claim="thm1_load"} 0`,
		`xtreesim_bound_violations_total{claim="thm3_dilation"} 0`,
		`xtreesim_bound_violations_total{claim="thm3_load"} 0`,
		`xtreesim_embed_dilation_bucket{host="xtree",le="2"} 0`,
		`xtreesim_embed_dilation_bucket{host="xtree",le="3"} 1`,
		`xtreesim_embed_dilation_bucket{host="xtree",le="4"} 2`,
		`xtreesim_embed_dilation_bucket{host="xtree",le="+Inf"} 2`,
		`xtreesim_embed_dilation_sum{host="xtree"} 7`,
		`xtreesim_embed_dilation_count{host="xtree"} 2`,
		`xtreesim_embed_dilation_bucket{host="hypercube",le="4"} 1`,
		`xtreesim_embed_dilation_count{host="hypercube"} 1`,
		`xtreesim_embed_max_load_bucket{host="xtree",le="15"} 0`,
		`xtreesim_embed_max_load_bucket{host="xtree",le="16"} 2`,
		`xtreesim_embed_max_load_bucket{host="xtree",le="+Inf"} 2`,
		`xtreesim_embed_max_load_sum{host="xtree"} 32`,
		`xtreesim_embed_max_load_count{host="xtree"} 2`,
		`xtreesim_embed_max_load_count{host="hypercube"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if strings.Contains(text, `host="universal"`) {
		t.Error("histogram rendered a host that served nothing")
	}
}
