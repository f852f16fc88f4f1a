package main

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"math"
	"net/http"
	"os"
	"strings"
	"testing"

	"xtreesim/internal/server"
)

// sequence returns the request bytes a run would send: set-up, cache
// fill, and the first timed requests of two rounds.
func sequence(t *testing.T, name string, seed int64) [][]byte {
	t.Helper()
	w, err := buildWorkload(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for _, r := range w.warm {
		out = append(out, []byte(r.path), r.body)
	}
	if w.fill != nil {
		for k := 0; k < 16; k++ {
			out = append(out, w.fill(k).body)
		}
	}
	for _, first := range []int{0, roundStride} {
		for i := 0; i < 64; i++ {
			r := w.at(first + i)
			out = append(out, []byte(r.path), r.body)
		}
	}
	return out
}

func TestSeedFixesRequestBytes(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			a, b := sequence(t, name, DefaultSeed), sequence(t, name, DefaultSeed)
			if !equalSeqs(a, b) {
				t.Fatalf("seed %d gave two different request streams", DefaultSeed)
			}
			if c := sequence(t, name, HeldOutSeed); equalSeqs(a, c) {
				t.Fatalf("seeds %d and %d gave the same request stream", DefaultSeed, HeldOutSeed)
			}
		})
	}
}

func equalSeqs(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// TestColdTreesAreDistinct guards the cold workload's premise: no two
// trees of the fill and timed streams share a seed.
func TestColdTreesAreDistinct(t *testing.T) {
	w, err := buildWorkload("embed-cold", DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int64]bool{}
	add := func(r request) {
		var er server.EmbedRequest
		if err := json.Unmarshal(r.body, &er); err != nil {
			t.Fatal(err)
		}
		for _, ts := range er.Trees {
			if seen[*ts.Seed] {
				t.Fatalf("tree seed %d repeats", *ts.Seed)
			}
			seen[*ts.Seed] = true
		}
	}
	for k := 0; k < 256; k++ {
		add(w.fill(k))
		add(w.at(k))
		add(w.at(roundStride + k))
	}
}

// respond runs one request through an in-process server.
func respond(t *testing.T, h http.Handler, r request) []byte {
	t.Helper()
	_, rec := serve(h, r)
	if rec.Code != http.StatusOK {
		t.Fatalf("%s: status %d: %s", r.path, rec.Code, rec.Body.Bytes())
	}
	return rec.Body.Bytes()
}

// mutate decodes a JSON document, applies f, and re-encodes it.
func mutate(t *testing.T, doc []byte, f func(m map[string]interface{})) []byte {
	t.Helper()
	var m map[string]interface{}
	if err := json.Unmarshal(doc, &m); err != nil {
		t.Fatal(err)
	}
	f(m)
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func obj(m map[string]interface{}, key string) map[string]interface{} {
	return m[key].(map[string]interface{})
}

func bump(m map[string]interface{}, key string, by float64) {
	m[key] = m[key].(float64) + by
}

// TestValidationRejectsBadResponses checks every workload's validator
// on a real server response, then on crafted corruptions of it.
func TestValidationRejectsBadResponses(t *testing.T) {
	h := server.New(server.Config{MaxQueue: -1, Logger: log.New(io.Discard, "", 0)}).Handler()
	load := func(name string) *workload {
		w, err := buildWorkload(name, DefaultSeed)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	type bad struct {
		what string
		f    func(m map[string]interface{})
	}
	check := func(t *testing.T, r request, body []byte, bads []bad) {
		if err := r.check(body); err != nil {
			t.Fatalf("real response rejected: %v", err)
		}
		for _, b := range bads {
			if err := r.check(mutate(t, body, b.f)); err == nil {
				t.Errorf("%s: accepted", b.what)
			}
		}
	}
	item0 := func(m map[string]interface{}) map[string]interface{} {
		return m["items"].([]interface{})[0].(map[string]interface{})
	}

	t.Run("embed-xtree", func(t *testing.T) {
		r := load("embed-warm").at(0)
		check(t, r, respond(t, h, r), []bad{
			{"dilation 4", func(m map[string]interface{}) { item0(m)["dilation"] = 4.0 }},
			{"max_load 17", func(m map[string]interface{}) { item0(m)["max_load"] = 17.0 }},
			{"item error", func(m map[string]interface{}) { item0(m)["error"] = "boom" }},
			{"wrong n", func(m map[string]interface{}) { bump(item0(m), "n", 1) }},
			{"no items", func(m map[string]interface{}) { m["items"] = []interface{}{} }},
		})
	})
	t.Run("embed-hypercube", func(t *testing.T) {
		w := load("embed-cold")
		r := w.at(2) // every request with i%8 == 2 targets the hypercube
		if !strings.Contains(string(r.body), `"host":"hypercube"`) {
			t.Fatalf("request 2 is not a hypercube request: %s", r.body)
		}
		body := respond(t, h, r)
		check(t, r, body, []bad{
			{"dilation 5", func(m map[string]interface{}) { item0(m)["dilation"] = 5.0 }},
			{"host xtree", func(m map[string]interface{}) { item0(m)["host"] = "xtree" }},
		})
		// Dilation 4 is within Theorem 3's bound on the hypercube.
		if err := r.check(mutate(t, body, func(m map[string]interface{}) { item0(m)["dilation"] = 4.0 })); err != nil {
			t.Errorf("hypercube dilation 4 rejected: %v", err)
		}
	})
	t.Run("simulate", func(t *testing.T) {
		w := load("simulate")
		for i := 0; i < 3; i++ { // one request of each simulated workload
			r := w.at(i)
			check(t, r, respond(t, h, r), []bad{
				{"cycles+1", func(m map[string]interface{}) { bump(obj(m, "sim"), "cycles", 1) }},
				{"hops+1", func(m map[string]interface{}) { bump(obj(m, "sim"), "hops_total", 1) }},
				{"slowdown", func(m map[string]interface{}) { bump(m, "slowdown", 0.01) }},
				{"ideal_cycles", func(m map[string]interface{}) { bump(m, "ideal_cycles", -1) }},
				{"embed dilation 4", func(m map[string]interface{}) { obj(m, "embed")["dilation"] = 4.0 }},
			})
		}
	})
	t.Run("simulate-stream", func(t *testing.T) {
		r := load("simulate-stream").at(0)
		body := respond(t, h, r)
		if err := r.check(body); err != nil {
			t.Fatalf("real stream rejected: %v", err)
		}
		lines := bytes.Split(bytes.TrimRight(body, "\n"), []byte("\n"))
		last := len(lines) - 1
		withLast := func(line []byte) []byte {
			out := append([][]byte(nil), lines[:last]...)
			return append(bytes.Join(append(out, line), []byte("\n")), '\n')
		}
		bads := map[string][]byte{
			"result cycles+1": withLast(mutate(t, lines[last], func(m map[string]interface{}) {
				bump(obj(obj(m, "payload"), "sim"), "cycles", 1)
			})),
			"result retransmits+1": withLast(mutate(t, lines[last], func(m map[string]interface{}) {
				bump(obj(obj(m, "payload"), "sim"), "retransmits", 1)
			})),
			"boundary bytes": withLast(mutate(t, lines[last], func(m map[string]interface{}) {
				bump(obj(obj(m, "payload"), "dist"), "boundary_bytes", 1)
			})),
			"no result":      append(bytes.Join(lines[:last], []byte("\n")), '\n'),
			"schema version": withLast(mutate(t, lines[last], func(m map[string]interface{}) { bump(m, "schema_version", 1) })),
			"error event": withLast(mutate(t, lines[last], func(m map[string]interface{}) {
				m["type"] = "error"
				m["reason"] = "boom"
			})),
		}
		for what, b := range bads {
			if err := r.check(b); err == nil {
				t.Errorf("%s: accepted", what)
			}
		}
	})
}

// TestUnitsMatchBenchmarkJSON keeps the reported units and the declared
// metrics of BENCHMARK.json in step.
func TestUnitsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, m := range append(decl.EndToEnd, decl.PerLayer...) {
		n++
		if units[m.Name] != m.Unit {
			t.Errorf("%s: BENCHMARK.json unit %q, reported unit %q", m.Name, m.Unit, units[m.Name])
		}
	}
	if n != len(units) {
		t.Errorf("BENCHMARK.json declares %d metrics, the benchmark reports %d", n, len(units))
	}
}

func TestTailLadder(t *testing.T) {
	vals := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i + 1)
		}
		return out
	}
	for _, tc := range []struct {
		n      int
		pct    float64
		beyond int
	}{{10000, 99.9, 10}, {2000, 99, 20}, {1000, 99, 10}, {999, 95, 49}, {120, 90, 12}, {40, 75, 10}, {12, 50, 6}} {
		v, pct, beyond := tail(vals(tc.n))
		if pct != tc.pct || beyond != tc.beyond || v != float64(tc.n-beyond) {
			t.Errorf("n=%d: got p%g value %g beyond %d, want p%g beyond %d", tc.n, pct, v, beyond, tc.pct, tc.beyond)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	// root [0,100) holds a [10,40) and b [30,90); b holds c [50,60).
	// a and b overlap over [30,40) and share it.
	got := selfTimes([]ival{
		{"root", 0, 100, 1}, {"a", 10, 40, 2}, {"b", 30, 90, 2}, {"c", 50, 60, 3},
	})
	want := map[string]float64{"root": 20, "a": 25, "b": 45, "c": 10}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-9 {
			t.Errorf("%s: self %v, want %v", k, got[k], v)
		}
	}
	sum := 0.0
	for _, v := range got {
		sum += v
	}
	if sum != 100 {
		t.Errorf("self times sum to %v, want the root's 100", sum)
	}
}
