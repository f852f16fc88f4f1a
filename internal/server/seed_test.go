package server

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestTreeSpecSeedPresence is the wire-format regression for the seed
// field: "seed": 0 and an absent seed used to be indistinguishable, so
// an explicit zero silently behaved like "pick something".  The pointer
// form must keep them apart through JSON decoding.
func TestTreeSpecSeedPresence(t *testing.T) {
	var explicit TreeSpec
	if err := json.Unmarshal([]byte(`{"family":"random","n":50,"seed":0}`), &explicit); err != nil {
		t.Fatal(err)
	}
	if explicit.Seed == nil || *explicit.Seed != 0 {
		t.Fatalf(`"seed":0 decoded to %v, want explicit zero`, explicit.Seed)
	}
	var omitted TreeSpec
	if err := json.Unmarshal([]byte(`{"family":"random","n":50}`), &omitted); err != nil {
		t.Fatal(err)
	}
	if omitted.Seed != nil {
		t.Fatalf("absent seed decoded to %v, want nil", omitted.Seed)
	}
}

// TestResolveExplicitSeedDeterministic: the same explicit seed — zero
// included — must always generate the same tree, so repeated requests
// collapse in the canonical cache.
func TestResolveExplicitSeedDeterministic(t *testing.T) {
	for _, seed := range []int64{0, 1, 42} {
		spec := TreeSpec{Family: "random", N: 300, Seed: Seed(seed)}
		a, err := spec.resolve(10000, newSpecMemo())
		if err != nil {
			t.Fatal(err)
		}
		b, err := spec.resolve(10000, newSpecMemo())
		if err != nil {
			t.Fatal(err)
		}
		if a.Encode() != b.Encode() {
			t.Fatalf("explicit seed %d generated two different trees", seed)
		}
	}
}

// TestResolveOmittedSeedVaries: with the seed omitted, repeated requests
// must draw fresh trees — "give me some random tree" should actually
// vary between calls instead of replaying the zero-seed stream.
func TestResolveOmittedSeedVaries(t *testing.T) {
	spec := TreeSpec{Family: "random", N: 300}
	const draws = 4
	encodings := map[string]bool{}
	for i := 0; i < draws; i++ {
		tr, err := spec.resolve(10000, newSpecMemo())
		if err != nil {
			t.Fatal(err)
		}
		encodings[tr.Encode()] = true
	}
	if len(encodings) < 2 {
		t.Fatalf("%d omitted-seed requests produced %d distinct trees; the derived seed is not varying",
			draws, len(encodings))
	}
	// And none of them may silently alias the explicit zero seed.
	zero, err := (&TreeSpec{Family: "random", N: 300, Seed: Seed(0)}).resolve(10000, newSpecMemo())
	if err != nil {
		t.Fatal(err)
	}
	if encodings[zero.Encode()] && len(encodings) == 1 {
		t.Fatal("omitted seed replayed the zero-seed tree")
	}
}

// TestLoadgenSeedStreams pins the loadgen replay bug: before the Seed
// knob every run used the fixed shape seeds 1..shapes and worker sources
// w+1, so two "different" runs replayed byte-identical request streams.
// Seed 0 must keep exactly that legacy stream (historical BENCH_serve
// numbers stay reproducible); distinct nonzero seeds must produce
// distinct shape seeds, request bodies and worker streams.
func TestLoadgenSeedStreams(t *testing.T) {
	// Legacy stream pinned under seed 0.
	for i := 0; i < 4; i++ {
		if got := shapeSeed(0, i); got != int64(i+1) {
			t.Fatalf("shapeSeed(0, %d) = %d, want the legacy %d", i, got, i+1)
		}
	}
	for w := 0; w < 4; w++ {
		if got := workerSeed(0, w); got != int64(w+1) {
			t.Fatalf("workerSeed(0, %d) = %d, want the legacy %d", w, got, w+1)
		}
	}

	// Distinct masters → distinct derived seeds, same master → same.
	seen := map[int64]bool{}
	for _, master := range []int64{1, 2, 77, -5} {
		if shapeSeed(master, 0) != shapeSeed(master, 0) {
			t.Fatal("shapeSeed is not a pure function")
		}
		for i := 0; i < 8; i++ {
			s := shapeSeed(master, i)
			if seen[s] {
				t.Fatalf("seed collision: shapeSeed(%d, %d) = %d repeats", master, i, s)
			}
			seen[s] = true
		}
		if workerSeed(master, 0) == shapeSeed(master, 0) {
			t.Fatalf("worker and shape streams coincide under master %d", master)
		}
	}

	// The encoded request mixes differ between masters and reproduce
	// within one.
	a1, err := loadBodies("random", 200, 4, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	a2, err := loadBodies("random", 200, 4, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	b, err := loadBodies("random", 200, 4, 2, "")
	if err != nil {
		t.Fatal(err)
	}
	for i := range a1 {
		if !bytes.Equal(a1[i], a2[i]) {
			t.Fatalf("same master seed produced different bodies for shape %d", i)
		}
		if bytes.Equal(a1[i], b[i]) {
			t.Fatalf("masters 1 and 2 produced the same body for shape %d", i)
		}
	}
}
