package netsim

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"xtreesim/internal/bintree"
	"xtreesim/internal/graph"
)

// routingTrees returns tree hosts of every shape family the router must
// handle, small sizes included, plus a tree whose adjacency lists are not
// sorted (the router must not depend on neighbor order).
func routingTrees(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	hosts := map[string]*graph.Graph{}
	for _, f := range []bintree.Family{bintree.FamilyRandom, bintree.FamilyBST, bintree.FamilyPath,
		bintree.FamilyComplete, bintree.FamilyCaterpillar} {
		for _, n := range []int{1, 2, 3, 7, 100, 257} {
			tr, err := bintree.Generate(f, n, rand.New(rand.NewSource(int64(n))))
			if err != nil {
				t.Fatal(err)
			}
			hosts[fmt.Sprintf("%s/n=%d", f, n)] = tr.AsGraph()
		}
	}
	// A non-binary tree built by random attachment over shuffled
	// labels, left in insertion order.
	rng := rand.New(rand.NewSource(11))
	const n = 60
	perm := rng.Perm(n)
	g := graph.New(n)
	for i := 1; i < n; i++ {
		g.AddEdge(perm[i], perm[rng.Intn(i)])
	}
	unsorted := 0
	for v := 0; v < n; v++ {
		if !slices.IsSorted(g.Neighbors(v)) {
			unsorted++
		}
	}
	if unsorted == 0 || g.MaxDegree() <= 3 {
		t.Fatalf("unsorted host has %d unsorted lists, max degree %d", unsorted, g.MaxDegree())
	}
	hosts["unsorted"] = g
	return hosts
}

// TestTreeRouterMatchesTables pins the uniqueness argument: on a tree the
// shortest path is unique, so the interval router must name exactly the
// neighbor the BFS tables name, for every ordered pair.  A host with a
// cycle keeps the tables.
func TestTreeRouterMatchesTables(t *testing.T) {
	if hop, tables, err := Routing(cycleHost()); err != nil || hop != nil || tables == nil {
		t.Fatalf("cycle host: hop=%v tables=%v err=%v, want tables", hop != nil, tables != nil, err)
	}
	for name, g := range routingTrees(t) {
		if !g.IsTree() {
			t.Fatalf("%s: not a tree", name)
		}
		hop, tables, err := Routing(g)
		if err != nil || hop == nil || tables != nil {
			t.Fatalf("%s: Routing gave hop=%v tables=%v err=%v, want the tree router", name, hop != nil, tables != nil, err)
		}
		want := BuildNextHopTables(g)
		for dst := 0; dst < g.N(); dst++ {
			for cur := 0; cur < g.N(); cur++ {
				if got := hop(int32(cur), int32(dst)); got != want[dst][cur] {
					t.Fatalf("%s: next(%d, %d) = %d, tables say %d", name, cur, dst, got, want[dst][cur])
				}
			}
		}
	}
}

// runRecord is everything a run exposes: its Result, its error, the
// LinkAudit verdict and the full observer event stream as JSONL.
type runRecord struct {
	res    Result
	err    string
	audit  string
	stream []byte
}

func recordRun(t *testing.T, cfg Config, wl Workload) runRecord {
	t.Helper()
	audit := NewLinkAudit()
	rec := NewTraceRecorder()
	cfg.Observers = []Observer{audit, rec}
	res, err := Run(cfg, wl)
	var r runRecord
	r.res = res
	if err != nil {
		r.err = err.Error()
	}
	if aerr := audit.Err(); aerr != nil {
		r.audit = aerr.Error()
	}
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if rec.Truncated > 0 {
		t.Fatalf("trace truncated by %d events", rec.Truncated)
	}
	r.stream = buf.Bytes()
	return r
}

// TestTreeRoutedRunByteIdentical runs every workload on tree hosts twice —
// routed by the tree router (the default) and by a NextHop that reads the
// BFS tables — with and without an active fault plan, and requires the
// Result, the error, the LinkAudit verdict and the recorded event stream
// to be byte-identical.  The scattered placement sends messages along
// long up-and-down paths; the identity placement is the ideal-tree
// baseline the server runs.
func TestTreeRoutedRunByteIdentical(t *testing.T) {
	guest := bintree.RandomAttachment(200, rand.New(rand.NewSource(5)))
	host := bintree.RandomBSTShape(240, rand.New(rand.NewSource(6))).AsGraph()
	scatter := make([]int32, guest.N())
	for i, v := range rand.New(rand.NewSource(7)).Perm(host.N())[:guest.N()] {
		scatter[i] = int32(v)
	}
	// An active plan: 3% drops plus one link of the busiest vertex dying
	// mid-run.  On a tree that strands every pair across the link, so the
	// reroute search runs and comes back empty.
	faultsOn := func(host *graph.Graph) *FaultPlan {
		hub := 0
		for v := 0; v < host.N(); v++ {
			if host.Degree(v) > host.Degree(hub) {
				hub = v
			}
		}
		return &FaultPlan{Seed: 9, DropProb: 0.03, MaxRetries: 20,
			LinkKills: []LinkKill{{U: int32(hub), V: host.Neighbors(hub)[0], Cycle: 12}}}
	}
	setups := []struct {
		name  string
		host  *graph.Graph
		place []int32
	}{
		{"ideal", guest.AsGraph(), IdentityPlacement(guest.N())},
		{"scattered", host, scatter},
	}
	workloads := map[string]func() Workload{
		"divide-conquer": func() Workload { return NewDivideConquer(guest, 3) },
		"exchange":       func() Workload { return NewExchange(guest, 2) },
		"scan":           func() Workload { return NewScan(guest) },
	}
	for _, su := range setups {
		tables := BuildNextHopTables(su.host)
		viaTables := func(cur, dst int32) int32 { return tables[dst][cur] }
		for wname, mk := range workloads {
			for _, plan := range []*FaultPlan{nil, faultsOn(su.host)} {
				name := fmt.Sprintf("%s/%s/faults=%v", su.name, wname, plan != nil)
				cfg := Config{Host: su.host, Place: su.place, MaxCycles: 20000, Faults: plan}
				got := recordRun(t, cfg, mk())
				cfg.NextHop = viaTables
				want := recordRun(t, cfg, mk())
				if got.res != want.res || got.err != want.err || got.audit != want.audit {
					t.Fatalf("%s: tree-routed %+v err=%q audit=%q\n table-routed %+v err=%q audit=%q",
						name, got.res, got.err, got.audit, want.res, want.err, want.audit)
				}
				if !bytes.Equal(got.stream, want.stream) {
					t.Fatalf("%s: observer streams differ (%d vs %d bytes)", name, len(got.stream), len(want.stream))
				}
				if got.audit != "" {
					t.Fatalf("%s: audit failed: %s", name, got.audit)
				}
				if got.res.HopsTotal == 0 || (plan != nil && got.res.Drops == 0) {
					t.Fatalf("%s: %+v; the comparison is vacuous", name, got.res)
				}
			}
		}
	}
}

// TestIdealBaselineAllocBudget holds the ideal-tree baseline of
// /v1/simulate to a fixed allocation budget: one n=1008 divide-conquer
// run (4 waves) on the guest tree itself.  Routing it through the V² BFS
// tables cost ~44.8k allocations; with the tree router and the generic
// delivery sort it takes ~9.7k.
func TestIdealBaselineAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budget")
	}
	const budget = 16000
	tr := bintree.RandomAttachment(1008, rand.New(rand.NewSource(1)))
	host := tr.AsGraph()
	place := IdentityPlacement(tr.N())
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Run(Config{Host: host, Place: place}, NewDivideConquer(tr, 4)); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("ideal baseline run: %.0f allocs (budget %d)", allocs, budget)
	if allocs > budget {
		t.Fatalf("ideal baseline run allocates %.0f times, budget %d", allocs, budget)
	}
}
