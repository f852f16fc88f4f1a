package netsim

import (
	"reflect"
	"strings"
	"testing"

	"xtreesim/internal/bintree"
	"xtreesim/internal/graph"
)

// testStream sends n distinguishable messages from guest 0 to guest 1 and
// is done once all of them arrive.
type testStream struct {
	n    int
	got  []int64 // delivered payloads, in delivery order
	dead bool
}

func (w *testStream) Init(emit func(Event)) {
	for i := 0; i < w.n; i++ {
		emit(Event{From: 0, To: 1, Kind: KindTask, Payload: int64(i)})
	}
}
func (w *testStream) OnMessage(ev Event, emit func(Event)) { w.got = append(w.got, ev.Payload) }
func (w *testStream) Done() bool                           { return len(w.got) == w.n }

// cycleHost builds the 4-cycle 0-1-2-3-0: the smallest host with an
// alternate route around any single dead link.
func cycleHost() *graph.Graph {
	g := graph.New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 0)
	return g
}

// pathHost builds the path 0-1-…-(n−1).
func pathHost(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

func TestInertFaultPlanByteIdentical(t *testing.T) {
	// An inert plan (no kills, zero probabilities) must not perturb the
	// simulation at all: the whole Result — makespan, hops, latencies,
	// fault counters — is identical to a run without a plan.
	tr := bintree.CompleteN(63)
	cfg := Config{Host: tr.AsGraph(), Place: IdentityPlacement(tr.N())}
	plain, err := Run(cfg, NewDivideConquer(tr, 2))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = &FaultPlan{Seed: 7}
	inert, err := Run(cfg, NewDivideConquer(tr, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, inert) {
		t.Errorf("inert fault plan changed the result:\nplain: %+v\ninert: %+v", plain, inert)
	}
}

func TestDropsAreRetransmittedToCompletion(t *testing.T) {
	tr := bintree.Complete(5)
	cfg := Config{Host: tr.AsGraph(), Place: IdentityPlacement(tr.N())}
	clean, err := Run(cfg, NewDivideConquer(tr, 1))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = &FaultPlan{Seed: 3, DropProb: 0.15, MaxRetries: 16}
	faulty, err := Run(cfg, NewDivideConquer(tr, 1))
	if err != nil {
		t.Fatal(err)
	}
	if faulty.Drops == 0 || faulty.Retransmits == 0 {
		t.Fatalf("15%% drop rate injected nothing: %+v", faulty)
	}
	if faulty.Delivered != clean.Delivered {
		t.Errorf("delivered %d under faults, want %d", faulty.Delivered, clean.Delivered)
	}
	if faulty.Cycles < clean.Cycles {
		t.Errorf("faulty makespan %d < clean %d", faulty.Cycles, clean.Cycles)
	}
	if faulty.Unreachable != 0 {
		t.Errorf("%d unreachable despite generous retries", faulty.Unreachable)
	}
}

func TestSeededFaultRunsAreReproducible(t *testing.T) {
	tr := bintree.Complete(5)
	cfg := Config{
		Host:  tr.AsGraph(),
		Place: IdentityPlacement(tr.N()),
		Faults: &FaultPlan{
			Seed:        11,
			DropProb:    0.1,
			CorruptProb: 0.05,
			LinkKills:   []LinkKill{{U: 0, V: 1, Cycle: 3}},
			MaxRetries:  20,
		},
	}
	a, errA := Run(cfg, NewDivideConquer(tr, 2))
	b, errB := Run(cfg, NewDivideConquer(tr, 2))
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed, different results:\na: %+v\nb: %+v", a, b)
	}
	if (errA == nil) != (errB == nil) || (errA != nil && errA.Error() != errB.Error()) {
		t.Errorf("same seed, different errors: %v vs %v", errA, errB)
	}
}

func TestLinkKillReroutesAroundDeadLink(t *testing.T) {
	// Guests at opposite corners of the 4-cycle; the preferred route
	// 0→1→2 dies mid-run and traffic must detour over 0→3→2.
	wl := &testStream{n: 8}
	res, err := Run(Config{
		Host:   cycleHost(),
		Place:  []int32{0, 2},
		Faults: &FaultPlan{LinkKills: []LinkKill{{U: 0, V: 1, Cycle: 2}}},
	}, wl)
	if err != nil {
		t.Fatal(err)
	}
	if !wl.Done() {
		t.Fatalf("stream incomplete: %+v", res)
	}
	if res.Reroutes == 0 {
		t.Errorf("no reroutes around the dead link: %+v", res)
	}
	if res.Drops == 0 {
		t.Errorf("messages queued on the dying link should be casualties: %+v", res)
	}
	if res.Retransmits == 0 {
		t.Errorf("casualties should be retransmitted: %+v", res)
	}
	if res.Delivered != 8 {
		t.Errorf("delivered %d, want 8", res.Delivered)
	}
}

func TestNextHopRouterDeadEdgeFallback(t *testing.T) {
	// A topology-aware router that insists on 0→1→2 even though the
	// link {0,1} is dead from the start: the simulator must fall back
	// to BFS on the alive graph instead of trusting it.
	static := map[[2]int32]int32{{0, 2}: 1, {1, 2}: 2, {3, 2}: 2}
	wl := &testStream{n: 4}
	res, err := Run(Config{
		Host:  cycleHost(),
		Place: []int32{0, 2},
		NextHop: func(cur, dst int32) int32 {
			if nh, ok := static[[2]int32{cur, dst}]; ok {
				return nh
			}
			return -1
		},
		Faults: &FaultPlan{LinkKills: []LinkKill{{U: 0, V: 1, Cycle: 0}}},
	}, wl)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reroutes == 0 || res.Delivered != 4 {
		t.Errorf("router fallback failed: %+v", res)
	}
}

func TestNextHopNonNeighborUnderFaults(t *testing.T) {
	// A router that names a vertex that is not a neighbor must get the
	// missing-edge error under an active plan too, not a dead-link
	// lookup on an edge that does not exist.
	_, err := Run(Config{
		Host:    cycleHost(),
		Place:   []int32{0, 2},
		NextHop: func(cur, dst int32) int32 { return dst },
		Faults:  &FaultPlan{LinkKills: []LinkKill{{U: 1, V: 2, Cycle: 50}}},
	}, &testStream{n: 1})
	if err == nil || !strings.Contains(err.Error(), "missing edge 0->2") {
		t.Fatalf("got %v, want the missing-edge error", err)
	}
}

func TestVertexKillMakesGuestUnreachable(t *testing.T) {
	tr := bintree.Path(3)
	res, err := Run(Config{
		Host:   pathHost(3),
		Place:  IdentityPlacement(3),
		Faults: &FaultPlan{VertexKills: []VertexKill{{V: 2, Cycle: 0}}},
	}, NewBroadcast(tr))
	if err == nil {
		t.Fatal("broadcast to a dead vertex reported success")
	}
	if !strings.Contains(err.Error(), "unreachable") {
		t.Errorf("error does not mention unreachable messages: %v", err)
	}
	if res.Unreachable == 0 {
		t.Errorf("no unreachable messages counted: %+v", res)
	}
}

func TestRetryBudgetExhausted(t *testing.T) {
	// DropProb 1 loses every transmission: the single message burns its
	// initial send plus MaxRetries retransmissions, then is abandoned.
	wl := &testStream{n: 1}
	res, err := Run(Config{
		Host:   pathHost(2),
		Place:  IdentityPlacement(2),
		Faults: &FaultPlan{Seed: 1, DropProb: 1, MaxRetries: 3},
	}, wl)
	if err == nil {
		t.Fatal("undeliverable stream reported success")
	}
	if res.Drops != 4 || res.Retransmits != 3 || res.Unreachable != 1 {
		t.Errorf("drops/retransmits/unreachable = %d/%d/%d, want 4/3/1",
			res.Drops, res.Retransmits, res.Unreachable)
	}
	if res.Delivered != 0 {
		t.Errorf("delivered %d impossible messages", res.Delivered)
	}
}

func TestCorruptionDetectedAndRetransmitted(t *testing.T) {
	wl := &testStream{n: 6}
	res, err := Run(Config{
		Host:   pathHost(2),
		Place:  IdentityPlacement(2),
		Faults: &FaultPlan{Seed: 2, CorruptProb: 0.5, MaxRetries: 40},
	}, wl)
	if err != nil {
		t.Fatal(err)
	}
	if res.Corruptions == 0 || res.Retransmits == 0 {
		t.Fatalf("50%% corruption injected nothing: %+v", res)
	}
	if res.Drops != 0 {
		t.Errorf("corruption discards double-counted as drops: %+v", res)
	}
	if res.Delivered != 6 {
		t.Errorf("delivered %d, want 6", res.Delivered)
	}
}

func TestFaultCounterAndLinkStatInvariants(t *testing.T) {
	tr := bintree.Complete(5)
	res, err := Run(Config{
		Host:  tr.AsGraph(),
		Place: IdentityPlacement(tr.N()),
		Faults: &FaultPlan{
			Seed:        9,
			DropProb:    0.1,
			CorruptProb: 0.05,
			MaxRetries:  30,
		},
	}, NewDivideConquer(tr, 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxLinkLoad < 1 || res.MaxLinkLoad > res.HopsTotal {
		t.Errorf("MaxLinkLoad %d outside [1, HopsTotal=%d]", res.MaxLinkLoad, res.HopsTotal)
	}
	if res.MaxQueue < 0 || res.MaxQueue > res.HopsTotal {
		t.Errorf("MaxQueue %d outside [0, HopsTotal=%d]", res.MaxQueue, res.HopsTotal)
	}
	// Every delivery on this host crosses exactly one link per attempt,
	// so hops cover deliveries plus every counted loss.
	if res.HopsTotal < res.Delivered+res.Drops {
		t.Errorf("HopsTotal %d < Delivered %d + Drops %d", res.HopsTotal, res.Delivered, res.Drops)
	}
	if res.LatencyMax > res.Cycles {
		t.Errorf("max latency %d exceeds makespan %d", res.LatencyMax, res.Cycles)
	}
	if res.LatencyP50 > res.LatencyP99 || res.LatencyP99 > res.LatencyMax {
		t.Errorf("latency percentiles out of order: %d/%d/%d",
			res.LatencyP50, res.LatencyP99, res.LatencyMax)
	}
}

func TestFaultPlanValidation(t *testing.T) {
	host := pathHost(3)
	place := IdentityPlacement(3)
	tr := bintree.Path(3)
	for name, plan := range map[string]*FaultPlan{
		"drop prob too high":  {DropProb: 1.5},
		"negative corrupt":    {CorruptProb: -0.1},
		"negative retries":    {DropProb: 0.1, MaxRetries: -1},
		"negative backoff":    {DropProb: 0.1, BackoffBase: -2},
		"kill outside host":   {LinkKills: []LinkKill{{U: 0, V: 9}}},
		"kill non-edge":       {LinkKills: []LinkKill{{U: 0, V: 2}}},
		"vertex outside host": {VertexKills: []VertexKill{{V: -1}}},
	} {
		if _, err := Run(Config{Host: host, Place: place, Faults: plan}, NewBroadcast(tr)); err == nil {
			t.Errorf("%s: invalid plan accepted", name)
		}
	}
}
