package netsim

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"

	"xtreesim/internal/graph"
)

// Default retransmission knobs, used when the corresponding FaultPlan
// field is zero.
const (
	DefaultMaxRetries  = 8 // retransmissions per message before giving up
	DefaultBackoffBase = 2 // first backoff, in cycles; doubles per retry
)

// FaultPlan is a deterministic, seeded fault-injection schedule.  The same
// plan against the same Config and Workload reproduces the same Result,
// run after run: the drop/corruption stream comes from a seeded generator
// consumed in the simulator's fixed traversal order, and kills fire at
// fixed cycles.
//
// A plan with no kills and zero probabilities is inert: the simulator
// skips the fault layer entirely and the Result is byte-identical to a run
// with Config.Faults == nil.
//
// When the plan is active, the delivery layer turns on: every lost message
// (random drop, corruption detected by the delivery checksum, or a
// casualty of a link/vertex kill) is nacked back to its source, which
// retransmits after an exponential backoff (BackoffBase, 2·BackoffBase,
// 4·BackoffBase, … cycles) up to MaxRetries times before the message is
// abandoned and counted in Result.Unreachable.  Acks and nacks are modeled
// as control signals outside the data links, so they consume no link
// bandwidth — which is also what keeps the inert-plan run byte-identical.
type FaultPlan struct {
	// Seed drives the drop/corruption random stream.
	Seed int64
	// LinkKills and VertexKills are permanent, scheduled failures.  A
	// kill with Cycle ≤ 0 is dead from the start of the run.
	LinkKills   []LinkKill
	VertexKills []VertexKill
	// DropProb is the per-hop probability that a message in flight is
	// lost on a link.  CorruptProb is the per-hop probability that its
	// payload is mangled instead; corruption is detected by a checksum
	// at final delivery, where the message is discarded and nacked.
	DropProb    float64
	CorruptProb float64
	// MaxRetries bounds retransmissions per message (0 means
	// DefaultMaxRetries); BackoffBase is the first backoff in cycles
	// (0 means DefaultBackoffBase).
	MaxRetries  int
	BackoffBase int
}

// LinkKill schedules the death of the undirected link {U, V} at the start
// of the given cycle: both directions stop carrying traffic and every
// message queued on them is lost (and nacked for retransmission).
type LinkKill struct {
	U, V  int32
	Cycle int
}

// VertexKill schedules the death of a host vertex at the start of the
// given cycle: all incident links die with it, and every guest process
// placed on it stops sending and receiving for good.
type VertexKill struct {
	V     int32
	Cycle int
}

// Active reports whether the plan can inject any fault at all.
func (p *FaultPlan) Active() bool {
	if p == nil {
		return false
	}
	return len(p.LinkKills) > 0 || len(p.VertexKills) > 0 || p.DropProb > 0 || p.CorruptProb > 0
}

// validate checks the plan against a host graph.
func (p *FaultPlan) validate(host *graph.Graph) error {
	if p.DropProb < 0 || p.DropProb > 1 {
		return fmt.Errorf("netsim: DropProb %v outside [0,1]", p.DropProb)
	}
	if p.CorruptProb < 0 || p.CorruptProb > 1 {
		return fmt.Errorf("netsim: CorruptProb %v outside [0,1]", p.CorruptProb)
	}
	if p.MaxRetries < 0 {
		return fmt.Errorf("netsim: negative MaxRetries %d", p.MaxRetries)
	}
	if p.BackoffBase < 0 {
		return fmt.Errorf("netsim: negative BackoffBase %d", p.BackoffBase)
	}
	n := int32(host.N())
	for _, k := range p.LinkKills {
		if k.U < 0 || k.U >= n || k.V < 0 || k.V >= n {
			return fmt.Errorf("netsim: link kill {%d,%d} outside host [0,%d)", k.U, k.V, n)
		}
		if !hasNeighbor(host, k.U, k.V) {
			return fmt.Errorf("netsim: link kill {%d,%d} is not a host edge", k.U, k.V)
		}
	}
	for _, k := range p.VertexKills {
		if k.V < 0 || k.V >= n {
			return fmt.Errorf("netsim: vertex kill %d outside host [0,%d)", k.V, n)
		}
	}
	return nil
}

func hasNeighbor(host *graph.Graph, u, v int32) bool {
	for _, w := range host.Neighbors(int(u)) {
		if w == v {
			return true
		}
	}
	return false
}

// schedKill is a LinkKill or VertexKill normalized for replay.
type schedKill struct {
	cycle  int
	vertex bool
	u, v   int32 // vertex kill: u == v == the vertex
}

// faultState is the per-run fault machinery.
type faultState struct {
	plan  FaultPlan // defaults filled in
	rng   *rand.Rand
	ranks *EdgeRanker
	deadV []bool
	deadE []bool // by directed edge rank; kills mark both directions

	kills   []schedKill // merged schedule, sorted by cycle
	killIdx int         // next kill to apply

	// nh caches per-destination next-hop tables over the alive graph,
	// built lazily by BFS and invalidated whenever a kill lands.
	nh map[int32][]int32
}

// newFaultState validates the plan against the ranker's host and builds
// the run state, or returns (nil, nil) for an inert plan.
func newFaultState(p *FaultPlan, ranks *EdgeRanker) (*faultState, error) {
	host := ranks.host
	if err := p.validate(host); err != nil {
		return nil, err
	}
	if !p.Active() {
		return nil, nil
	}
	plan := *p
	if plan.MaxRetries == 0 {
		plan.MaxRetries = DefaultMaxRetries
	}
	if plan.BackoffBase == 0 {
		plan.BackoffBase = DefaultBackoffBase
	}
	f := &faultState{
		plan:  plan,
		rng:   rand.New(rand.NewSource(plan.Seed)),
		ranks: ranks,
		deadV: make([]bool, host.N()),
		deadE: make([]bool, ranks.Count()),
		nh:    make(map[int32][]int32),
	}
	for _, k := range plan.LinkKills {
		f.kills = append(f.kills, schedKill{cycle: k.Cycle, u: k.U, v: k.V})
	}
	for _, k := range plan.VertexKills {
		f.kills = append(f.kills, schedKill{cycle: k.Cycle, vertex: true, u: k.V, v: k.V})
	}
	slices.SortStableFunc(f.kills, func(x, y schedKill) int { return cmp.Compare(x.cycle, y.cycle) })
	return f, nil
}

// blocked reports whether the directed hop u→v is unusable.  A pair that
// is not a host edge is not blocked here: the caller reports it as a
// missing edge.
func (f *faultState) blocked(u, v int32) bool {
	if f.deadV[v] || f.deadV[u] {
		return true
	}
	r := f.ranks.Rank(u, v)
	return r >= 0 && f.deadE[r]
}

// killLink marks both directions of the host edge {u, v} dead and
// reports whether it was alive before.
func (f *faultState) killLink(u, v int32) bool {
	uv := f.ranks.Rank(u, v)
	if f.deadE[uv] {
		return false
	}
	f.deadE[uv] = true
	f.deadE[f.ranks.Rank(v, u)] = true
	return true
}

// next returns the next hop from `at` toward dst over the alive graph, or
// -1 when dst is unreachable.  Tables are built per destination on first
// use and reused until the next kill.
func (f *faultState) next(host *graph.Graph, at, dst int32) int32 {
	tab, ok := f.nh[dst]
	if !ok {
		n := host.N()
		tab = make([]int32, n)
		for i := range tab {
			tab[i] = -1
		}
		if !f.deadV[dst] {
			tab[dst] = dst
			queue := []int32{dst}
			for len(queue) > 0 {
				u := queue[0]
				queue = queue[1:]
				for _, v := range host.Neighbors(int(u)) {
					// The message would travel v→u, so that is
					// the direction that must be alive.
					if tab[v] >= 0 || f.blocked(v, u) {
						continue
					}
					tab[v] = u
					queue = append(queue, v)
				}
			}
		}
		f.nh[dst] = tab
	}
	return tab[at]
}

// applyKills fires every kill scheduled at or before the current cycle.
// Messages queued on a dying link are lost (and nacked); co-located
// deliveries pending at a dying vertex are abandoned with it.
func (s *sim) applyKills() {
	f := s.faults
	changed := false
	for f.killIdx < len(f.kills) && f.kills[f.killIdx].cycle <= s.now {
		k := f.kills[f.killIdx]
		f.killIdx++
		if k.vertex {
			if f.deadV[k.u] {
				continue
			}
			f.deadV[k.u] = true
			if s.obs != nil {
				s.obs.OnKill(KillInfo{Cycle: s.now, Vertex: true, U: k.u, V: k.u})
			}
			for _, nb := range s.host.Neighbors(int(k.u)) {
				f.killLink(k.u, nb)
				s.flushEdge(k.u, nb)
				s.flushEdge(nb, k.u)
			}
			if n := len(s.local[k.u]); n > 0 {
				for _, m := range s.local[k.u] {
					s.abandon(m)
				}
				s.queuedLocal -= n
				s.local[k.u] = nil
			}
		} else {
			if !f.killLink(k.u, k.v) {
				continue // the link is already down (duplicate schedule entry)
			}
			if s.obs != nil {
				s.obs.OnKill(KillInfo{Cycle: s.now, U: k.u, V: k.v})
			}
			s.flushEdge(k.u, k.v)
			s.flushEdge(k.v, k.u)
		}
		changed = true
	}
	if changed {
		f.nh = make(map[int32][]int32) // alive-graph routes are stale
	}
}

// flushEdge loses every message queued on the directed edge u→v.
func (s *sim) flushEdge(u, v int32) {
	q := &s.queues[s.ranker.Rank(u, v)]
	n := q.length()
	if n == 0 {
		return
	}
	for _, m := range q.live() {
		s.lose(m, DropKilled)
	}
	q.reset()
	s.queuedLinks -= n
}
