package main

// workload.go defines the four traffic mixes.  Every request body is
// generated from the --seed argument alone, so a seed fixes the exact
// request bytes; the server only ever sees those bodies.  Simulate
// responses are checked against references computed here, before any
// timing starts, with the same library calls the handler makes.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync/atomic"

	"xtreesim/internal/bintree"
	"xtreesim/internal/core"
	"xtreesim/internal/distsim"
	"xtreesim/internal/netsim"
	"xtreesim/internal/server"
	"xtreesim/internal/telemetry"
)

// DefaultSeed is the seed the recorded results use.  HeldOutSeed is kept
// out of tuning: a claimed gain must also hold on it.
const (
	DefaultSeed = 1
	HeldOutSeed = 7919
)

// Paper bounds every embed item must satisfy (Theorems 1 and 3).
const (
	maxXTreeDilation     = 3
	maxHypercubeDilation = 4
	maxLoad              = 16
)

const (
	routeEmbed    = "/v1/embed"
	routeSimulate = "/v1/simulate"
	routeStream   = "/v1/simulate?stream=1"
)

// request is one timed or warm-up API call.
type request struct {
	path  string
	body  []byte
	check func(body []byte) error
}

// workload is one traffic mix.
type workload struct {
	// rate is the open-loop arrival rate (requests per second): one the
	// seed sustains with latency_tail_ms under tailLimitMS and no
	// growing backlog.  A round that breaks either is invalid.
	rate        float64
	tailLimitMS float64
	// warm lists the set-up requests, sent before the first timed one.
	warm []request
	// setups is how many times a run boots and warms a server;
	// setup_s is the median.
	setups int
	// fill, when set, makes set-up also fill the engine cache to
	// capacity with fill(k) requests, so the timed phases run in steady
	// eviction.
	fill func(k int) request
	// at returns the i-th timed request.
	at func(i int) request
	// allHits requires every cache lookup in a timed phase to hit;
	// noHits requires none to.
	allHits, noHits bool
	// sims holds the reference runs of every distinct simulate input.
	sims []simRef
	// streams counts stream events over the run (stream workloads only).
	streams streamCounts
}

// simRef is the reference outcome of one distinct simulate input.
type simRef struct {
	res         netsim.Result
	idealCycles int
	dist        distsim.Stats
}

var workloadNames = []string{"embed-warm", "embed-cold", "simulate", "simulate-stream"}

// mix derives an independent 62-bit value for (stream, i) from the
// master seed with the splitmix64 finalizer.
func mix(seed int64, stream, i uint64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*((stream<<40)^i+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z & (1<<62 - 1))
}

// Seed streams, one per independent random choice.
const (
	streamWarmShape = iota + 1
	streamWarmPick
	streamColdFamily
	streamColdTree
	streamColdFill
	streamSimShape
	streamSimFault
	streamSimPick
	streamStreamShape
	streamStreamFault
	streamStreamPick
)

func mustJSON(v interface{}) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only the benchmark's own fixed types are marshalled
	}
	return b
}

func buildWorkload(name string, seed int64) (*workload, error) {
	switch name {
	case "embed-warm":
		return embedWarm(seed), nil
	case "embed-cold":
		return embedCold(seed), nil
	case "simulate":
		return simulateWorkload(seed)
	case "simulate-stream":
		return streamWorkload(seed)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// embedWarm: one x-tree tree per request, drawn from 8 random n=1008
// shapes that set-up has embedded, so every timed request is a cache hit
// and the core embedder does no work.
func embedWarm(seed int64) *workload {
	const shapes, n = 8, 1008
	reqs := make([]request, shapes)
	for k := range reqs {
		body := mustJSON(server.EmbedRequest{Tree: &server.TreeSpec{
			Family: string(bintree.FamilyRandom), N: n,
			Seed: server.Seed(mix(seed, streamWarmShape, uint64(k)))}})
		reqs[k] = request{path: routeEmbed, body: body,
			check: embedCheck([]int{n}, server.HostXTree)}
	}
	return &workload{
		rate: 150, tailLimitMS: 40, setups: 10,
		warm: reqs,
		at: func(i int) request {
			return reqs[uint64(mix(seed, streamWarmPick, uint64(i)))%shapes]
		},
		allHits: true,
	}
}

// embedCold: batches of 4 fresh random/bst trees (the only families
// whose shape varies with the seed), n alternating 1008 and 4080 within
// each batch, one request in 4 on the hypercube host.  Every tree misses
// the cache.  Alternating n by request instead would split latencies
// into two equal modes and put the median in the gap between them,
// where it moves with every change in the mix.
func embedCold(seed int64) *workload {
	gen := func(stream uint64, i int) request {
		host := server.HostXTree
		if i%8 == 2 || i%8 == 7 {
			host = server.HostHypercube
		}
		specs := make([]server.TreeSpec, 4)
		ns := make([]int, 4)
		for j := range specs {
			n := 1008
			if j%2 == 1 {
				n = 4080
			}
			fam := bintree.FamilyRandom
			if mix(seed, streamColdFamily, uint64(i)*4+uint64(j))&1 == 1 {
				fam = bintree.FamilyBST
			}
			specs[j] = server.TreeSpec{Family: string(fam), N: n,
				Seed: server.Seed(mix(seed, stream, uint64(i)*4+uint64(j)))}
			ns[j] = n
		}
		req := server.EmbedRequest{Trees: specs}
		if host == server.HostHypercube {
			req.Host = host
		}
		return request{path: routeEmbed, body: mustJSON(req), check: embedCheck(ns, host)}
	}
	return &workload{
		rate: 20, tailLimitMS: 250, setups: 3,
		fill:   func(k int) request { return gen(streamColdFill, k) },
		at:     func(i int) request { return gen(streamColdTree, i) },
		noHits: true,
	}
}

// simulateWorkload: /v1/simulate with baseline over 16 warm random n=1008
// shapes, cycling divide-conquer (4 waves, 2% drops), exchange (2
// rounds) and scan.
func simulateWorkload(seed int64) (*workload, error) {
	// 16 shapes, so that which shapes a seed draws moves the latency
	// tail little.
	const shapes, n = 16, 1008
	var specs []server.SimulateRequest
	for k := 0; k < shapes; k++ {
		tree := &server.TreeSpec{Family: string(bintree.FamilyRandom), N: n,
			Seed: server.Seed(mix(seed, streamSimShape, uint64(k)))}
		specs = append(specs,
			server.SimulateRequest{Tree: tree, Workload: server.WorkloadDivideConquer, Waves: 4, Baseline: true,
				Faults: &server.FaultSpec{Seed: mix(seed, streamSimFault, uint64(k)), DropProb: 0.02, MaxRetries: 20}},
			server.SimulateRequest{Tree: tree, Workload: server.WorkloadExchange, Rounds: 2, Baseline: true},
			server.SimulateRequest{Tree: tree, Workload: server.WorkloadScan, Baseline: true})
	}
	w := &workload{rate: 20, tailLimitMS: 250, setups: 5, allHits: true}
	reqs := make([]request, len(specs))
	for i, sr := range specs {
		ref, err := simReference(sr)
		if err != nil {
			return nil, err
		}
		w.sims = append(w.sims, ref)
		reqs[i] = request{path: routeSimulate, body: mustJSON(sr), check: simulateCheck(n, ref)}
	}
	for k := 0; k < shapes; k++ {
		w.warm = append(w.warm, reqs[3*k+1])
	}
	kinds := uint64(3)
	w.at = func(i int) request {
		k := uint64(mix(seed, streamSimPick, uint64(i))) % shapes
		return reqs[k*kinds+uint64(i)%kinds]
	}
	return w, nil
}

// streamWorkload: /v1/simulate?stream=1 with 2 partitions, divide-conquer
// (2 waves, 2% drops) over 8 warm random n=1008 shapes.
func streamWorkload(seed int64) (*workload, error) {
	const shapes, n, parts = 8, 1008, 2
	w := &workload{rate: 10, tailLimitMS: 250, setups: 3, allHits: true}
	reqs := make([]request, shapes)
	for k := range reqs {
		sr := server.SimulateRequest{
			Tree: &server.TreeSpec{Family: string(bintree.FamilyRandom), N: n,
				Seed: server.Seed(mix(seed, streamStreamShape, uint64(k)))},
			Workload: server.WorkloadDivideConquer, Waves: 2, Partitions: parts,
			Faults: &server.FaultSpec{Seed: mix(seed, streamStreamFault, uint64(k)), DropProb: 0.02, MaxRetries: 20}}
		ref, err := simReference(sr)
		if err != nil {
			return nil, err
		}
		w.sims = append(w.sims, ref)
		reqs[k] = request{path: routeStream, body: mustJSON(sr), check: streamCheck(n, ref, &w.streams)}
	}
	w.warm = reqs
	w.at = func(i int) request {
		return reqs[uint64(mix(seed, streamStreamPick, uint64(i)))%shapes]
	}
	return w, nil
}

// generateTree resolves a family spec exactly as the server does.
func generateTree(ts server.TreeSpec) (*bintree.Tree, error) {
	if ts.Seed == nil {
		return nil, fmt.Errorf("tree spec without a seed")
	}
	return bintree.Generate(bintree.Family(ts.Family), ts.N, rand.New(rand.NewSource(*ts.Seed)))
}

// simWorkload builds the request's workload the way the handler does.
func simWorkload(req *server.SimulateRequest, t *bintree.Tree) netsim.Workload {
	switch req.Workload {
	case server.WorkloadBroadcast:
		return netsim.NewBroadcast(t)
	case server.WorkloadExchange:
		return netsim.NewExchange(t, max(req.Rounds, 1))
	case server.WorkloadScan:
		return netsim.NewScan(t)
	}
	return netsim.NewDivideConquer(t, max(req.Waves, 1))
}

func faultPlan(fs *server.FaultSpec) *netsim.FaultPlan {
	if fs == nil {
		return nil
	}
	return &netsim.FaultPlan{Seed: fs.Seed, DropProb: fs.DropProb, CorruptProb: fs.CorruptProb,
		MaxRetries: fs.MaxRetries, BackoffBase: fs.BackoffBase}
}

// simConfig embeds the tree (Theorem 1, default options) and returns the
// host simulation config for the request.
func simConfig(req *server.SimulateRequest, res *core.Result) netsim.Config {
	place := make([]int32, res.Guest.N())
	for v, a := range res.Assignment {
		place[v] = int32(a.ID())
	}
	return netsim.Config{Host: res.Host.AsGraph(), Place: place, MaxCycles: req.MaxCycles,
		Faults: faultPlan(req.Faults)}
}

// simReference runs one distinct simulate input through the library:
// netsim.RunContext (plus the ideal-tree baseline) or, for partitioned
// requests, distsim.RunStats.
func simReference(req server.SimulateRequest) (simRef, error) {
	ctx := context.Background()
	tree, err := generateTree(*req.Tree)
	if err != nil {
		return simRef{}, err
	}
	res, err := core.EmbedXTree(tree, core.DefaultOptions())
	if err != nil {
		return simRef{}, err
	}
	cfg := simConfig(&req, res)
	var ref simRef
	if req.Partitions > 1 {
		ref.res, ref.dist, err = distsim.RunStats(ctx, distsim.Config{Sim: cfg,
			Partitions: req.Partitions, Partition: distsim.XTreeSubtrees}, simWorkload(&req, tree))
		return ref, err
	}
	if ref.res, err = netsim.RunContext(ctx, cfg, simWorkload(&req, tree)); err != nil {
		return ref, err
	}
	if req.Baseline {
		ideal, err := netsim.RunContext(ctx, netsim.Config{Host: tree.AsGraph(),
			Place: netsim.IdentityPlacement(tree.N()), MaxCycles: req.MaxCycles}, simWorkload(&req, tree))
		if err != nil {
			return ref, err
		}
		ref.idealCycles = ideal.Cycles
	}
	return ref, nil
}

// checkItem validates one embed item against the paper's bounds.
func checkItem(it server.EmbedItem, index, n int, host string) error {
	if it.Error != "" {
		return fmt.Errorf("item %d: %s", index, it.Error)
	}
	if it.Index != index || it.N != n || it.Host != host {
		return fmt.Errorf("item %d: got index=%d n=%d host=%q, want %d %d %q", index, it.Index, it.N, it.Host, index, n, host)
	}
	limit := maxXTreeDilation
	if host == server.HostHypercube {
		limit = maxHypercubeDilation
	}
	if it.Dilation < 1 || it.Dilation > limit {
		return fmt.Errorf("item %d: dilation %d outside [1,%d]", index, it.Dilation, limit)
	}
	if it.MaxLoad < 1 || it.MaxLoad > maxLoad {
		return fmt.Errorf("item %d: max_load %d outside [1,%d]", index, it.MaxLoad, maxLoad)
	}
	return nil
}

func embedCheck(ns []int, host string) func([]byte) error {
	return func(body []byte) error {
		var resp server.EmbedResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("decode embed response: %w", err)
		}
		if len(resp.Items) != len(ns) {
			return fmt.Errorf("%d items, want %d", len(resp.Items), len(ns))
		}
		for i, it := range resp.Items {
			if err := checkItem(it, i, ns[i], host); err != nil {
				return err
			}
		}
		return nil
	}
}

// wantCounters is the wire form of a reference result.
func wantCounters(r netsim.Result) server.SimCounters {
	return server.SimCounters{Cycles: r.Cycles, Delivered: r.Delivered, HopsTotal: r.HopsTotal,
		MaxLinkLoad: r.MaxLinkLoad, MaxQueue: r.MaxQueue, LatencyP50: r.LatencyP50,
		LatencyP99: r.LatencyP99, LatencyMax: r.LatencyMax, Drops: r.Drops,
		Corruptions: r.Corruptions, Retransmits: r.Retransmits, Reroutes: r.Reroutes,
		Unreachable: r.Unreachable}
}

// checkSimResponse compares a simulate response with its reference.
func checkSimResponse(resp server.SimulateResponse, n int, ref simRef) error {
	if err := checkItem(resp.Embed, 0, n, server.HostXTree); err != nil {
		return fmt.Errorf("embed: %w", err)
	}
	if want := wantCounters(ref.res); resp.Sim != want {
		return fmt.Errorf("sim counters %+v, reference %+v", resp.Sim, want)
	}
	if resp.IdealCycles != ref.idealCycles {
		return fmt.Errorf("ideal_cycles %d, reference %d", resp.IdealCycles, ref.idealCycles)
	}
	if ref.idealCycles > 0 {
		if want := float64(ref.res.Cycles) / float64(ref.idealCycles); resp.Slowdown != want {
			return fmt.Errorf("slowdown %v, reference %v", resp.Slowdown, want)
		}
	}
	if ref.dist.Partitions != nil {
		if resp.Dist == nil {
			return fmt.Errorf("partitioned run without a dist breakdown")
		}
		if resp.Dist.BoundaryMessages != ref.dist.BoundaryMessages || resp.Dist.BoundaryBytes != ref.dist.BoundaryBytes {
			return fmt.Errorf("boundary messages/bytes %d/%d, reference %d/%d", resp.Dist.BoundaryMessages,
				resp.Dist.BoundaryBytes, ref.dist.BoundaryMessages, ref.dist.BoundaryBytes)
		}
	}
	return nil
}

func simulateCheck(n int, ref simRef) func([]byte) error {
	return func(body []byte) error {
		var resp server.SimulateResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("decode simulate response: %w", err)
		}
		return checkSimResponse(resp, n, ref)
	}
}

// streamStats summarizes one decoded NDJSON session stream.
type streamStats struct {
	events  int    // lines decoded
	dropped uint64 // events the server reported lost to this reader
}

// decodeStream decodes every line of a session stream and returns the
// final result payload, which must be the last event.
func decodeStream(body []byte) (server.SimulateResponse, streamStats, error) {
	var st streamStats
	var resp server.SimulateResponse
	var last telemetry.Event
	for len(body) > 0 {
		line := body
		if i := bytes.IndexByte(body, '\n'); i >= 0 {
			line, body = body[:i], body[i+1:]
		} else {
			body = nil
		}
		if len(line) == 0 {
			continue
		}
		ev, err := telemetry.DecodeEvent(line)
		if err != nil {
			return resp, st, err
		}
		// A reader that falls a whole ring behind sees a dropped marker
		// in place of the events it lost, the start event included.
		if st.events == 0 && ev.Type != telemetry.EventStart && ev.Type != telemetry.EventDropped {
			return resp, st, fmt.Errorf("stream starts with %q, want %q", ev.Type, telemetry.EventStart)
		}
		if ev.Type == telemetry.EventError {
			return resp, st, fmt.Errorf("stream error event: %s", ev.Reason)
		}
		st.events++
		if ev.Type == telemetry.EventDropped {
			st.dropped += ev.Dropped
		}
		last = ev
	}
	if last.Type != telemetry.EventResult {
		return resp, st, fmt.Errorf("stream ends with %q, want %q", last.Type, telemetry.EventResult)
	}
	if err := json.Unmarshal(last.Payload, &resp); err != nil {
		return resp, st, fmt.Errorf("decode result payload: %w", err)
	}
	return resp, st, nil
}

// streamCounts totals, over a run, the events stream clients decoded
// and the events the server reported lost to them.
type streamCounts struct{ events, dropped atomic.Int64 }

func streamCheck(n int, ref simRef, counts *streamCounts) func([]byte) error {
	return func(body []byte) error {
		resp, st, err := decodeStream(body)
		counts.events.Add(int64(st.events))
		counts.dropped.Add(int64(st.dropped))
		if err != nil {
			return err
		}
		return checkSimResponse(resp, n, ref)
	}
}
