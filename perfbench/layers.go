package main

// layers.go is the traced run.  One client replays the workload's
// request sequence in-process.  Each request goes through
// Server.Handler().ServeHTTP on an untraced server (server.handler_us)
// and on a fully traced one (trace.overhead_frac); then the benchmark
// calls, in handler order, the public entry points the handler uses, on
// the same body, each inside a benchmark-side span.  The engine spans
// (engine.*) and embedder spans (embed.*) that internal/trace already
// emits nest under those.  A layer's self time is the part of the
// request's wall time during which its span is the innermost one
// running; instants where several innermost spans run at once (engine
// workers, the stream encoder beside the simulation) are shared equally.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"time"

	"xtreesim/internal/bintree"
	"xtreesim/internal/core"
	"xtreesim/internal/distsim"
	"xtreesim/internal/engine"
	"xtreesim/internal/metrics"
	"xtreesim/internal/netsim"
	"xtreesim/internal/server"
	"xtreesim/internal/telemetry"
	"xtreesim/internal/trace"
)

// layerOf maps a span name to the per-layer metric its self time feeds.
// Spans not listed still count as covered time.
var layerOf = map[string]string{
	"server.decode":           "server.decode_us",
	"server.encode":           "server.encode_us",
	"bintree.generate":        "bintree.generate_us",
	"engine.canonical-encode": "bintree.canonical_us",
	"engine.batch":            "engine.batch_us",
	"engine.cache-lookup":     "engine.batch_us",
	"engine.coalesce-wait":    "engine.batch_us",
	"engine.queue-wait":       "engine.queue_wait_us",
	"core.hypercube":          "core.hypercube_us",
	"embed.hypercube":         "core.hypercube_us",
	"metrics.verify":          "metrics.verify_us",
}

// corePhaseOf maps the embedder's phase spans to per-tree metrics.
var corePhaseOf = map[string]string{
	"embed.host-build": "core.host_build_us",
	"embed.round":      "core.rounds_us",
	"embed.separator":  "core.separator_us",
	"embed.final-pass": "core.final_pass_us",
}

// allocSamples is how many computed trees get a separate allocation
// count (a stop-the-world MemStats read on each side of the embed).
const allocSamples = 8

// replayer owns the in-process servers, the replay engine, and the
// running totals of the traced run.
type replayer struct {
	w      *workload
	plain  http.Handler
	traced http.Handler
	eng    *engine.Engine

	requests                              int
	handlerNs, tracedNs                   []float64
	layerNs                               map[string]float64 // wall self time per metric, summed over requests
	coveredNs                             float64
	computes                              int
	computeNs                             float64
	coreNs                                map[string]float64
	allocs                                []float64
	distCalls, distLoopNs                 float64
	simRuns                               int
	runHostNs, runIdealNs                 float64
	buildHostNs, buildIdealNs             float64
	simHops, simCycles                    float64
	distRuns                              int
	distRunNs, distObservedNs, distBareNs []float64
	distHops, distBarrierNs, distPartsNs  float64
	distBoundaryBytes                     float64
	streams                               int
	streamBytes, streamEvents             float64
	streamDropped                         float64

	// sink keeps the timed distance loop from being optimized away.
	sink int
}

func newReplayer(w *workload) *replayer {
	quiet := log.New(io.Discard, "", 0)
	// MaxQueue -1 is xtree-serve's default admission queue.
	plain := server.New(server.Config{MaxQueue: -1, Logger: quiet})
	traced := server.New(server.Config{MaxQueue: -1, Logger: quiet,
		Tracer: trace.New(trace.Config{SampleRate: 1, RingSize: 1 << 15})})
	return &replayer{
		w: w, plain: plain.Handler(), traced: traced.Handler(),
		eng:     engine.New(engine.Config{}),
		layerNs: map[string]float64{}, coreNs: map[string]float64{},
	}
}

func (r *replayer) close() { r.eng.Close() }

// serve runs one request through a handler and returns its duration.
func serve(h http.Handler, req request) (time.Duration, *httptest.ResponseRecorder) {
	hr := httptest.NewRequest(http.MethodPost, req.path, bytes.NewReader(req.body))
	rec := httptest.NewRecorder()
	start := time.Now()
	h.ServeHTTP(rec, hr)
	return time.Since(start), rec
}

// treesOf resolves the trees of a request body.
func treesOf(req request) ([]*bintree.Tree, error) {
	var specs []server.TreeSpec
	if req.path == routeEmbed {
		var er server.EmbedRequest
		if err := json.Unmarshal(req.body, &er); err != nil {
			return nil, err
		}
		specs = er.Trees
		if er.Tree != nil {
			specs = []server.TreeSpec{*er.Tree}
		}
	} else {
		var sr server.SimulateRequest
		if err := json.Unmarshal(req.body, &sr); err != nil {
			return nil, err
		}
		specs = []server.TreeSpec{*sr.Tree}
	}
	trees := make([]*bintree.Tree, len(specs))
	for i, ts := range specs {
		t, err := generateTree(ts)
		if err != nil {
			return nil, err
		}
		trees[i] = t
	}
	return trees, nil
}

// warm gives both servers and the replay engine the set-up the HTTP
// server gets: the warm requests, then the cache fill.
func (r *replayer) warm() error {
	reqs := append([]request(nil), r.w.warm...)
	if r.w.fill != nil {
		capacity := r.eng.Stats().CacheCap
		for k := 0; k < (capacity+3)/4; k++ {
			reqs = append(reqs, r.w.fill(k))
		}
	}
	for i, req := range reqs {
		for _, h := range []http.Handler{r.plain, r.traced} {
			if _, rec := serve(h, req); rec.Code != http.StatusOK {
				return fmt.Errorf("set-up request %d: status %d: %.200s", i, rec.Code, rec.Body.Bytes())
			}
		}
		trees, err := treesOf(req)
		if err != nil {
			return err
		}
		for _, bi := range r.eng.EmbedBatch(context.Background(), trees) {
			if bi.Err != nil {
				return fmt.Errorf("set-up request %d: replay engine: %w", i, bi.Err)
			}
		}
	}
	return nil
}

// run replays the timed request sequence for d.
func (r *replayer) run(d time.Duration, t *tally) (engine.Stats, error) {
	before := r.eng.Stats()
	deadline := time.Now().Add(d)
	for i := 0; time.Now().Before(deadline); i++ {
		req := r.w.at(i)
		// Alternate which server goes first so neither always runs on
		// the caches the other just warmed.
		order := []http.Handler{r.plain, r.traced}
		if i%2 == 1 {
			order[0], order[1] = order[1], order[0]
		}
		var plainDur, tracedDur time.Duration
		var plainRec *httptest.ResponseRecorder
		for _, h := range order {
			dur, rec := serve(h, req)
			o, err := classify(req, rec.Code, rec.Body.Bytes())
			t.add(o, err)
			if h == r.plain {
				plainDur, plainRec = dur, rec
			} else {
				tracedDur = dur
			}
		}
		if err := r.replay(req); err != nil {
			return engine.Stats{}, fmt.Errorf("replay request %d: %w", i, err)
		}
		r.requests++
		r.handlerNs = append(r.handlerNs, float64(plainDur.Nanoseconds()))
		r.tracedNs = append(r.tracedNs, float64(tracedDur.Nanoseconds()))
		if req.path == routeStream && plainRec.Code == http.StatusOK {
			_, st, err := decodeStream(plainRec.Body.Bytes())
			if err == nil {
				r.streams++
				r.streamBytes += float64(plainRec.Body.Len())
				r.streamEvents += float64(st.events)
				r.streamDropped += float64(st.dropped)
			}
		}
	}
	after := r.eng.Stats()
	delta := engine.Stats{Hits: after.Hits - before.Hits, Misses: after.Misses - before.Misses,
		Coalesced: after.Coalesced - before.Coalesced, Evictions: after.Evictions - before.Evictions}
	return delta, nil
}

// replay calls the handler's entry points for one request inside
// benchmark-side spans, then folds the spans into the totals.
func (r *replayer) replay(req request) error {
	tr := trace.New(trace.Config{SampleRate: 1, RingSize: 1 << 14})
	ctx, root := tr.Root(context.Background(), "replay")
	var side func() error
	var err error
	switch req.path {
	case routeEmbed:
		side, err = r.replayEmbed(ctx, root, req.body)
	default:
		side, err = r.replaySimulate(ctx, root, req)
	}
	root.End()
	if err != nil {
		return err
	}
	if tr.Dropped() > 0 {
		return fmt.Errorf("span ring overflowed (%d dropped)", tr.Dropped())
	}
	r.fold(tr.Spans())
	return side()
}

func decodeStrict(body []byte, v interface{}) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

func (r *replayer) encode(root *trace.Span, v interface{}) {
	sp := root.Child("server.encode")
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		panic(err) // the server's own response types always encode
	}
	sp.End()
}

// verify is the handler's per-item metric work: the Embedding
// conversion, DilationParallel, AverageDilation, MaxLoad, Expansion.
func verify(emb *metrics.Embedding, load func() int) (int, float64, int, float64) {
	return emb.DilationParallel(), emb.AverageDilation(), load(), emb.Expansion()
}

func (r *replayer) replayEmbed(ctx context.Context, root *trace.Span, body []byte) (func() error, error) {
	sp := root.Child("server.decode")
	var req server.EmbedRequest
	err := decodeStrict(body, &req)
	sp.End()
	if err != nil {
		return nil, err
	}
	specs := req.Trees
	if req.Tree != nil {
		specs = []server.TreeSpec{*req.Tree}
	}
	sp = root.Child("bintree.generate")
	trees := make([]*bintree.Tree, len(specs))
	for i, ts := range specs {
		if trees[i], err = generateTree(ts); err != nil {
			sp.End()
			return nil, err
		}
	}
	sp.End()
	sp = root.Child("engine.batch")
	items := r.eng.EmbedBatch(trace.ContextWithSpan(ctx, sp), trees)
	sp.End()
	hyper := req.Host == server.HostHypercube
	out := make([]server.EmbedItem, len(items))
	var xtreeEmbs []*metrics.Embedding
	var computed []*bintree.Tree
	for i, bi := range items {
		if bi.Err != nil {
			return nil, bi.Err
		}
		if !bi.CacheHit && !bi.Coalesced {
			computed = append(computed, bi.Tree)
		}
		it := server.EmbedItem{Index: i, N: bi.Tree.N(), CacheHit: bi.CacheHit}
		if hyper {
			hsp := root.Child("core.hypercube")
			hr := core.EmbedHypercubeContext(trace.ContextWithSpan(ctx, hsp), bi.Result)
			hsp.End()
			sp = root.Child("metrics.verify")
			emb := hr.Embedding()
			it.Host, it.HostVertices, it.Height = server.HostHypercube, hr.Host.NumVertices(), hr.Host.Dim()
			it.Dilation, it.AvgDilation, it.MaxLoad, it.Expansion = verify(emb, emb.MaxLoad)
			sp.End()
		} else {
			sp = root.Child("metrics.verify")
			emb := bi.Result.Embedding()
			it.Host, it.HostVertices, it.Height = server.HostXTree, bi.Result.Host.NumVertices(), bi.Result.Host.Height()
			it.Dilation, it.AvgDilation, it.MaxLoad, it.Expansion = verify(emb, bi.Result.MaxLoad)
			sp.End()
			xtreeEmbs = append(xtreeEmbs, emb)
		}
		out[i] = it
	}
	r.encode(root, server.EmbedResponse{Items: out})
	return func() error {
		for _, emb := range xtreeEmbs {
			r.countDistances(emb)
		}
		for _, t := range computed {
			if len(r.allocs) < allocSamples {
				if err := r.sampleAllocs(t); err != nil {
					return err
				}
			}
		}
		return nil
	}, nil
}

// countingHost records every distance query the metric walks make.
type countingHost struct {
	metrics.Host
	pairs [][2]int64
}

func (h *countingHost) Distance(u, v int64) int {
	h.pairs = append(h.pairs, [2]int64{u, v})
	return h.Host.Distance(u, v)
}

// countDistances repeats the handler's two metric walks with a counting
// host, then times the recorded queries alone on the real host.
func (r *replayer) countDistances(emb *metrics.Embedding) {
	ch := &countingHost{Host: emb.Host}
	counted := *emb
	counted.Host = ch
	counted.Dilation()
	counted.AverageDilation()
	start := time.Now()
	for _, p := range ch.pairs {
		r.sink += emb.Host.Distance(p[0], p[1])
	}
	r.distLoopNs += float64(time.Since(start).Nanoseconds())
	r.distCalls += float64(len(ch.pairs))
}

// sampleAllocs counts the heap allocations of one direct embed.
func (r *replayer) sampleAllocs(t *bintree.Tree) error {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := core.EmbedXTree(t, core.DefaultOptions())
	runtime.ReadMemStats(&after)
	if err != nil {
		return err
	}
	r.allocs = append(r.allocs, float64(after.Mallocs-before.Mallocs))
	return nil
}

func (r *replayer) replaySimulate(ctx context.Context, root *trace.Span, req request) (func() error, error) {
	sp := root.Child("server.decode")
	var sr server.SimulateRequest
	err := decodeStrict(req.body, &sr)
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = root.Child("bintree.generate")
	tree, err := generateTree(*sr.Tree)
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = root.Child("engine.batch")
	bi := r.eng.EmbedBatch(trace.ContextWithSpan(ctx, sp), []*bintree.Tree{tree})[0]
	sp.End()
	if bi.Err != nil {
		return nil, bi.Err
	}
	res := bi.Result
	sp = root.Child("metrics.verify")
	it := server.EmbedItem{N: tree.N(), Host: server.HostXTree, HostVertices: res.Host.NumVertices(),
		Height: res.Host.Height(), CacheHit: bi.CacheHit}
	emb := res.Embedding()
	it.Dilation, it.AvgDilation, it.MaxLoad, it.Expansion = verify(emb, res.MaxLoad)
	sp.End()
	sp = root.Child("netsim.prepare")
	cfg := simConfig(&sr, res)
	sp.End()
	if req.path == routeStream {
		return r.replayStream(ctx, root, &sr, tree, cfg, it, emb)
	}

	resp := server.SimulateResponse{Embed: it}
	start := time.Now()
	sp = root.Child("netsim.run")
	hostRes, err := netsim.RunContext(ctx, cfg, simWorkload(&sr, tree))
	sp.End()
	hostNs := float64(time.Since(start).Nanoseconds())
	if err != nil {
		return nil, err
	}
	resp.Sim = wantCounters(hostRes)
	start = time.Now()
	sp = root.Child("netsim.baseline")
	idealG := tree.AsGraph()
	ideal, err := netsim.RunContext(ctx, netsim.Config{Host: idealG, Place: netsim.IdentityPlacement(tree.N()),
		MaxCycles: sr.MaxCycles}, simWorkload(&sr, tree))
	sp.End()
	idealNs := float64(time.Since(start).Nanoseconds())
	if err != nil {
		return nil, err
	}
	resp.IdealCycles = ideal.Cycles
	resp.Slowdown = float64(hostRes.Cycles) / float64(ideal.Cycles)
	r.encode(root, resp)
	return func() error {
		r.countDistances(emb)
		// Route tables timed on the same graphs the runs built them for.
		start := time.Now()
		netsim.BuildNextHopTables(cfg.Host)
		buildHost := float64(time.Since(start).Nanoseconds())
		start = time.Now()
		netsim.BuildNextHopTables(idealG)
		buildIdeal := float64(time.Since(start).Nanoseconds())
		r.simRuns++
		r.runHostNs += hostNs
		r.runIdealNs += idealNs
		r.buildHostNs += buildHost
		r.buildIdealNs += buildIdeal
		r.simHops += float64(hostRes.HopsTotal + ideal.HopsTotal)
		r.simCycles += float64(hostRes.Cycles + ideal.Cycles)
		return nil
	}, nil
}

// replayStream mirrors handleSimulateStream: the simulation publishes
// into a session hub on its own goroutine while this one encodes the
// subscriber's batches as NDJSON.
func (r *replayer) replayStream(ctx context.Context, root *trace.Span, sr *server.SimulateRequest,
	tree *bintree.Tree, cfg netsim.Config, it server.EmbedItem, emb *metrics.Embedding) (func() error, error) {
	sp := root.Child("telemetry.start")
	hub := telemetry.NewHub(0)
	rec := telemetry.NewRecorder(hub, "replay")
	simCfg := cfg
	simCfg.Observers = append(simCfg.Observers, rec)
	startPayload, _ := json.Marshal(struct {
		Embed      server.EmbedItem `json:"embed"`
		Workload   string           `json:"workload"`
		TreeNodes  int              `json:"tree_nodes"`
		Partitions int              `json:"partitions,omitempty"`
	}{it, sr.Workload, tree.N(), sr.Partitions})
	rec.Publish(telemetry.Event{TraceEvent: netsim.TraceEvent{Type: telemetry.EventStart}, Payload: startPayload})
	sp.End()

	var barrierNs int64
	dcfg := distsim.Config{Sim: simCfg, Partitions: sr.Partitions, Partition: distsim.XTreeSubtrees,
		ShardSampler: func(sm distsim.ShardSample) {
			barrierNs += sm.BarrierWaitNanos
			rec.Publish(shardEvent(sm))
		}}
	var simRes netsim.Result
	var st distsim.Stats
	var simErr error
	var runNs float64
	done := make(chan struct{})
	go func() {
		defer close(done)
		start := time.Now()
		dsp := root.Child("distsim.run")
		simRes, st, simErr = distsim.RunStats(ctx, dcfg, simWorkload(sr, tree))
		dsp.End()
		runNs = float64(time.Since(start).Nanoseconds())
		psp := root.Child("telemetry.result")
		if simErr == nil {
			payload, _ := json.Marshal(server.SimulateResponse{Embed: it, Sim: wantCounters(simRes)})
			rec.Publish(telemetry.Event{TraceEvent: netsim.TraceEvent{Type: telemetry.EventResult}, Payload: payload})
		}
		hub.Close()
		psp.End()
	}()
	sub := hub.Subscribe(0)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	for {
		events, _, ok, err := sub.Next(ctx, 256)
		if err != nil || !ok {
			break
		}
		esp := root.Child("server.encode")
		for i := range events {
			enc.Encode(&events[i])
		}
		esp.End()
	}
	sub.Close()
	<-done
	if simErr != nil {
		return nil, simErr
	}
	return func() error {
		r.countDistances(emb)
		// The observer alone is priced on two further runs, with nothing
		// else running: one publishing as above into a hub that no
		// subscriber drains, and one without the Recorder and the sampler.
		// Their order alternates so neither always runs on a warmer cache.
		quiet := telemetry.NewHub(0)
		defer quiet.Close()
		qrec := telemetry.NewRecorder(quiet, "replay")
		observed := dcfg
		observed.Sim.Observers = append(append([]netsim.Observer(nil), cfg.Observers...), qrec)
		observed.ShardSampler = func(sm distsim.ShardSample) { qrec.Publish(shardEvent(sm)) }
		bare := distsim.Config{Sim: cfg, Partitions: sr.Partitions, Partition: distsim.XTreeSubtrees}
		var observedNs, bareNs float64
		runs := []struct {
			cfg distsim.Config
			ns  *float64
		}{{observed, &observedNs}, {bare, &bareNs}}
		if r.distRuns%2 == 1 {
			runs[0], runs[1] = runs[1], runs[0]
		}
		for _, run := range runs {
			start := time.Now()
			if _, _, err := distsim.RunStats(ctx, run.cfg, simWorkload(sr, tree)); err != nil {
				return err
			}
			*run.ns = float64(time.Since(start).Nanoseconds())
		}
		r.distObservedNs = append(r.distObservedNs, observedNs)
		r.distBareNs = append(r.distBareNs, bareNs)
		r.distRuns++
		r.distRunNs = append(r.distRunNs, runNs)
		r.distHops += float64(simRes.HopsTotal)
		r.distBarrierNs += float64(barrierNs)
		r.distPartsNs += runNs * float64(sr.Partitions)
		r.distBoundaryBytes += float64(st.BoundaryBytes)
		return nil
	}, nil
}

// shardEvent is the stream event the server publishes for a shard sample.
func shardEvent(sm distsim.ShardSample) telemetry.Event {
	return telemetry.Event{
		TraceEvent: netsim.TraceEvent{Type: telemetry.EventShard, Cycle: sm.Cycle},
		Shard:      sm.Shard, Hops: sm.Hops, BoundaryOut: sm.BoundaryOut,
		BarrierWaitNanos: sm.BarrierWaitNanos,
	}
}

// ival is one span as an interval.
type ival struct {
	name       string
	start, end int64
	depth      int
}

// contains reports whether a strictly encloses b; equal intervals nest
// by depth, then by position.
func contains(a, b ival, ai, bi int) bool {
	if a.start > b.start || a.end < b.end {
		return false
	}
	if a.start < b.start || a.end > b.end {
		return true
	}
	if a.depth != b.depth {
		return a.depth < b.depth
	}
	return ai < bi
}

// selfTimes splits the wall time the spans cover among them: each
// instant goes to the innermost spans running then, shared equally when
// several run at once.  It returns nanoseconds per span name.
func selfTimes(spans []ival) map[string]float64 {
	var bounds []int64
	for _, s := range spans {
		bounds = append(bounds, s.start, s.end)
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	out := map[string]float64{}
	var active, inner []int
	for k := 0; k+1 < len(bounds); k++ {
		lo, hi := bounds[k], bounds[k+1]
		if lo == hi {
			continue
		}
		active = active[:0]
		for i, s := range spans {
			if s.start <= lo && s.end >= hi {
				active = append(active, i)
			}
		}
		inner = inner[:0]
		for _, i := range active {
			innermost := true
			for _, j := range active {
				if i != j && contains(spans[i], spans[j], i, j) {
					innermost = false
					break
				}
			}
			if innermost {
				inner = append(inner, i)
			}
		}
		share := float64(hi-lo) / float64(len(inner))
		for _, i := range inner {
			out[spans[i].name] += share
		}
	}
	return out
}

// fold adds one replayed request's spans to the totals.
func (r *replayer) fold(data []trace.SpanData) {
	byID := make(map[string]int, len(data))
	for i, d := range data {
		byID[d.Span] = i
	}
	depth := make([]int, len(data))
	var depthOf func(i int) int
	depthOf = func(i int) int {
		if depth[i] == 0 {
			depth[i] = 1
			if p, ok := byID[data[i].Parent]; ok {
				depth[i] = depthOf(p) + 1
			}
		}
		return depth[i]
	}
	spans := make([]ival, len(data))
	children := make(map[int][]int)
	rootIdx := -1
	for i, d := range data {
		spans[i] = ival{d.Name, d.Start, d.Start + d.Dur, depthOf(i)}
		if p, ok := byID[d.Parent]; ok {
			children[p] = append(children[p], i)
		} else {
			rootIdx = i
		}
	}
	self := selfTimes(spans)
	for name, ns := range self {
		if i := rootIdx; i >= 0 && name == data[i].Name {
			continue
		}
		r.coveredNs += ns
		if m, ok := layerOf[name]; ok {
			r.layerNs[m] += ns
		}
	}
	// Per computed tree: the embedder's phases, self time within that
	// one compute (it runs serially on one worker).
	for i, d := range data {
		if d.Name != "engine.embed-compute" {
			continue
		}
		r.computes++
		r.computeNs += float64(d.Dur)
		sub := []ival{spans[i]}
		stack := append([]int(nil), children[i]...)
		for len(stack) > 0 {
			j := stack[len(stack)-1]
			stack = append(stack[:len(stack)-1], children[j]...)
			sub = append(sub, spans[j])
		}
		for name, ns := range selfTimes(sub) {
			if m, ok := corePhaseOf[name]; ok {
				r.coreNs[m] += ns
			}
		}
	}
}

// layerMetrics turns the totals into the per-layer metrics.
func (r *replayer) layerMetrics(eng engine.Stats, shedFrac float64) map[string]float64 {
	req := float64(r.requests)
	us := func(ns float64) float64 { return ratio(ns, req) / 1e3 }
	m := map[string]float64{}
	for _, name := range []string{"server.decode_us", "server.encode_us", "bintree.generate_us",
		"bintree.canonical_us", "engine.batch_us", "engine.queue_wait_us", "core.hypercube_us", "metrics.verify_us"} {
		m[name] = us(r.layerNs[name])
	}
	handler := mean(r.handlerNs)
	m["server.handler_us"] = handler / 1e3
	m["server.shed_frac"] = shedFrac
	m["server.stream_bytes"] = ratio(r.streamBytes, float64(r.streams))

	m["engine.hit_ratio"] = ratio(float64(eng.Hits+eng.Coalesced), float64(eng.Lookups()))
	m["engine.evictions"] = ratio(float64(eng.Evictions), req)

	m["core.embed_us"] = ratio(r.computeNs, float64(r.computes)) / 1e3
	for _, name := range corePhaseOf {
		m[name] = ratio(r.coreNs[name], float64(r.computes)) / 1e3
	}
	m["core.embed_allocs"] = mean(r.allocs)

	m["xtree.distance_calls"] = ratio(r.distCalls, req)
	m["xtree.distance_ns"] = ratio(r.distLoopNs, r.distCalls)

	sims := float64(r.simRuns)
	loopNs := r.runHostNs + r.runIdealNs - r.buildHostNs - r.buildIdealNs
	m["netsim.route_build_host_ms"] = ratio(r.buildHostNs, sims) / 1e6
	m["netsim.route_build_ideal_ms"] = ratio(r.buildIdealNs, sims) / 1e6
	m["netsim.loop_ms"] = ratio(loopNs, sims) / 1e6
	m["netsim.hops_per_s"] = ratio(r.simHops, loopNs/1e9)
	m["netsim.cycles_per_s"] = ratio(r.simCycles, loopNs/1e9)
	var cycles, hops, retx float64
	for _, ref := range r.w.sims {
		cycles += float64(ref.res.Cycles)
		hops += float64(ref.res.HopsTotal)
		retx += float64(ref.res.Retransmits)
	}
	m["netsim.cycles"], m["netsim.hops"], m["netsim.retransmits"] = cycles, hops, retx

	dist := float64(r.distRuns)
	var runNs float64
	for _, ns := range r.distRunNs {
		runNs += ns
	}
	m["distsim.run_ms"] = ratio(runNs, dist) / 1e6
	m["distsim.hops_per_s"] = ratio(r.distHops, runNs/1e9)
	m["distsim.barrier_wait_frac"] = ratio(r.distBarrierNs, r.distPartsNs)
	m["distsim.boundary_bytes"] = ratio(r.distBoundaryBytes, dist)

	m["telemetry.events_per_session"] = ratio(r.streamEvents, float64(r.streams))
	m["telemetry.dropped_frac"] = ratio(r.streamDropped, r.streamEvents+r.streamDropped)
	if len(r.distBareNs) > 0 {
		m["telemetry.observer_overhead_frac"] = median(append([]float64(nil), r.distObservedNs...))/
			median(append([]float64(nil), r.distBareNs...)) - 1
	} else {
		m["telemetry.observer_overhead_frac"] = 0
	}

	covered := ratio(r.coveredNs, req)
	m["unaccounted_us"] = (handler - covered) / 1e3
	m["trace.coverage_frac"] = ratio(covered, handler)
	m["trace.overhead_frac"] = median(append([]float64(nil), r.tracedNs...))/
		median(append([]float64(nil), r.handlerNs...)) - 1
	return m
}
