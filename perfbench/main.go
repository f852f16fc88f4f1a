// Command perfbench is the repository benchmark.  It boots the real
// server (the xtree-serve binary, default serving config), drives one of
// four traffic workloads over HTTP, validates every response, and prints
// every metric by name and unit.  The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// With -trace 0 it reports the end-to-end metrics (set-up time,
// closed-loop throughput, open-loop latency at the workload's fixed
// rate, peak server memory).  With -trace 1 it reports the per-layer
// breakdown from an in-process traced replay of the same requests.
//
// Run it through perfbench/run.sh from the repository root, which builds
// both binaries first; see perfbench/README.md for every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// Units of every metric the benchmark reports.
var units = map[string]string{
	"setup_s":         "s",
	"throughput_rps":  "req/s",
	"latency_p50_ms":  "ms",
	"latency_tail_ms": "ms",
	"peak_rss_mb":     "MiB",

	"server.decode_us":                 "us",
	"server.encode_us":                 "us",
	"server.handler_us":                "us",
	"server.shed_frac":                 "ratio",
	"server.stream_bytes":              "B",
	"bintree.generate_us":              "us",
	"bintree.canonical_us":             "us",
	"engine.hit_ratio":                 "ratio",
	"engine.batch_us":                  "us",
	"engine.queue_wait_us":             "us",
	"engine.evictions":                 "1/req",
	"core.embed_us":                    "us",
	"core.embed_allocs":                "allocs",
	"core.host_build_us":               "us",
	"core.rounds_us":                   "us",
	"core.separator_us":                "us",
	"core.final_pass_us":               "us",
	"core.hypercube_us":                "us",
	"metrics.verify_us":                "us",
	"xtree.distance_calls":             "calls/req",
	"xtree.distance_ns":                "ns",
	"netsim.route_build_host_ms":       "ms",
	"netsim.route_build_ideal_ms":      "ms",
	"netsim.loop_ms":                   "ms",
	"netsim.hops_per_s":                "1/s",
	"netsim.cycles_per_s":              "1/s",
	"netsim.cycles":                    "count",
	"netsim.hops":                      "count",
	"netsim.retransmits":               "count",
	"distsim.run_ms":                   "ms",
	"distsim.hops_per_s":               "1/s",
	"distsim.barrier_wait_frac":        "ratio",
	"distsim.boundary_bytes":           "B",
	"telemetry.events_per_session":     "count",
	"telemetry.dropped_frac":           "ratio",
	"telemetry.observer_overhead_frac": "ratio",
	"unaccounted_us":                   "us",
	"trace.coverage_frac":              "ratio",
	"trace.overhead_frac":              "ratio",
}

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	server   string
	conns    int
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "embed-warm", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&cfg.seed, "seed", DefaultSeed, fmt.Sprintf("workload seed (recorded default %d; held-out seed %d)", DefaultSeed, HeldOutSeed))
	flag.IntVar(&cfg.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the traced run")
	flag.StringVar(&cfg.server, "server", "", "path to the xtree-serve binary")
	flag.Parse()
	cfg.trace = traceFlag == 1
	// One client connection per CPU: the load generator shares the
	// machine with the server and must not outnumber it.
	cfg.conns = runtime.NumCPU()
	if err := validate(cfg, traceFlag); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	env := environment()
	fmt.Printf("env: %s workload=%s seed=%d seconds=%d trace=%d connections=%d\n",
		env, cfg.workload, cfg.seed, cfg.seconds, traceFlag, cfg.conns)
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	for _, name := range sortedKeys(res.Metrics) {
		fmt.Printf("metric %-34s %14.6g %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func validate(cfg config, traceFlag int) error {
	if cfg.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	if traceFlag != 0 && traceFlag != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	if cfg.server == "" {
		return fmt.Errorf("-server is required (run through perfbench/run.sh)")
	}
	return nil
}

// environment records what a result depends on besides the code: CPUs,
// GOMAXPROCS, Go version and commit.
func environment() string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					commit += "+dirty"
				}
			}
		}
	}
	return fmt.Sprintf("num_cpu=%d gomaxprocs=%d go=%s commit=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func run(cfg config) (result, error) {
	w, err := buildWorkload(cfg.workload, cfg.seed)
	if err != nil {
		return result{}, err
	}
	if cfg.trace {
		return runTraced(cfg, w)
	}
	return runEndToEnd(cfg, w)
}

func withUnits(vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(vals))
	for k, v := range vals {
		out[k] = metric{Value: v, Unit: units[k]}
	}
	return out
}

// checkPrecondition verifies the cache behaviour the workload exists to
// exercise, from the server's counters around a timed phase.
func checkPrecondition(w *workload, phase string, d engineCounters) error {
	fmt.Printf("  engine %s: lookups=%v hits=%v misses=%v coalesced=%v evictions=%v",
		phase, d.lookups(), d.hits, d.misses, d.coalesced, d.evictions)
	if d.capacity > 0 {
		fmt.Printf(" entries=%v/%v", d.entries, d.capacity)
	}
	fmt.Println()
	if w.allHits && (d.lookups() == 0 || d.hits != d.lookups()) {
		return fmt.Errorf("%s: hit ratio %v/%v, workload requires every lookup to hit", phase, d.hits, d.lookups())
	}
	if w.noHits && d.hits+d.coalesced > 0 {
		return fmt.Errorf("%s: %v hits and %v coalesced, workload requires every lookup to miss", phase, d.hits, d.coalesced)
	}
	return nil
}

// roundStride spaces the request indices of successive rounds and
// phases, so each phase's request stream is fixed by the seed alone,
// whatever number of requests earlier phases managed.
const roundStride = 1 << 20

// round is one server lifetime of an end-to-end run.
type round struct {
	setup  float64
	closed *closedResult
	open   *openResult
	rss    float64
}

// runEndToEnd runs the workload's rounds, tracing off.  Each round boots
// a fresh server, sets it up, runs a slice of the closed-loop capacity
// phase and then of the open-loop latency phase, and stops it.  Every
// metric is the median over rounds, so neither one slow process nor one
// stall of the shared machine moves it.
func runEndToEnd(cfg config, w *workload) (result, error) {
	// One spare P beyond the connections keeps the arrival generator
	// from waiting for a client goroutine to yield before it can send.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(cfg.conns + 1))
	// The client's own collections compete with the server for the
	// same CPUs; a larger heap goal makes them rare (the client's live
	// heap is a few MiB).
	defer debug.SetGCPercent(debug.SetGCPercent(400))
	client := newClient(cfg.conns)
	defer client.CloseIdleConnections()
	total := time.Duration(cfg.seconds) * time.Second
	capD := total * 4 / 10 / time.Duration(w.setups)
	latD := total * 6 / 10 / time.Duration(w.setups)
	correct := true
	var rounds []round
	for k := 0; k < w.setups; k++ {
		r, ok, err := runRound(cfg, w, client, k, capD, latD)
		client.CloseIdleConnections()
		if err != nil {
			return result{}, fmt.Errorf("round %d: %w", k+1, err)
		}
		correct = correct && ok
		rounds = append(rounds, r)
	}

	var setups, tput, p50s, tails, rss []float64
	samples := 0
	res := result{Correct: correct}
	for _, r := range rounds {
		setups = append(setups, r.setup)
		tput = append(tput, r.closed.throughput())
		rss = append(rss, r.rss)
		p50s = append(p50s, median(append([]float64(nil), r.open.latencies...)))
		samples += len(r.open.latencies)
		res.Attempted += r.closed.attempted + r.open.attempted
		res.Failed += r.closed.failed + r.open.failed
	}
	// The tail is the highest ladder percentile with ten samples beyond
	// it in every round, taken per round; the median round is reported.
	fewest := len(rounds[0].open.latencies)
	for _, r := range rounds {
		fewest = min(fewest, len(r.open.latencies))
	}
	// A round whose tail exceeds the workload's limit did not sustain
	// the open loop's rate, and the run is incorrect.
	_, tailP, beyond := tail(make([]float64, fewest))
	for k, r := range rounds {
		sorted := append([]float64(nil), r.open.latencies...)
		sort.Float64s(sorted)
		t := percentile(sorted, tailP)
		if t > w.tailLimitMS {
			fmt.Printf("round %d: tail p%g = %.3f ms exceeds the limit of %.0f ms\n", k+1, tailP, t, w.tailLimitMS)
			res.Correct = false
		}
		tails = append(tails, t)
	}
	if n := w.streams.events.Load(); n > 0 {
		fmt.Printf("streams: %d events decoded, %d reported dropped (all phases)\n", n, w.streams.dropped.Load())
	}
	tailV := median(tails)
	fmt.Printf("latency: tail=p%g, median over %d rounds (%d samples, at least %d per round with %d beyond) limit=%.0f ms per round\n",
		tailP, len(rounds), samples, fewest, beyond, w.tailLimitMS)
	res.Metrics = withUnits(map[string]float64{
		"setup_s":         median(setups),
		"throughput_rps":  median(tput),
		"latency_p50_ms":  median(p50s),
		"latency_tail_ms": tailV,
		"peak_rss_mb":     median(rss),
	})
	return res, nil
}

// runRound is one round: set-up, then the two timed phases with the
// workload's preconditions checked around each.  ok is false when a
// response failed validation, a precondition failed, or the open loop
// was invalid.
func runRound(cfg config, w *workload, client *http.Client, k int, capD, latD time.Duration) (round, bool, error) {
	p, d, err := setup(cfg.server, w, client, cfg.conns)
	if err != nil {
		return round{}, false, err
	}
	defer p.stop()
	r := round{setup: d.Seconds()}
	fmt.Printf("round %d: setup %.4f s\n", k+1, r.setup)
	ok := true
	c0, err := scrapeEngine(client, p.url)
	if err != nil {
		return r, false, err
	}
	r.closed = closedLoop(client, p.url, w, (2*k)*roundStride, cfg.conns, capD)
	c1, err := scrapeEngine(client, p.url)
	if err != nil {
		return r, false, err
	}
	if err := checkPrecondition(w, "capacity", c1.sub(c0)); err != nil {
		fmt.Printf("precondition failed: %v\n", err)
		ok = false
	}
	r.open = openLoop(client, p.url, w, (2*k+1)*roundStride, cfg.conns, latD)
	c2, err := scrapeEngine(client, p.url)
	if err != nil {
		return r, false, err
	}
	if err := checkPrecondition(w, "latency", c2.sub(c1)); err != nil {
		fmt.Printf("precondition failed: %v\n", err)
		ok = false
	}
	if r.rss, err = p.peakRSSMiB(); err != nil {
		return r, false, err
	}
	if r.closed.ok == 0 || len(r.open.latencies) == 0 {
		return r, false, fmt.Errorf("no successful requests (capacity: %s; latency: %s)", &r.closed.tally, &r.open.tally)
	}
	o := r.open
	fmt.Printf("  peak RSS %.1f MiB\n", r.rss)
	fmt.Printf("  capacity (closed loop, %d connections, %v): %s throughput_rps=%.2f\n",
		cfg.conns, r.closed.d.Round(time.Millisecond), &r.closed.tally, r.closed.throughput())
	fmt.Printf("  latency (open loop, fixed rate %.0f req/s, %d scheduled): %s p50=%.3f ms\n",
		w.rate, o.scheduled, &o.tally, median(append([]float64(nil), o.latencies...)))
	fmt.Printf("  generator: lateness p50=%v p90=%v p99=%v max=%v (bound p90 %v) backlog mean first-half=%.2f second-half=%.2f (growth bound %.0f) drain=%v valid=%v\n",
		o.lateP50, o.lateP90, o.lateP99, o.lateMax, o.lateBound, o.backlogA, o.backlogB, maxBacklogGrow,
		o.finishLate.Round(time.Millisecond), o.valid())
	if !o.valid() || r.closed.bad > 0 || o.bad > 0 {
		ok = false
	}
	return r, ok, nil
}

// runTraced measures shedding over HTTP for a quarter of the run, then
// replays the request sequence in-process with spans for the rest.
func runTraced(cfg config, w *workload) (result, error) {
	total := time.Duration(cfg.seconds) * time.Second
	client := newClient(cfg.conns)
	p, d, err := setup(cfg.server, w, client, cfg.conns)
	if err != nil {
		return result{}, err
	}
	fmt.Printf("setup: %.4f s\n", d.Seconds())
	correct := true
	c0, err := scrapeEngine(client, p.url)
	if err != nil {
		p.stop()
		return result{}, err
	}
	closed := closedLoop(client, p.url, w, 0, cfg.conns, total/4)
	c1, err := scrapeEngine(client, p.url)
	client.CloseIdleConnections()
	p.stop()
	if err != nil {
		return result{}, err
	}
	fmt.Printf("phase capacity (closed loop, %d connections): %s\n", cfg.conns, &closed.tally)
	if err := checkPrecondition(w, "capacity", c1.sub(c0)); err != nil {
		fmt.Printf("precondition failed: %v\n", err)
		correct = false
	}

	r := newReplayer(w)
	defer r.close()
	if err := r.warm(); err != nil {
		return result{}, err
	}
	var t tally
	eng, err := r.run(total-total/4, &t)
	if err != nil {
		return result{}, err
	}
	fmt.Printf("phase traced replay (%d requests, each through both servers): %s\n", r.requests, &t)
	correct = correct && closed.bad == 0 && t.bad == 0
	if err := checkPrecondition(w, "replay", engineCounters{hits: float64(eng.Hits), misses: float64(eng.Misses),
		coalesced: float64(eng.Coalesced), evictions: float64(eng.Evictions)}); err != nil {
		fmt.Printf("precondition failed: %v\n", err)
		correct = false
	}
	m := r.layerMetrics(eng, ratio(float64(closed.shed), float64(closed.attempted)))
	return result{
		Correct:   correct,
		Attempted: closed.attempted + t.attempted,
		Failed:    closed.failed + t.failed,
		Metrics:   withUnits(m),
	}, nil
}
