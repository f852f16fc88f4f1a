package main

// load.go drives the real server: it boots the xtree-serve binary as a
// child process, runs set-up, and measures the closed-loop capacity and
// open-loop latency phases over HTTP with at most nproc connections.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// serverProc is one xtree-serve child process.
type serverProc struct {
	cmd    *exec.Cmd
	url    string
	exited chan struct{}
	mu     sync.Mutex
	logs   []string // last stderr lines, for diagnostics
}

// startServer boots the server with its default serving config on an
// ephemeral port and waits until it listens.  -quiet turns off the
// per-request access log, which would otherwise be measured as well.
func startServer(bin string) (*serverProc, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-quiet")
	// The server must not outlive the benchmark, even when the benchmark
	// itself is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	p := &serverProc{cmd: cmd, exited: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			if p.logs = append(p.logs, line); len(p.logs) > 20 {
				p.logs = p.logs[1:]
			}
			p.mu.Unlock()
			if i := strings.Index(line, "listening on "); i >= 0 {
				select {
				case addr <- strings.TrimSpace(line[i+len("listening on "):]):
				default:
				}
			}
		}
		cmd.Wait()
		close(p.exited)
	}()
	select {
	case p.url = <-addr:
		return p, nil
	case <-p.exited:
		return nil, fmt.Errorf("server exited before listening: %s", p.lastLogs())
	case <-time.After(60 * time.Second):
		p.stop()
		return nil, fmt.Errorf("server did not listen within 60s")
	}
}

func (p *serverProc) lastLogs() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.logs, " | ")
}

// peakRSSMiB reads the child's peak resident set (VmHWM).
func (p *serverProc) peakRSSMiB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", p.cmd.Process.Pid)
}

// stop drains the server with SIGTERM and waits for it to exit, killing
// it if the drain takes too long.
func (p *serverProc) stop() {
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.exited:
	case <-time.After(40 * time.Second):
		p.cmd.Process.Kill()
		<-p.exited
	}
}

// engineCounters are the server's engine totals from /metrics.
type engineCounters struct {
	hits, misses, coalesced, evictions, entries, capacity float64
}

func (c engineCounters) sub(o engineCounters) engineCounters {
	return engineCounters{c.hits - o.hits, c.misses - o.misses, c.coalesced - o.coalesced,
		c.evictions - o.evictions, c.entries, c.capacity}
}

func (c engineCounters) lookups() float64 { return c.hits + c.misses + c.coalesced }

// scrapeEngine reads the unlabelled engine families of GET /metrics.
func scrapeEngine(client *http.Client, url string) (engineCounters, error) {
	resp, err := client.Get(url + "/metrics")
	if err != nil {
		return engineCounters{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return engineCounters{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return engineCounters{}, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	var c engineCounters
	fields := map[string]*float64{
		"xtreesim_engine_cache_hits_total":      &c.hits,
		"xtreesim_engine_cache_misses_total":    &c.misses,
		"xtreesim_engine_coalesced_total":       &c.coalesced,
		"xtreesim_engine_cache_evictions_total": &c.evictions,
		"xtreesim_engine_cache_entries":         &c.entries,
		"xtreesim_engine_cache_capacity":        &c.capacity,
	}
	found := 0
	for _, line := range strings.Split(string(body), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if dst := fields[name]; ok && dst != nil {
			if *dst, err = strconv.ParseFloat(strings.TrimSpace(val), 64); err != nil {
				return c, fmt.Errorf("/metrics %s: %w", name, err)
			}
			found++
		}
	}
	if found != len(fields) {
		return c, fmt.Errorf("/metrics: found %d of %d engine families", found, len(fields))
	}
	return c, nil
}

func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns,
			DisableCompression: true},
		Timeout: 30 * time.Second,
	}
}

// outcome classifies one request.
type outcome int

const (
	outOK outcome = iota
	outShed
	outFailed  // transport error, timeout, or a non-200 other than 429
	outInvalid // a 200 whose body fails validation
)

// do sends one request, reads the whole body and classifies it.
func do(client *http.Client, base string, r request) (outcome, error) {
	resp, err := client.Post(base+r.path, "application/json", bytes.NewReader(r.body))
	if err != nil {
		return outFailed, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return outFailed, err
	}
	return classify(r, resp.StatusCode, body)
}

// classify maps a response to its outcome, validating a 200's body.
func classify(r request, status int, body []byte) (outcome, error) {
	switch {
	case status == http.StatusTooManyRequests:
		return outShed, nil
	case status != http.StatusOK:
		return outFailed, fmt.Errorf("status %d: %.200s", status, body)
	}
	if err := r.check(body); err != nil {
		return outInvalid, err
	}
	return outOK, nil
}

// tally counts a phase's outcomes.  failed includes shed and invalid.
type tally struct {
	mu                               sync.Mutex
	attempted, ok, shed, failed, bad int
	firstErr                         error
}

func (t *tally) add(o outcome, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	switch o {
	case outOK:
		t.ok++
	case outShed:
		t.shed++
		t.failed++
	default:
		t.failed++
		if o == outInvalid {
			t.bad++
		}
		if t.firstErr == nil {
			t.firstErr = err
		}
	}
}

func (t *tally) String() string {
	s := fmt.Sprintf("attempted=%d ok=%d shed=%d failed=%d invalid=%d", t.attempted, t.ok, t.shed, t.failed, t.bad)
	if t.firstErr != nil {
		s += fmt.Sprintf(" first_error=%q", t.firstErr.Error())
	}
	return s
}

// sendAll sends reqs over conns connections, stopping at the first
// failure.
func sendAll(client *http.Client, base string, reqs []request, conns int) error {
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, conns)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) || errs[c] != nil {
					return
				}
				if o, err := do(client, base, reqs[i]); o != outOK {
					errs[c] = fmt.Errorf("set-up request %d: outcome %d: %v", i, o, err)
				}
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// setup boots a server and runs the workload's warm-up on it, up to the
// moment the first timed request may go out.
func setup(bin string, w *workload, client *http.Client, conns int) (*serverProc, time.Duration, error) {
	start := time.Now()
	p, err := startServer(bin)
	if err != nil {
		return nil, 0, err
	}
	fail := func(err error) (*serverProc, time.Duration, error) {
		p.stop()
		return nil, 0, err
	}
	if err := sendAll(client, p.url, w.warm, conns); err != nil {
		return fail(err)
	}
	if w.fill != nil {
		c, err := scrapeEngine(client, p.url)
		if err != nil {
			return fail(err)
		}
		// Every fill request adds 4 distinct trees.
		fill := make([]request, int(c.capacity+3)/4)
		for k := range fill {
			fill[k] = w.fill(k)
		}
		if err := sendAll(client, p.url, fill, conns); err != nil {
			return fail(err)
		}
	}
	elapsed := time.Since(start)
	if w.fill != nil {
		c, err := scrapeEngine(client, p.url)
		if err != nil {
			return fail(err)
		}
		// Full, or evicting: shards fill unevenly, so some start
		// evicting before the total reaches capacity.
		if c.entries < c.capacity && c.evictions == 0 {
			return fail(fmt.Errorf("cache fill left %v of %v entries and no evictions", c.entries, c.capacity))
		}
	}
	return p, elapsed, nil
}

// closedResult is the outcome of one closed-loop capacity phase.
type closedResult struct {
	tally
	d time.Duration
}

// throughput is successful responses per second.
func (r *closedResult) throughput() float64 { return float64(r.ok) / r.d.Seconds() }

// closedLoop runs conns clients back to back for d, each sending its
// next request as soon as the previous one completes.  Requests are
// taken from the workload's sequence starting at index first.
func closedLoop(client *http.Client, base string, w *workload, first, conns int, d time.Duration) *closedResult {
	res := &closedResult{}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				o, err := do(client, base, w.at(first+int(next.Add(1))-1))
				res.add(o, err)
			}
		}()
	}
	wg.Wait()
	res.d = time.Since(start)
	return res
}

// Open-loop validity bounds: a run whose generator sent late or whose
// backlog grew measured the generator or an overload, not the server at
// the stated rate.  Lateness may reach a quarter of the workload's tail
// limit at the 90th percentile.  The generator shares the CPUs with the
// server, so single wake-ups can run much later than that when the
// machine stalls; the bound catches a generator that runs behind.
const (
	latenessShare  = 0.25
	maxBacklogGrow = 2.0 // requests, mean of the second half over the first
)

// openResult is the outcome of the open-loop latency phase.
type openResult struct {
	tally
	latencies  []float64 // ms from scheduled send to completion, ok requests only
	lateBound  time.Duration
	lateP50    time.Duration
	lateP90    time.Duration
	lateP99    time.Duration
	lateMax    time.Duration
	backlogA   float64 // mean backlog over the first half of the schedule
	backlogB   float64 // and over the second half
	scheduled  int
	finishLate time.Duration // how long after the last arrival the phase drained
}

func (r *openResult) backlogGrew() bool { return r.backlogB-r.backlogA > maxBacklogGrow }

func (r *openResult) valid() bool { return r.lateP90 <= r.lateBound && !r.backlogGrew() }

// arrivals returns the send times of a fixed-rate schedule over d, as
// offsets from the phase start.  Even spacing keeps the queueing the
// schedule itself causes the same in every run, so a change in latency
// is the server's.
func arrivals(rate float64, d time.Duration) []time.Duration {
	var out []time.Duration
	gap := float64(time.Second) / rate
	for k := 0; ; k++ {
		at := time.Duration(float64(k) * gap)
		if at >= d {
			return out
		}
		out = append(out, at)
	}
}

// openLoop sends requests on the arrival schedule regardless of
// completions.  conns clients take due requests in order; a request's
// latency runs from its scheduled time, so waiting for a free
// connection counts.  The generator records its own lateness and the
// backlog of due-but-unsent requests at every arrival.
func openLoop(client *http.Client, base string, w *workload, first, conns int, d time.Duration) *openResult {
	sched := arrivals(w.rate, d)
	res := &openResult{scheduled: len(sched),
		lateBound: time.Duration(latenessShare * w.tailLimitMS * float64(time.Millisecond))}
	type due struct {
		i  int
		at time.Time
	}
	// Sized to the whole schedule so the generator never blocks on a
	// busy client: the queue length is the backlog being measured.
	queue := make(chan due, len(sched))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := range queue {
				o, err := do(client, base, w.at(first+q.i))
				ms := float64(time.Since(q.at)) / float64(time.Millisecond)
				res.add(o, err)
				if o == outOK {
					mu.Lock()
					res.latencies = append(res.latencies, ms)
					mu.Unlock()
				}
			}
		}()
	}
	late := make([]float64, 0, len(sched))
	backlog := make([]float64, 0, len(sched))
	start := time.Now().Add(5 * time.Millisecond)
	for i, off := range sched {
		at := start.Add(off)
		if wait := time.Until(at); wait > 0 {
			time.Sleep(wait)
		}
		late = append(late, float64(time.Since(at).Nanoseconds()))
		backlog = append(backlog, float64(len(queue)))
		queue <- due{i, at}
	}
	end := time.Now()
	close(queue)
	wg.Wait()
	res.finishLate = time.Since(end)
	half := len(backlog) / 2
	res.backlogA, res.backlogB = mean(backlog[:half]), mean(backlog[half:])
	sortLate := append([]float64(nil), late...)
	median(sortLate) // sorts
	res.lateP50 = time.Duration(percentile(sortLate, 50))
	res.lateP90 = time.Duration(percentile(sortLate, 90))
	res.lateP99 = time.Duration(percentile(sortLate, 99))
	res.lateMax = time.Duration(percentile(sortLate, 100))
	return res
}
