package main

// smoke.go is the `-smoke` self-check behind `make serve-smoke` and the
// CI serve job: it boots real servers on ephemeral ports and walks the
// acceptance path end to end — health, a valid embed with the Theorem 1
// bounds intact over the wire, non-empty Prometheus metrics, a saturated
// admission queue answering 429 + Retry-After, and a graceful shutdown
// that drains every in-flight request.  Any violation exits non-zero.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"xtreesim/internal/server"
)

func runSmoke() error {
	if err := smokeServePath(); err != nil {
		return fmt.Errorf("serve path: %w", err)
	}
	if err := smokeShedding(); err != nil {
		return fmt.Errorf("load shedding: %w", err)
	}
	if err := smokeGracefulDrain(); err != nil {
		return fmt.Errorf("graceful drain: %w", err)
	}
	return nil
}

func postEmbed(url string, body interface{}) (*http.Response, []byte, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return nil, nil, err
	}
	resp, err := http.Post(url+"/v1/embed", "application/json", bytes.NewReader(raw))
	if err != nil {
		return nil, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, data, err
}

// smokeServePath: healthz, one valid embed with the paper's bounds, and
// a metrics scrape that actually contains the serving metrics.
func smokeServePath() error {
	s := server.New(server.Config{Version: "smoke"})
	if err := s.Start(); err != nil {
		return err
	}
	defer shutdown(s)
	url := s.URL()

	resp, err := http.Get(url + "/healthz")
	if err != nil {
		return err
	}
	var hr server.HealthResponse
	err = json.NewDecoder(resp.Body).Decode(&hr)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("healthz decode: %w", err)
	}
	if resp.StatusCode != 200 || hr.Status != "ok" {
		return fmt.Errorf("healthz: status=%d body=%+v", resp.StatusCode, hr)
	}

	resp, data, err := postEmbed(url, server.EmbedRequest{
		Tree: &server.TreeSpec{Family: "random", N: 1008, Seed: server.Seed(42)},
	})
	if err != nil {
		return err
	}
	if resp.StatusCode != 200 {
		return fmt.Errorf("embed: status %d: %s", resp.StatusCode, data)
	}
	var er server.EmbedResponse
	if err := json.Unmarshal(data, &er); err != nil {
		return fmt.Errorf("embed decode: %w", err)
	}
	if len(er.Items) != 1 || er.Items[0].Error != "" {
		return fmt.Errorf("embed items: %s", data)
	}
	if d, l := er.Items[0].Dilation, er.Items[0].MaxLoad; d > 3 || l > 16 {
		return fmt.Errorf("Theorem 1 bounds violated over the wire: dilation=%d load=%d", d, l)
	}

	resp, err = http.Get(url + "/metrics")
	if err != nil {
		return err
	}
	mdata, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(mdata)
	if len(strings.TrimSpace(text)) == 0 {
		return fmt.Errorf("metrics: empty exposition")
	}
	for _, want := range []string{
		"xtreesim_http_requests_total",
		"xtreesim_http_request_duration_seconds_bucket",
		"xtreesim_http_shed_total",
		"xtreesim_engine_cache_misses_total",
		`xtreesim_embed_dilation_count{host="xtree"} 1`,
		`xtreesim_embed_max_load_bucket{host="xtree",le="16"} 1`,
		`xtreesim_embed_max_load_count{host="xtree"} 1`,
		`xtreesim_bound_violations_total{claim="thm1_dilation"} 0`,
		`xtreesim_bound_violations_total{claim="thm1_load"} 0`,
	} {
		if !strings.Contains(text, want) {
			return fmt.Errorf("metrics: missing %q", want)
		}
	}
	return nil
}

// smokeShedding: one slot, no queue, a flood of concurrent embeds — the
// overflow must shed with 429 and a Retry-After hint while at least one
// request is served.
func smokeShedding() error {
	s := server.New(server.Config{MaxConcurrent: 1, MaxQueue: 0})
	if err := s.Start(); err != nil {
		return err
	}
	defer shutdown(s)
	url := s.URL()

	const flood = 16
	var wg sync.WaitGroup
	type outcome struct {
		status     int
		retryAfter string
	}
	outcomes := make(chan outcome, flood)
	start := make(chan struct{})
	for i := 0; i < flood; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct seeds keep the requests from collapsing into one
			// cache entry (or one coalesced compute), and the start
			// barrier makes them hit the single admission slot together:
			// without both, a fast embedder drains the flood one by one
			// and nothing sheds.
			raw, _ := json.Marshal(server.EmbedRequest{
				Tree: &server.TreeSpec{Family: "random", N: 8000, Seed: server.Seed(int64(i) + 1)},
			})
			<-start
			resp, err := http.Post(url+"/v1/embed", "application/json", bytes.NewReader(raw))
			if err != nil {
				outcomes <- outcome{status: -1}
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			outcomes <- outcome{resp.StatusCode, resp.Header.Get("Retry-After")}
		}(i)
	}
	close(start)
	wg.Wait()
	close(outcomes)
	var ok, shed int
	for o := range outcomes {
		switch o.status {
		case 200:
			ok++
		case 429:
			shed++
			if o.retryAfter == "" {
				return fmt.Errorf("429 without Retry-After")
			}
		default:
			return fmt.Errorf("unexpected status %d", o.status)
		}
	}
	if ok == 0 || shed == 0 {
		return fmt.Errorf("flood of %d: ok=%d shed=%d; want both > 0", flood, ok, shed)
	}
	fmt.Printf("serve-smoke: shedding ok (%d served, %d shed with Retry-After)\n", ok, shed)
	return nil
}

// smokeGracefulDrain: in-flight requests across a Shutdown must all
// complete with 200 — zero dropped requests.
func smokeGracefulDrain() error {
	s := server.New(server.Config{MaxConcurrent: 4, MaxQueue: 16})
	if err := s.Start(); err != nil {
		return err
	}
	url := s.URL()

	const n = 8
	statuses := make(chan int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			raw, _ := json.Marshal(server.EmbedRequest{
				Tree: &server.TreeSpec{Family: "random", N: 4000, Seed: server.Seed(int64(seed))},
			})
			resp, err := http.Post(url+"/v1/embed", "application/json", bytes.NewReader(raw))
			if err != nil {
				statuses <- -1
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			statuses <- resp.StatusCode
		}(i)
	}
	// Shut down under the flood once all of it is observably admitted.
	if err := awaitFlood(url, n); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	wg.Wait()
	close(statuses)
	for st := range statuses {
		if st != 200 {
			return fmt.Errorf("in-flight request finished with %d during shutdown", st)
		}
	}
	fmt.Printf("serve-smoke: graceful drain ok (%d in-flight requests all completed)\n", n)
	return nil
}

// awaitFlood polls /metrics until all n embed requests have reached
// admission (holding a slot, queued, or answered) while at least one
// still holds a slot, so the shutdown that follows must drain real work
// and every client must get its answer.
func awaitFlood(url string, n int) error {
	const served = `xtreesim_http_requests_total{route="/v1/embed",code="200"}`
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		m, err := scrapeMetrics(url)
		if err != nil {
			return err
		}
		inFlight := m["xtreesim_http_in_flight"]
		if m[served] >= n {
			return fmt.Errorf("every request finished before the shutdown")
		}
		if inFlight > 0 && inFlight+m["xtreesim_http_admission_queue"]+m[served] >= n {
			return nil
		}
	}
	return fmt.Errorf("the flood of %d did not reach admission within 10s", n)
}

// scrapeMetrics reads the integer samples of /metrics, keyed by series.
func scrapeMetrics(url string) (map[string]int, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	m := make(map[string]int)
	for _, line := range strings.Split(string(body), "\n") {
		if i := strings.LastIndexByte(line, ' '); i > 0 && !strings.HasPrefix(line, "#") {
			if v, err := strconv.Atoi(line[i+1:]); err == nil {
				m[line[:i]] = v
			}
		}
	}
	return m, nil
}

func shutdown(s *server.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.Shutdown(ctx)
}
