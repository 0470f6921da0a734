package planserve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"nestwrf/internal/metrics"
	"nestwrf/internal/telemetry"
)

// testRequest is a three-nest BG/L configuration shared by the tests.
func testRequest(strategy, alloc, mapping string) string {
	return fmt.Sprintf(`{
		"machine": "bgl",
		"ranks": 64,
		"strategy": %q,
		"alloc": %q,
		"mapping": %q,
		"domain": {
			"name": "pacific", "nx": 286, "ny": 307,
			"children": [
				{"name": "t1", "nx": 394, "ny": 418, "ratio": 3, "off_x": 5, "off_y": 5},
				{"name": "t2", "nx": 313, "ny": 337, "ratio": 3, "off_x": 140, "off_y": 150}
			]
		}
	}`, strategy, alloc, mapping)
}

// post sends one JSON query and returns the status, cache header and
// body.
func post(t *testing.T, h http.Handler, path, body string) (int, string, []byte) {
	t.Helper()
	req := httptest.NewRequest("POST", path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Header().Get(CacheHeader), rec.Body.Bytes()
}

// TestPlanCacheByteIdentity is the acceptance guard: for every
// strategy x alloc-policy x map-kind combination, a cache-hit response
// must be byte-identical to the cold-computed response, both within one
// server (miss then hit) and against a fresh server computing cold.
func TestPlanCacheByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("full combo sweep is slow; skipped with -short")
	}
	strategies := []string{"sequential", "concurrent"}
	allocs := []string{"predicted", "naive-points", "equal", "strips-predicted"}
	mappings := []string{"oblivious", "txyz", "partition", "multilevel"}

	warm := New(Config{}).Handler()
	for _, st := range strategies {
		for _, al := range allocs {
			for _, mp := range mappings {
				name := st + "/" + al + "/" + mp
				body := testRequest(st, al, mp)
				code, cache1, cold := post(t, warm, "/v1/plan", body)
				if code != http.StatusOK {
					t.Fatalf("%s: cold query failed %d: %s", name, code, cold)
				}
				if cache1 != "miss" {
					t.Errorf("%s: first query reported %q, want miss", name, cache1)
				}
				code, cache2, hot := post(t, warm, "/v1/plan", body)
				if code != http.StatusOK {
					t.Fatalf("%s: hot query failed %d", name, code)
				}
				if cache2 != "hit" {
					t.Errorf("%s: second query reported %q, want hit", name, cache2)
				}
				if !bytes.Equal(cold, hot) {
					t.Errorf("%s: cache-hit body differs from cold body:\ncold: %s\nhot:  %s", name, cold, hot)
				}
				// A fresh server must compute the identical bytes cold.
				fresh := New(Config{}).Handler()
				_, _, independent := post(t, fresh, "/v1/plan", body)
				if !bytes.Equal(cold, independent) {
					t.Errorf("%s: fresh-server cold body differs from cached body", name)
				}
			}
		}
	}
}

// TestCompareEndpoint checks /v1/compare returns both strategies and
// caches byte-identically.
func TestCompareEndpoint(t *testing.T) {
	h := New(Config{}).Handler()
	body := testRequest("concurrent", "predicted", "multilevel")
	code, cache, cold := post(t, h, "/v1/compare", body)
	if code != http.StatusOK {
		t.Fatalf("compare failed %d: %s", code, cold)
	}
	if cache != "miss" {
		t.Errorf("first compare reported %q, want miss", cache)
	}
	var resp CompareResponse
	if err := json.Unmarshal(cold, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Default.IterTime <= 0 || resp.Concurrent.IterTime <= 0 {
		t.Errorf("degenerate iteration times: %+v", resp)
	}
	if resp.ImprovementPct <= 0 {
		t.Errorf("concurrent strategy shows no improvement: %+v", resp)
	}
	_, cache, hot := post(t, h, "/v1/compare", body)
	if cache != "hit" || !bytes.Equal(cold, hot) {
		t.Error("compare cache hit not byte-identical")
	}
}

// TestPlanNamesSharedGeometry: renaming domains must share the cache
// entry (geometry keying) while responses carry the request's names —
// everywhere in the body, so the renamed hit is byte-identical to what
// a fresh server computes cold for the renamed request, on both
// planning endpoints.
func TestPlanNamesSharedGeometry(t *testing.T) {
	body1 := testRequest("concurrent", "predicted", "multilevel")
	body2 := strings.NewReplacer(`"pacific"`, `"atlantic"`, `"t1"`, `"h1"`, `"t2"`, `"h2"`).Replace(body1)
	for _, path := range []string{"/v1/plan", "/v1/compare"} {
		h := New(Config{}).Handler()
		if code, _, b := post(t, h, path, body1); code != http.StatusOK {
			t.Fatalf("%s: query failed %d: %s", path, code, b)
		}
		code, cache, hot := post(t, h, path, body2)
		if code != http.StatusOK {
			t.Fatalf("%s: renamed query failed %d: %s", path, code, hot)
		}
		if cache != "hit" {
			t.Errorf("%s: renamed identical geometry reported %q, want hit", path, cache)
		}
		_, _, cold := post(t, New(Config{}).Handler(), path, body2)
		if !bytes.Equal(hot, cold) {
			t.Errorf("%s: renamed hit differs from a fresh server's cold body:\nhit:  %s\ncold: %s", path, hot, cold)
		}
		if bytes.Contains(hot, []byte(`"t1"`)) || bytes.Contains(hot, []byte(`"t2"`)) {
			t.Errorf("%s: renamed hit carries the first request's names: %s", path, hot)
		}
		if path != "/v1/plan" {
			continue
		}
		var resp PlanResponse
		if err := json.Unmarshal(hot, &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Siblings) != 2 || resp.Siblings[0].Name != "h1" || resp.Siblings[1].Name != "h2" {
			t.Errorf("response does not carry the request's names: %+v", resp.Siblings)
		}
	}
}

// siblingsAB and siblingsBA are one configuration with its two
// siblings in either order.
const (
	siblingsAB = `{"machine":"bgl","ranks":64,"domain":{"nx":286,"ny":307,"children":[` +
		`{"name":"a","nx":394,"ny":418,"ratio":3,"off_x":5,"off_y":5},` +
		`{"name":"b","nx":313,"ny":337,"ratio":3,"off_x":140,"off_y":150}]}}`
	siblingsBA = `{"machine":"bgl","ranks":64,"domain":{"nx":286,"ny":307,"children":[` +
		`{"name":"b","nx":313,"ny":337,"ratio":3,"off_x":140,"off_y":150},` +
		`{"name":"a","nx":394,"ny":418,"ratio":3,"off_x":5,"off_y":5}]}}`
)

// TestPlanSiblingOrderDistinct: reordered siblings are a different
// plan (Algorithm 1 is order-sensitive), so they must not share.
func TestPlanSiblingOrderDistinct(t *testing.T) {
	h := New(Config{}).Handler()
	if code, _, b := post(t, h, "/v1/plan", siblingsAB); code != http.StatusOK {
		t.Fatalf("query failed %d: %s", code, b)
	}
	_, cache, _ := post(t, h, "/v1/plan", siblingsBA)
	if cache != "miss" {
		t.Error("reordered siblings shared a cache entry")
	}
}

// badRequests are bodies the planning endpoints answer with a JSON 400.
var badRequests = []struct {
	name, path, body string
	want             int
	errHas           string // a substring of the error, when the row pins one
}{
	{"garbage body", "/v1/plan", "{", http.StatusBadRequest, ""},
	{"unknown field", "/v1/plan", `{"machine":"bgl","ranks":64,"bogus":1,"domain":{"nx":10,"ny":10}}`, http.StatusBadRequest, ""},
	{"unknown machine", "/v1/plan", `{"machine":"cray","ranks":64,"domain":{"nx":10,"ny":10}}`, http.StatusBadRequest, ""},
	{"bad mapping", "/v1/plan", `{"machine":"bgl","ranks":64,"mapping":"warp","domain":{"nx":10,"ny":10}}`, http.StatusBadRequest, ""},
	{"zero ranks", "/v1/plan", `{"machine":"bgl","domain":{"nx":10,"ny":10}}`, http.StatusBadRequest, ""},
	{"invalid domain", "/v1/plan", `{"machine":"bgl","ranks":64,"domain":{"nx":-1,"ny":10}}`, http.StatusBadRequest, "nest:"},
	{"ranks over the limit", "/v1/plan", `{"machine":"bgl","ranks":1048577,"domain":{"nx":10,"ny":10}}`, http.StatusBadRequest, ""},
	{"ranks 1e12", "/v1/compare", `{"machine":"bgl","ranks":1000000000000,"domain":{"nx":10,"ny":10}}`, http.StatusBadRequest, ""},
	{"child outside parent", "/v1/compare",
		`{"machine":"bgl","ranks":64,"domain":{"nx":20,"ny":20,"children":[{"nx":90,"ny":90,"ratio":1,"off_x":0,"off_y":0}]}}`,
		http.StatusBadRequest, "nest:"},
	// The huge nest's points overflow an int: the plan used to weigh it
	// below the small nest instead of failing.
	{"nest points overflow", "/v1/plan",
		`{"machine":"bgl","ranks":64,"domain":{"nx":8589934592,"ny":2147583649,"children":[{"name":"huge","nx":8589934592,"ny":2147483649,"ratio":1},{"name":"small","nx":100000,"ny":100000,"ratio":1,"off_y":2147483649}]}}`,
		http.StatusBadRequest, "nest:"},
}

func TestBadRequests(t *testing.T) {
	h := New(Config{}).Handler()
	for _, c := range badRequests {
		code, _, body := post(t, h, c.path, c.body)
		if code != c.want {
			t.Errorf("%s: status %d, want %d (%s)", c.name, code, c.want, body)
		}
		var e errorResponse
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body %q is not a JSON error", c.name, body)
		}
		if !strings.Contains(e.Error, c.errHas) {
			t.Errorf("%s: error %q does not say %q", c.name, e.Error, c.errHas)
		}
	}
}

func TestHealthStatsMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	srv := New(Config{Metrics: reg})
	h := srv.Handler()

	get := func(path string) (int, string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec.Code, rec.Body.String()
	}
	if code, body := get("/healthz"); code != http.StatusOK || strings.TrimSpace(body) != "ok" {
		t.Errorf("healthz = %d %q", code, body)
	}

	body := testRequest("concurrent", "predicted", "multilevel")
	post(t, h, "/v1/plan", body)
	post(t, h, "/v1/plan", body)

	code, stats := get("/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("stats failed %d", code)
	}
	var st map[string]float64
	if err := json.Unmarshal([]byte(stats), &st); err != nil {
		t.Fatal(err)
	}
	if st["entries"] != 1 || st["hits"] != 1 || st["misses"] != 1 {
		t.Errorf("stats %v, want entries=1 hits=1 misses=1", st)
	}

	code, text := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics failed %d", code)
	}
	for _, want := range []string{
		`planserve_requests_total{code="200",endpoint="plan"} 2`,
		`planserve_cache_total{endpoint="plan",result="hit"} 1`,
		`planserve_cache_total{endpoint="plan",result="miss"} 1`,
		"planserve_request_seconds_count",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q:\n%s", want, text)
		}
	}
}

// TestCacheEvictionBounded drives more distinct queries than the cache
// holds and checks the bound and eviction counters through the API.
func TestCacheEvictionBounded(t *testing.T) {
	srv := New(Config{CacheSize: 2})
	h := srv.Handler()
	for ranks := 1; ranks <= 4; ranks++ {
		body := fmt.Sprintf(`{"machine":"bgl","ranks":%d,"strategy":"sequential","mapping":"oblivious","domain":{"nx":64,"ny":64}}`, ranks*64)
		if code, _, b := post(t, h, "/v1/plan", body); code != http.StatusOK {
			t.Fatalf("ranks %d: %d %s", ranks*64, code, b)
		}
	}
	entries, _, misses, evictions := srv.CacheStats()
	if entries != 2 {
		t.Errorf("cache holds %d entries, want bound 2", entries)
	}
	if misses != 4 || evictions != 2 {
		t.Errorf("misses=%d evictions=%d, want 4/2", misses, evictions)
	}
}

// TestRequestTimeout: a request whose deadline lapses while waiting
// for a worker slot returns 504 without computing.
func TestRequestTimeout(t *testing.T) {
	srv := New(Config{Workers: 1, RequestTimeout: 30 * time.Millisecond})
	h := srv.Handler()
	// Occupy the single worker slot.
	srv.sem <- struct{}{}
	defer func() { <-srv.sem }()
	code, _, body := post(t, h, "/v1/plan", testRequest("concurrent", "predicted", "multilevel"))
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", code, body)
	}
}

// TestRequestTimeoutUnderBurst: with the only worker slot held, every
// miss of a burst must answer 504 at its own deadline. The slot frees
// after two seconds, so a miss that outwaits its deadline fails the
// test instead of hanging it.
func TestRequestTimeoutUnderBurst(t *testing.T) {
	srv := New(Config{Workers: 1, RequestTimeout: 50 * time.Millisecond})
	h := srv.Handler()
	srv.sem <- struct{}{}
	release := time.AfterFunc(2*time.Second, func() { <-srv.sem })
	defer func() {
		if release.Stop() {
			<-srv.sem
		}
	}()

	const burst = 64
	var wg sync.WaitGroup
	errs := make(chan error, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"machine":"bgl","ranks":64,"strategy":"sequential","mapping":"oblivious","domain":{"nx":%d,"ny":64}}`, 64+i)
			start := time.Now()
			code, _, raw := post(t, h, "/v1/plan", body)
			if took := time.Since(start); code != http.StatusGatewayTimeout || took > time.Second {
				errs <- fmt.Errorf("query %d: status %d after %v, want 504 within 1s: %s", i, code, took, raw)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestWorkersBoundPlanning: Config.Workers bounds concurrent planning.
// A burst of distinct /v1/plan misses must never run more driver runs
// at once than the server has worker slots, read off the driver-layer
// spans of the request traces.
func TestWorkersBoundPlanning(t *testing.T) {
	const workers, burst = 2, 256
	tr := telemetry.New(telemetry.Config{MaxSpans: 1 << 20})
	srv := New(Config{Workers: workers, Tracer: tr})
	defer srv.Close()
	h := srv.Handler()

	var wg sync.WaitGroup
	errs := make(chan error, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"machine":"bgl","ranks":1024,"domain":{"nx":%d,"ny":307,"children":[
				{"nx":394,"ny":418,"ratio":3,"off_x":5,"off_y":5},
				{"nx":313,"ny":337,"ratio":3,"off_x":140,"off_y":150}]}}`, 286+i)
			if code, _, raw := post(t, h, "/v1/plan", body); code != http.StatusOK {
				errs <- fmt.Errorf("query %d: status %d: %s", i, code, raw)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	d := tr.Dump()
	if d.Dropped != 0 {
		t.Fatalf("tracer dropped %d spans", d.Dropped)
	}
	// An edge is a driver run starting (+1) or ending (-1); at equal
	// instants an end sorts first, so touching runs do not overlap.
	type edge struct {
		at    float64
		delta int
	}
	var edges []edge
	for _, s := range d.Spans {
		if s.Layer == telemetry.LayerDriver {
			edges = append(edges, edge{s.Start, 1}, edge{s.End, -1})
		}
	}
	if len(edges) != 2*burst {
		t.Fatalf("%d driver runs traced, want %d", len(edges)/2, burst)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].at != edges[j].at {
			return edges[i].at < edges[j].at
		}
		return edges[i].delta < edges[j].delta
	})
	open, peak := 0, 0
	for _, e := range edges {
		open += e.delta
		peak = max(peak, open)
	}
	if peak > workers {
		t.Errorf("%d driver runs overlapped with Workers %d", peak, workers)
	}
}

// TestServerClose: after Close, queries fail fast with 503.
func TestServerClose(t *testing.T) {
	srv := New(Config{})
	h := srv.Handler()
	srv.Close()
	code, _, _ := post(t, h, "/v1/plan", testRequest("concurrent", "predicted", "multilevel"))
	if code != http.StatusServiceUnavailable {
		t.Fatalf("status %d after Close, want 503", code)
	}
}

// TestConcurrentBurst hammers one warm server from many goroutines
// with a mix of hit and miss queries; run under -race in CI. All
// responses for the same body must be byte-identical.
func TestConcurrentBurst(t *testing.T) {
	srv := New(Config{})
	h := srv.Handler()
	bodies := []string{
		testRequest("concurrent", "predicted", "multilevel"),
		testRequest("concurrent", "equal", "txyz"),
		testRequest("sequential", "predicted", "oblivious"),
	}
	want := make([][]byte, len(bodies))
	for i, b := range bodies {
		code, _, resp := post(t, h, "/v1/plan", b)
		if code != http.StatusOK {
			t.Fatalf("warmup %d failed %d: %s", i, code, resp)
		}
		want[i] = resp
	}
	const workers, iters = 8, 20
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := (w + i) % len(bodies)
				req := httptest.NewRequest("POST", "/v1/plan", strings.NewReader(bodies[k]))
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					errs <- fmt.Errorf("worker %d: status %d", w, rec.Code)
					return
				}
				if !bytes.Equal(rec.Body.Bytes(), want[k]) {
					errs <- fmt.Errorf("worker %d: response drifted for body %d", w, k)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestServeUntilGracefulShutdown exercises the real network path:
// start, serve a query, cancel, drain, clean exit.
func TestServeUntilGracefulShutdown(t *testing.T) {
	srv := New(Config{})
	bound, stop, err := StartServer("127.0.0.1:0", srv.Handler(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + bound
	resp, err := http.Post(url+"/v1/plan", "application/json",
		strings.NewReader(testRequest("concurrent", "predicted", "multilevel")))
	if err != nil {
		t.Fatal(err)
	}
	cold, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query over TCP failed %d: %s", resp.StatusCode, cold)
	}
	resp, err = http.Post(url+"/v1/plan", "application/json",
		strings.NewReader(testRequest("concurrent", "predicted", "multilevel")))
	if err != nil {
		t.Fatal(err)
	}
	hot, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.Header.Get(CacheHeader) != "hit" || !bytes.Equal(cold, hot) {
		t.Error("cache hit over TCP not byte-identical")
	}
	if err := stop(); err != nil {
		t.Fatalf("graceful shutdown returned %v", err)
	}
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Error("server still accepting connections after shutdown")
	}
}

// TestServeUntilDropsStalledHeader: a TCP client that never finishes
// its request header must be disconnected once readHeaderTimeout
// passes, and must not keep a concurrent well-formed request from being
// served meanwhile.
func TestServeUntilDropsStalledHeader(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out the server's read-header timeout")
	}
	bound, stop, err := StartServer("127.0.0.1:0", New(Config{}).Handler(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	stalled, err := net.Dial("tcp", bound)
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	// A header that never ends: no terminating blank line.
	if _, err := io.WriteString(stalled, "GET /healthz HTTP/1.1\r\nHost: stalled\r\n"); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + bound + "/healthz")
	if err != nil {
		t.Fatalf("well-formed request beside a stalled one: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("well-formed request beside a stalled one: status %d", resp.StatusCode)
	}

	// The server must hang up on its own: ReadAll returns (EOF or reset)
	// well before the client-side deadline, which only bounds the test.
	start := time.Now()
	stalled.SetReadDeadline(start.Add(readHeaderTimeout + 5*time.Second))
	_, err = io.ReadAll(stalled)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("stalled connection still open %v after the header stopped", time.Since(start))
	}
}

// TestServeUntilAlreadyCancelled covers ServeUntil directly with an
// already-cancelled context: it must shut down cleanly without serving.
func TestServeUntilAlreadyCancelled(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := ServeUntil(ctx, ln, http.NotFoundHandler(), time.Second); err != nil {
		t.Fatalf("ServeUntil with cancelled context returned %v", err)
	}
}

// renameNests returns a testRequest body with its first-level nests
// t1 and t2 renamed to a and b.
func renameNests(body, a, b string) string {
	return strings.NewReplacer(`"t1"`, strconv.Quote(a), `"t2"`, strconv.Quote(b)).Replace(body)
}

// coldBody is a fresh server's answer to body on path: what every hit
// for the same request must repeat byte for byte.
func coldBody(t *testing.T, path, body string) []byte {
	t.Helper()
	srv := New(Config{})
	defer srv.Close()
	code, cache, b := post(t, srv.Handler(), path, body)
	if code != http.StatusOK || cache != "miss" {
		t.Fatalf("%s: cold query: status %d cache %q: %s", path, code, cache, b)
	}
	return b
}

// storedNames returns the child names of every stored body resident in
// srv's cache, most recently used entry first.
func storedNames(srv *Server) [][]string {
	c := srv.plans
	c.mu.Lock()
	defer c.mu.Unlock()
	var out [][]string
	for el := c.ll.Front(); el != nil; el = el.Next() {
		if sb := el.Value.(*lruEntry).body.Load(); sb != nil {
			out = append(out, sb.names)
		}
	}
	return out
}

// TestStoredBodyFollowsNames: one entry hit under names A, then B, then
// A and B again answers each request with a fresh server's cold body
// for it. The first hit stores A's body; B's hits encode afresh and
// leave it in place.
func TestStoredBodyFollowsNames(t *testing.T) {
	a := testRequest("concurrent", "predicted", "multilevel")
	b := renameNests(a, "h1", "h2")
	for _, path := range []string{"/v1/plan", "/v1/compare"} {
		want := map[string][]byte{a: coldBody(t, path, a), b: coldBody(t, path, b)}
		srv := New(Config{})
		h := srv.Handler()
		if code, _, got := post(t, h, path, a); code != http.StatusOK {
			t.Fatalf("%s: miss failed %d: %s", path, code, got)
		}
		for i, body := range []string{a, b, a, b, a} {
			code, cache, got := post(t, h, path, body)
			if code != http.StatusOK || cache != "hit" {
				t.Fatalf("%s: hit %d: status %d cache %q", path, i, code, cache)
			}
			if !bytes.Equal(got, want[body]) {
				t.Errorf("%s: hit %d differs from a fresh server's cold body:\nhit:  %s\ncold: %s", path, i, got, want[body])
			}
		}
		if got := storedNames(srv); len(got) != 1 || strings.Join(got[0], ",") != "t1,t2" {
			t.Errorf("%s: stored body names %v, want one body for t1,t2", path, got)
		}
		srv.Close()
	}
}

// TestBatchItemHitsStoredEntry: /v1/plan/batch items that hit an entry
// whose body /v1/plan already stored carry their own names, each plan
// byte-equal to the cold /v1/plan body for the same request.
func TestBatchItemHitsStoredEntry(t *testing.T) {
	a := testRequest("concurrent", "predicted", "multilevel")
	b := renameNests(a, "h1", "h2")
	srv := New(Config{})
	defer srv.Close()
	h := srv.Handler()
	post(t, h, "/v1/plan", a)
	if _, cache, _ := post(t, h, "/v1/plan", a); cache != "hit" || len(storedNames(srv)) != 1 {
		t.Fatalf("second /v1/plan query: cache %q, %d stored bodies; want a hit that stores one", cache, len(storedNames(srv)))
	}
	code, _, raw := post(t, h, "/v1/plan/batch", batchBody(a, b))
	if code != http.StatusOK {
		t.Fatalf("batch status %d: %s", code, raw)
	}
	var resp struct {
		Responses []struct {
			Plan  json.RawMessage
			Cache string
		}
	}
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	for i, body := range []string{a, b} {
		item := resp.Responses[i]
		want := bytes.TrimSuffix(coldBody(t, "/v1/plan", body), []byte("\n"))
		if item.Cache != "hit" || !bytes.Equal(item.Plan, want) {
			t.Errorf("item %d: cache %q, plan\n%s\nwant\n%s", i, item.Cache, item.Plan, want)
		}
	}
}

// TestStoredBodyAfterSnapshotLoad: a snapshot-loaded entry has no
// stored body; its first hit — here under new names — encodes and
// stores one, and every hit matches a fresh server's cold body.
func TestStoredBodyAfterSnapshotLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plans.snap")
	a := testRequest("concurrent", "predicted", "multilevel")
	b := renameNests(a, "h1", "h2")
	srvA := New(Config{})
	post(t, srvA.Handler(), "/v1/plan", a)
	post(t, srvA.Handler(), "/v1/compare", a)
	if _, err := srvA.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	srvA.Close()

	srvB := New(Config{})
	defer srvB.Close()
	if loaded, _, err := srvB.LoadSnapshot(path); err != nil || loaded != 2 {
		t.Fatalf("loaded %d entries (%v), want 2", loaded, err)
	}
	if n := len(storedNames(srvB)); n != 0 {
		t.Fatalf("%d stored bodies right after the load, want 0", n)
	}
	h := srvB.Handler()
	for _, path := range []string{"/v1/plan", "/v1/compare"} {
		for i, body := range []string{b, a, b} {
			code, cache, got := post(t, h, path, body)
			if code != http.StatusOK || cache != "hit" {
				t.Fatalf("%s: hit %d: status %d cache %q", path, i, code, cache)
			}
			if want := coldBody(t, path, body); !bytes.Equal(got, want) {
				t.Errorf("%s: hit %d differs from a fresh server's cold body:\nhit:  %s\ncold: %s", path, i, got, want)
			}
		}
	}
	for _, names := range storedNames(srvB) {
		if strings.Join(names, ",") != "h1,h2" {
			t.Errorf("stored body names %v, want h1,h2 (the first hit's)", names)
		}
	}
}

// TestStoredBodyFirstHitRace: 16 requests under 16 different names make
// the first hits on one entry at once. Whichever stores its body, each
// gets its own names; run under -race in CI.
func TestStoredBodyFirstHitRace(t *testing.T) {
	const n = 16
	base := testRequest("concurrent", "predicted", "multilevel")
	bodies := make([]string, n)
	want := make([][]byte, n)
	for i := range bodies {
		bodies[i] = renameNests(base, fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i))
		want[i] = coldBody(t, "/v1/plan", bodies[i])
	}
	srv := New(Config{})
	defer srv.Close()
	h := srv.Handler()
	post(t, h, "/v1/plan", base)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for round := 0; round < 2; round++ {
				req := httptest.NewRequest("POST", "/v1/plan", strings.NewReader(bodies[i]))
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK || rec.Header().Get(CacheHeader) != "hit" {
					t.Errorf("request %d round %d: status %d cache %q", i, round, rec.Code, rec.Header().Get(CacheHeader))
					return
				}
				if !bytes.Equal(rec.Body.Bytes(), want[i]) {
					t.Errorf("request %d round %d got another request's body:\n%s", i, round, rec.Body.Bytes())
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	if got := storedNames(srv); len(got) != 1 {
		t.Errorf("%d stored bodies, want 1", len(got))
	}
}

// memWriter is a reusable in-memory http.ResponseWriter, so an
// allocation count covers the handler and nothing of the recorder.
type memWriter struct {
	hdr  http.Header
	code int
	buf  bytes.Buffer
}

func (w *memWriter) Header() http.Header { return w.hdr }
func (w *memWriter) WriteHeader(c int)   { w.code = c }
func (w *memWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.buf.Write(b)
}

// maxHitAllocs bounds the allocations of one served /v1/plan hit of
// testRequestBench's query with tracing off, with or without a metrics
// registry, on go1.24 linux/amd64. A registry that copied, sorted and
// keyed the labels on every lookup cost 48. Resolving before the lookup cost 25: the domain tree, a
// context.WithTimeout deadline (4 on its own) and the rest. The
// key-first lookup measured 16, and 15 once the status code's label
// stopped being formatted per request: among them the decoder's string
// and children copies, two header value slices, the machine's mode list
// and the request copy the mux writes into.
const maxHitAllocs = 15

// hitAllocs serves testRequestBench's /v1/plan query on a server built
// from cfg until it is a stored hit, and returns the allocations of one
// more served hit.
func hitAllocs(t *testing.T, cfg Config) float64 {
	t.Helper()
	srv := New(cfg)
	defer srv.Close()
	h := srv.Handler()
	body := []byte(testRequestBench())
	tmpl := http.Request{
		Method: http.MethodPost, URL: &url.URL{Path: "/v1/plan"},
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: http.Header{"Content-Type": {"application/json"}},
		Host:   "test.local",
	}
	w := &memWriter{hdr: http.Header{}}
	var rd bytes.Reader
	serve := func() {
		clear(w.hdr)
		w.code = 0
		w.buf.Reset()
		rd.Reset(body)
		req := tmpl
		req.Body = io.NopCloser(&rd)
		req.ContentLength = int64(len(body))
		h.ServeHTTP(w, &req)
	}
	serve() // the miss
	serve() // the first hit, which stores the body
	if w.code != http.StatusOK || w.hdr.Get(CacheHeader) != "hit" {
		t.Fatalf("warm-up: status %d, cache %q: %s", w.code, w.hdr.Get(CacheHeader), w.buf.Bytes())
	}
	allocs := testing.AllocsPerRun(200, serve)
	if w.hdr.Get(CacheHeader) != "hit" {
		t.Fatalf("measured request was not a hit")
	}
	return allocs
}

// TestPlanHitAllocs holds a served hit to maxHitAllocs, and checks
// that the bound would catch a hit that arms a request deadline: a
// hit must not set a timer.
func TestPlanHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	allocs := hitAllocs(t, Config{})
	if allocs > maxHitAllocs {
		t.Errorf("a served hit allocates %v times, want at most %d", allocs, maxHitAllocs)
	}
	timer := testing.AllocsPerRun(200, func() {
		_, cancel := context.WithTimeout(context.Background(), time.Minute)
		cancel()
	})
	if allocs+timer <= maxHitAllocs {
		t.Errorf("a hit that armed a deadline (%v allocations) would still pass the bound of %d", timer, maxHitAllocs)
	}
}

// TestPlanHitAllocsWithRegistry is TestPlanHitAllocs with a registry,
// as cmd/planserve always builds: an instrument lookup allocates
// nothing, so recording costs a hit no allocation and the hit is held
// to the same maxHitAllocs.
func TestPlanHitAllocsWithRegistry(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	allocs := hitAllocs(t, Config{Metrics: metrics.NewRegistry()})
	if allocs > maxHitAllocs {
		t.Errorf("a served hit with a registry allocates %v times, want at most %d", allocs, maxHitAllocs)
	}
}

// TestPlanSiblingPermutation is the paper's sibling symmetry at the
// server: a /v1/plan request listing the same siblings in another order
// is a different request, a miss under its own key, and its plan is the
// original's permuted — weights, rectangles and per-sibling costs by
// name — with the same IterTime.
func TestPlanSiblingPermutation(t *testing.T) {
	children := []string{
		`{"name": "t1", "nx": 394, "ny": 418, "ratio": 3, "off_x": 5, "off_y": 5}`,
		`{"name": "t2", "nx": 313, "ny": 337, "ratio": 3, "off_x": 140, "off_y": 150}`,
		`{"name": "t3", "nx": 232, "ny": 202, "ratio": 3, "off_x": 20, "off_y": 200}`,
	}
	request := func(order ...int) string {
		var cs []string
		for _, i := range order {
			cs = append(cs, children[i])
		}
		return `{"machine": "bgl", "ranks": 256, "strategy": "concurrent", "alloc": "predicted",
			"mapping": "multilevel", "domain": {"name": "pacific", "nx": 286, "ny": 307,
			"children": [` + strings.Join(cs, ",") + `]}}`
	}
	perm := []int{2, 0, 1}
	srv := New(Config{})
	defer srv.Close()
	plan := func(body, wantCache string) PlanResponse {
		t.Helper()
		code, cacheHdr, raw := post(t, srv.Handler(), "/v1/plan", body)
		if code != http.StatusOK || cacheHdr != wantCache {
			t.Fatalf("status %d cache %q, want 200 %s: %s", code, cacheHdr, wantCache, raw)
		}
		var p PlanResponse
		if err := json.Unmarshal(raw, &p); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a := plan(request(0, 1, 2), "miss")
	b := plan(request(perm...), "miss")
	if again := plan(request(perm...), "hit"); !reflect.DeepEqual(again, b) {
		t.Errorf("the permuted request's hit differs from its miss:\n%+v\n%+v", again, b)
	}
	if entries, _, _, _ := srv.CacheStats(); entries != 2 {
		t.Errorf("%d cache entries, want 2 (one key per order)", entries)
	}
	if a.Cost.IterTime != b.Cost.IterTime {
		t.Errorf("IterTime %v, permuted %v", a.Cost.IterTime, b.Cost.IterTime)
	}
	if len(a.Siblings) != len(perm) || len(b.Siblings) != len(perm) ||
		len(a.Cost.Siblings) != len(perm) || len(b.Cost.Siblings) != len(perm) {
		t.Fatalf("sibling counts %d, %d, costs %d, %d, want %d", len(a.Siblings), len(b.Siblings), len(a.Cost.Siblings), len(b.Cost.Siblings), len(perm))
	}
	for i, j := range perm {
		if a.Siblings[j] != b.Siblings[i] {
			t.Errorf("permuted sibling %d: %+v, original sibling %d: %+v", i, b.Siblings[i], j, a.Siblings[j])
		}
		if a.Cost.Siblings[j] != b.Cost.Siblings[i] {
			t.Errorf("permuted sibling %d cost: %+v, original sibling %d: %+v", i, b.Cost.Siblings[i], j, a.Cost.Siblings[j])
		}
	}
}
