package webapp

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
)

// TestUnversionedAPINotRouted: /api/v1 is the only API prefix; the
// unversioned /api/... spellings the server once aliased must not reach
// a handler (POST finds only the GET-only index pattern → 405, GET
// falls through to the index handler's 404).
func TestUnversionedAPINotRouted(t *testing.T) {
	ts, _ := newStack(t, nil)
	if code, _ := post(t, ts, "/api/v1/register", map[string]string{"name": "acme"}); code != http.StatusOK {
		t.Fatalf("v1 register: %d", code)
	}
	for _, tc := range []struct {
		verb, path string
		want       int
	}{
		{"POST", "/api/register", http.StatusMethodNotAllowed},
		{"POST", "/api/subscribe", http.StatusMethodNotAllowed},
		{"POST", "/api/publish", http.StatusMethodNotAllowed},
		{"POST", "/api/resume", http.StatusMethodNotAllowed},
		{"GET", "/api/mode", http.StatusNotFound},
		{"GET", "/api/stats", http.StatusNotFound},
		{"GET", "/api/subscriptions?client=acme", http.StatusNotFound},
		{"GET", "/api/cluster", http.StatusNotFound},
		{"GET", "/api/trace/b1%23e/1", http.StatusNotFound},
	} {
		req, err := http.NewRequest(tc.verb, ts.URL+tc.path, strings.NewReader(`{"name":"x","event":"(a, 1)"}`))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s %s: %d, want %d", tc.verb, tc.path, resp.StatusCode, tc.want)
		}
	}
	for _, path := range []string{"/api/v1/mode", "/api/v1/stats", "/api/v1/clients", "/metrics", "/"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: %d", path, resp.StatusCode)
		}
	}
}

// TestTraceEndpointRawHash: pub IDs are name#epoch/seq, and although
// browsers strip '#' fragments client-side, a non-browser client may
// legitimately send the ID raw — the request-target reaches the server
// verbatim. Both the raw and the %23-escaped spelling must resolve.
// The raw form needs a hand-written request: net/http's client URL
// parsing would treat the '#' as a fragment before the bytes leave.
func TestTraceEndpointRawHash(t *testing.T) {
	ts, _ := newStack(t, nil)

	if code, _ := post(t, ts, "/api/v1/register", map[string]string{"name": "acme"}); code != http.StatusOK {
		t.Fatal("register failed")
	}
	if code, _ := post(t, ts, "/api/v1/subscribe", map[string]string{
		"client": "acme", "subscription": "(degree = PhD)",
	}); code != http.StatusOK {
		t.Fatal("subscribe failed")
	}
	code, body := post(t, ts, "/api/v1/publish", map[string]string{"event": "(degree, PhD)"})
	if code != http.StatusOK {
		t.Fatal("publish failed")
	}
	pubID, _ := body["pub_id"].(string)
	if !strings.Contains(pubID, "#") {
		t.Fatalf("pub ID %q lacks the '#' under test", pubID)
	}

	// Escaped form through the normal client.
	if code, tr := get(t, ts, tracePath(pubID)); code != http.StatusOK {
		t.Fatalf("escaped trace fetch: %d (%v)", code, tr)
	}

	// Raw form over a hand-rolled HTTP/1.1 request.
	conn, err := net.Dial("tcp", strings.TrimPrefix(ts.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "GET /api/v1/trace/%s HTTP/1.1\r\nHost: stopss\r\nConnection: close\r\n\r\n", pubID)
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("raw-# trace fetch: %d (%s)", resp.StatusCode, raw)
	}
	if !strings.Contains(string(raw), pubID) {
		t.Fatalf("raw-# trace body lacks pub ID %q:\n%s", pubID, raw)
	}
}

// TestMetricsOptimizerGauges: the /metrics exposition includes the
// query-optimizer families (plan cache, expansion LRU, intern table)
// snapshotted from engine stats.
func TestMetricsOptimizerGauges(t *testing.T) {
	ts, _ := newStack(t, nil)

	if code, _ := post(t, ts, "/api/v1/register", map[string]string{"name": "acme"}); code != http.StatusOK {
		t.Fatal("register failed")
	}
	if code, _ := post(t, ts, "/api/v1/subscribe", map[string]string{
		"client": "acme", "subscription": "(degree = PhD)",
	}); code != http.StatusOK {
		t.Fatal("subscribe failed")
	}
	// Publish the same shape twice: the second expansion is a cache hit.
	for i := 0; i < 2; i++ {
		if code, _ := post(t, ts, "/api/v1/publish", map[string]string{"event": "(degree, PhD)"}); code != http.StatusOK {
			t.Fatal("publish failed")
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		"# TYPE stopss_optimizer_plan_cache_misses_total counter",
		"# TYPE stopss_optimizer_plans_cached gauge",
		"# TYPE stopss_optimizer_expansion_cache_hits_total counter",
		"stopss_optimizer_expansion_cache_hits_total{",
		"# TYPE stopss_optimizer_expansion_cache_size gauge",
		"# TYPE stopss_optimizer_interned_terms gauge",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics output lacks %q:\n%s", want, text)
		}
	}
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "stopss_optimizer_expansion_cache_hits_total{") && !strings.HasSuffix(line, " 1") {
			t.Fatalf("expansion hit counter = %q, want 1 (second publish should be a cache hit)", line)
		}
	}
}
