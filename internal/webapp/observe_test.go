package webapp

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"stopss/internal/metrics"
	"stopss/internal/trace"
)

// tracePath escapes a pub ID for GET /api/v1/trace/<id>: browser-side URL
// handling strips a raw '#' as a fragment, so clients going through a
// URL parser send it %23-encoded, while the '/' stays literal for the
// {id...} wildcard to capture. (The server also accepts a raw '#' —
// see TestTraceEndpointRawHash.)
func tracePath(pubID string) string {
	return "/api/v1/trace/" + strings.ReplaceAll(pubID, "#", "%23")
}

func TestTraceEndpoint(t *testing.T) {
	ts, _ := newStack(t, nil)

	code, _ := post(t, ts, "/api/v1/register", map[string]string{"name": "acme"})
	if code != http.StatusOK {
		t.Fatalf("register: %d", code)
	}
	code, _ = post(t, ts, "/api/v1/subscribe", map[string]string{
		"client":       "acme",
		"subscription": "(degree = PhD)",
	})
	if code != http.StatusOK {
		t.Fatalf("subscribe: %d", code)
	}
	code, body := post(t, ts, "/api/v1/publish", map[string]string{
		"event": "(degree, PhD)",
	})
	if code != http.StatusOK {
		t.Fatalf("publish: %d", code)
	}
	pubID, _ := body["pub_id"].(string)
	if pubID == "" {
		t.Fatalf("publish response missing pub_id: %v", body)
	}

	code, tr := get(t, ts, tracePath(pubID))
	if code != http.StatusOK {
		t.Fatalf("trace fetch: %d (%v)", code, tr)
	}
	if tr["pub_id"] != pubID {
		t.Fatalf("trace names pub %v, want %s", tr["pub_id"], pubID)
	}
	spans, _ := tr["spans"].([]any)
	kinds := make(map[string]bool)
	for _, s := range spans {
		sp := s.(map[string]any)
		kinds[sp["kind"].(string)] = true
	}
	for _, want := range []string{trace.KindPublish, trace.KindMatch} {
		if !kinds[want] {
			t.Fatalf("trace lacks %q span; got kinds %v", want, kinds)
		}
	}

	// Unknown publications are a 404, not an empty tree.
	code, _ = get(t, ts, tracePath("nowhere#dead/99"))
	if code != http.StatusNotFound {
		t.Fatalf("unknown trace: %d, want 404", code)
	}
	// A missing ID is a usage error.
	resp, err := http.Get(ts.URL + "/api/v1/trace/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest && resp.StatusCode != http.StatusNotFound {
		t.Fatalf("empty trace ID: %d", resp.StatusCode)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	ts, b := newStack(t, nil)
	b.SetTracer(trace.New(trace.Config{Broker: "b1"}))

	code, _ := post(t, ts, "/api/v1/register", map[string]string{"name": "acme"})
	if code != http.StatusOK {
		t.Fatalf("register: %d", code)
	}
	code, _ = post(t, ts, "/api/v1/subscribe", map[string]string{
		"client": "acme", "subscription": "(degree = PhD)",
	})
	if code != http.StatusOK {
		t.Fatalf("subscribe: %d", code)
	}
	if code, _ := post(t, ts, "/api/v1/publish", map[string]string{"event": "(degree, PhD)"}); code != http.StatusOK {
		t.Fatalf("publish: %d", code)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") || !strings.Contains(ct, "0.0.4") {
		t.Fatalf("content type %q, want text exposition 0.0.4", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		"stopss_trace_stamped_total",
		"stopss_stage_match_seconds_bucket",
		"stopss_stage_publish_seconds_count",
		`broker="b1"`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics output lacks %q:\n%s", want, text)
		}
	}
}

// TestMetricsExtraSources checks WithMetrics sources render after the
// tracer registry and that a source aliasing it is not emitted twice.
func TestMetricsExtraSources(t *testing.T) {
	ts, b := newStack(t, nil)
	tr := trace.New(trace.Config{Broker: "b2"})
	b.SetTracer(tr)

	extra := metrics.NewRegistry()
	extra.Counter("custom.events").Add(7)
	srv := NewServer(b,
		WithMetrics("app", extra),
		WithMetrics("stopss", tr.Registry()), // alias of the tracer registry
	)
	ts2 := httptest.NewServer(srv)
	defer ts2.Close()

	resp, err := http.Get(ts2.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	if !strings.Contains(text, "app_custom_events_total") ||
		!strings.Contains(text, `app_custom_events_total{broker="b2"} 7`) {
		t.Fatalf("extra source missing from exposition:\n%s", text)
	}
	if n := strings.Count(text, "# TYPE stopss_trace_stamped_total counter"); n != 1 {
		t.Fatalf("tracer registry rendered %d times, want exactly once", n)
	}
	_ = ts
}
