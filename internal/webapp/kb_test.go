package webapp

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"stopss/internal/broker"
	"stopss/internal/core"
	"stopss/internal/knowledge"
	"stopss/internal/ontology"
	"stopss/internal/semantic"
	"stopss/internal/workload"
)

// newKBStack is newStack with a runtime knowledge base bound.
func newKBStack(t *testing.T) (*httptest.Server, *broker.Broker) {
	t.Helper()
	ont, err := ontology.Load(workload.JobsODL, ontology.Options{})
	if err != nil {
		t.Fatal(err)
	}
	base := knowledge.NewBase(ont.Synonyms, ont.Hierarchy, ont.Mappings)
	eng := core.NewEngine(base.Stage(semantic.FullConfig()), core.WithKnowledge(base))
	b := broker.New(eng, nil)
	ts := httptest.NewServer(NewServer(b))
	t.Cleanup(ts.Close)
	return ts, b
}

func TestKBEndpointLifecycle(t *testing.T) {
	ts, b := newKBStack(t)

	code, body := get(t, ts, "/api/v1/kb")
	if code != http.StatusOK {
		t.Fatalf("GET /api/v1/kb: %d %v", code, body)
	}
	version := body["version"].(map[string]any)
	if version["deltas"].(float64) != 0 {
		t.Fatalf("fresh KB version: %v", version)
	}

	// Inject two deltas as JSONL, one of them unstamped and one bad.
	payload := strings.Join([]string{
		`{"origin":"","epoch":"","seq":0,"op":"add_synonym","root":"position","terms":["gig"]}`,
		`{"op":"add_isa","child":"sedan","parent":"car"}`,
	}, "\n")
	resp, err := http.Post(ts.URL+"/api/v1/kb", "application/jsonl", strings.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /api/v1/kb: %d", resp.StatusCode)
	}
	if got := b.KnowledgeVersion().Deltas; got != 2 {
		t.Fatalf("deltas after POST: %d", got)
	}

	// The injected synonym is live: an event in the new term matches a
	// subscription in the canonical term.
	if err := b.Register(broker.Client{Name: "acme"}); err != nil {
		t.Fatal(err)
	}
	code, body = post(t, ts, "/api/v1/subscribe", map[string]any{
		"client": "acme", "subscription": "(position = dev)"})
	if code != http.StatusOK {
		t.Fatalf("subscribe: %d %v", code, body)
	}
	code, body = post(t, ts, "/api/v1/publish", map[string]any{"event": "(gig, dev)"})
	if code != http.StatusOK {
		t.Fatalf("publish: %d %v", code, body)
	}
	if got := body["matches"].([]any); len(got) != 1 {
		t.Fatalf("matches = %v, want 1", body)
	}

	// Malformed line: 400, but preceding state intact.
	resp, err = http.Post(ts.URL+"/api/v1/kb", "application/jsonl", strings.NewReader(`{"op":"bogus"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad delta: %d", resp.StatusCode)
	}
}

func TestKBEndpointDisabledWithoutBase(t *testing.T) {
	ts, _ := newStack(t, nil)
	code, _ := get(t, ts, "/api/v1/kb")
	if code != http.StatusNotFound {
		t.Fatalf("GET /api/v1/kb without base: %d", code)
	}
	resp, err := http.Post(ts.URL+"/api/v1/kb", "application/jsonl",
		strings.NewReader(`{"op":"add_concept","term":"x"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /api/v1/kb without base: %d", resp.StatusCode)
	}
}
