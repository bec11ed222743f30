package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/v1/cluster", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"brokers":3,"stale":1,"cluster":[
			{"broker":"b1","self":true,"summary":{"origin":"b1","subscriptions":4,"durable":2,
				"published":100,"delivered":90,"journal_head":100,"goroutines":20,"heap_bytes":3145728,
				"links":[{"peer":"b2","queue":3,"sent":50,"recv":40}]}},
			{"broker":"b2","age_ms":1200,"summary":{"origin":"b2",
				"links":[{"peer":"b1","queue":0,"sent":40,"recv":50}]}},
			{"broker":"b3","age_ms":95000,"stale":true,"down":true,"summary":{"origin":"b3"}}]}`))
	})
	mux.HandleFunc("GET /api/v1/subs", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"total":4,"subs":[
			{"id":9,"client":"acme","durable":true,"matched":60,"delivered":40,"parked":5,"lag":20,"last_delivery_age_ms":2500}]}`))
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

func TestRenderFrame(t *testing.T) {
	ts := testServer(t)
	client := &http.Client{Timeout: time.Second}

	var cv clusterView
	if err := fetchJSON(client, ts.URL+"/api/v1/cluster", &cv); err != nil {
		t.Fatal(err)
	}
	var sv subsView
	if err := fetchJSON(client, ts.URL+"/api/v1/subs?limit=8", &sv); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	render(&sb, ts.URL, &cv, &sv, nil, 8)
	out := sb.String()
	for _, want := range []string{
		"brokers:3 stale:1",
		"b1", "live", // self row shows "live", not an age
		"DOWN",       // b3's state
		"3.0MiB",     // heap rendering
		"b2", "1.2s", // peer age
		"PEER", "QUEUE", // hottest-links table present
		"laggiest subscriptions (4 tracked",
		"acme", "2.5s",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("frame lacks %q:\n%s", want, out)
		}
	}
	// The deepest queue sorts first in the links table.
	if strings.Index(out, "b1           b2") > strings.Index(out, "b2           b1") {
		t.Fatalf("links not sorted by queue depth:\n%s", out)
	}

	// A subs fetch error degrades to a note, not a dead frame.
	sb.Reset()
	render(&sb, ts.URL, &cv, nil, http.ErrServerClosed, 8)
	if !strings.Contains(sb.String(), "subscriptions: http") {
		t.Fatalf("frame hides the subs error:\n%s", sb.String())
	}

	// One row, two links: only the deepest queue is listed.
	sb.Reset()
	render(&sb, ts.URL, &cv, &sv, nil, 1)
	if out := sb.String(); !strings.Contains(out, "b1           b2") || strings.Contains(out, "b2           b1") {
		t.Fatalf("links table at n=1:\n%s", out)
	}
}
