package webapp

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"stopss/internal/broker"
	"stopss/internal/knowledge"
	"stopss/internal/overlay"
)

// TestSubsEndpoint drives a durable subscription into lag (offline
// sink) next to a caught-up fire-and-forget one and checks the
// /api/v1/subs ordering, filters and parameter validation.
func TestSubsEndpoint(t *testing.T) {
	ts, _, sink, ne := newDurableStack(t)

	for _, name := range []string{"acme", "beta"} {
		code, _ := post(t, ts, "/api/v1/register", map[string]any{
			"name": name, "transport": "mem", "addr": name})
		if code != http.StatusOK {
			t.Fatalf("register %s: %d", name, code)
		}
	}
	code, body := post(t, ts, "/api/v1/subscribe", map[string]any{
		"client": "acme", "subscription": "(university = Toronto)", "durable": true})
	if code != http.StatusOK {
		t.Fatalf("durable subscribe: %d %v", code, body)
	}
	durID := uint64(body["id"].(float64))
	if code, body = post(t, ts, "/api/v1/subscribe", map[string]any{
		"client": "beta", "subscription": "(degree = PhD)"}); code != http.StatusOK {
		t.Fatalf("plain subscribe: %d %v", code, body)
	}

	// Three journaled publications the durable sub cannot ack: its lag
	// is 3 while the non-matching fire-and-forget sub stays at 0.
	sink.set(true)
	for i := 0; i < 3; i++ {
		if code, body := post(t, ts, "/api/v1/publish", map[string]any{"event": "(school, Toronto)"}); code != http.StatusOK {
			t.Fatalf("publish %d: %d %v", i, code, body)
		}
	}
	if !ne.Drain(2 * time.Second) {
		t.Fatal("drain")
	}

	code, sb := get(t, ts, "/api/v1/subs")
	if code != http.StatusOK {
		t.Fatalf("subs: %d %v", code, sb)
	}
	if sb["total"].(float64) != 2 || sb["matched"].(float64) != 2 {
		t.Fatalf("total/matched = %v/%v, want 2/2", sb["total"], sb["matched"])
	}
	subs := sb["subs"].([]any)
	if len(subs) != 2 {
		t.Fatalf("subs rows = %d, want 2", len(subs))
	}
	first := subs[0].(map[string]any)
	if uint64(first["id"].(float64)) != durID || first["lag"].(float64) != 3 {
		t.Fatalf("laggiest row = %v, want durable sub %d with lag 3", first, durID)
	}
	if first["durable"] != true || first["client"] != "acme" {
		t.Fatalf("laggiest row identity = %v", first)
	}
	if first["parked"].(float64) != 3 {
		t.Fatalf("parked = %v, want 3 with the sink offline", first["parked"])
	}
	if subs[1].(map[string]any)["lag"].(float64) != 0 {
		t.Fatalf("caught-up row = %v, want lag 0", subs[1])
	}

	// min_lag hides the caught-up row but still reports the total.
	code, sb = get(t, ts, "/api/v1/subs?min_lag=1")
	if code != http.StatusOK {
		t.Fatalf("subs?min_lag: %d", code)
	}
	if sb["total"].(float64) != 2 || sb["matched"].(float64) != 1 || len(sb["subs"].([]any)) != 1 {
		t.Fatalf("min_lag=1 → total=%v matched=%v rows=%d", sb["total"], sb["matched"], len(sb["subs"].([]any)))
	}

	// limit caps rows without changing the counts; limit=0 is unlimited.
	code, sb = get(t, ts, "/api/v1/subs?limit=1")
	if code != http.StatusOK || len(sb["subs"].([]any)) != 1 || sb["matched"].(float64) != 2 {
		t.Fatalf("limit=1 → %d %v", code, sb)
	}
	code, sb = get(t, ts, "/api/v1/subs?limit=0")
	if code != http.StatusOK || len(sb["subs"].([]any)) != 2 {
		t.Fatalf("limit=0 → %d %v", code, sb)
	}

	// Malformed parameters are usage errors, not empty views.
	for _, q := range []string{"?limit=-1", "?limit=x", "?min_lag=-2", "?min_lag=x"} {
		if code, _ := get(t, ts, "/api/v1/subs"+q); code != http.StatusBadRequest {
			t.Errorf("subs%s: %d, want 400", q, code)
		}
	}

	// After the sink heals, a resume catches the durable sub up and the
	// lag drains to zero.
	sink.set(false)
	if code, body := post(t, ts, "/api/v1/resume", map[string]any{"client": "acme", "id": durID}); code != http.StatusOK {
		t.Fatalf("resume: %d %v", code, body)
	}
	if !ne.Drain(2 * time.Second) {
		t.Fatal("drain after resume")
	}
	_, sb = get(t, ts, "/api/v1/subs?min_lag=1")
	if sb["matched"].(float64) != 0 {
		t.Fatalf("lagging subs after catch-up: %v", sb)
	}
}

// TestClusterEndpoint: 404 without an overlay, and a faithful
// round-trip of the injected cluster view with one.
func TestClusterEndpoint(t *testing.T) {
	ts, b := newStack(t, nil)
	if code, body := get(t, ts, "/api/v1/cluster"); code != http.StatusNotFound {
		t.Fatalf("standalone cluster: %d %v, want 404", code, body)
	}

	fixture := []overlay.ClusterEntry{
		{Broker: "b00", Self: true, Summary: overlay.OpsSummary{Origin: "b00", Subscriptions: 2}},
		{Broker: "b01", AgeMS: 12, Summary: overlay.OpsSummary{Origin: "b01"}},
		{Broker: "b02", AgeMS: 99000, Stale: true, Down: true, Summary: overlay.OpsSummary{Origin: "b02"}},
	}
	ts2 := httptest.NewServer(NewServer(b, WithCluster(func() []overlay.ClusterEntry { return fixture })))
	defer ts2.Close()

	code, body := get(t, ts2, "/api/v1/cluster")
	if code != http.StatusOK {
		t.Fatalf("cluster: %d %v", code, body)
	}
	if body["brokers"].(float64) != 3 || body["stale"].(float64) != 1 {
		t.Fatalf("brokers/stale = %v/%v, want 3/1", body["brokers"], body["stale"])
	}
	rows := body["cluster"].([]any)
	self := rows[0].(map[string]any)
	if self["broker"] != "b00" || self["self"] != true {
		t.Fatalf("row 0 = %v, want self entry b00", self)
	}
	down := rows[2].(map[string]any)
	if down["down"] != true || down["stale"] != true {
		t.Fatalf("row 2 = %v, want down+stale b02", down)
	}
	if down["summary"].(map[string]any)["origin"] != "b02" {
		t.Fatalf("row 2 summary = %v", down["summary"])
	}
}

// TestMetricsHealthFamilies: the runtime and subscription-lag gauges
// render on /metrics with bounded cardinality — top-K ranked names,
// never one series per subscription.
func TestMetricsHealthFamilies(t *testing.T) {
	ts, _, sink, ne := newDurableStack(t)

	code, _ := post(t, ts, "/api/v1/register", map[string]any{
		"name": "acme", "transport": "mem", "addr": "acme"})
	if code != http.StatusOK {
		t.Fatalf("register: %d", code)
	}
	// More lagging durable subs than healthTopK: the exposition must cap
	// at the ranked gauges.
	for i := 0; i < healthTopK+3; i++ {
		code, body := post(t, ts, "/api/v1/subscribe", map[string]any{
			"client": "acme", "subscription": "(university = Toronto)", "durable": true})
		if code != http.StatusOK {
			t.Fatalf("subscribe %d: %d %v", i, code, body)
		}
	}
	sink.set(true)
	if code, body := post(t, ts, "/api/v1/publish", map[string]any{"event": "(school, Toronto)"}); code != http.StatusOK {
		t.Fatalf("publish: %d %v", code, body)
	}
	if !ne.Drain(2 * time.Second) {
		t.Fatal("drain")
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
	// Gauges may carry a broker label, so match "name[{labels}] value".
	for _, want := range []string{
		`stopss_runtime_goroutines(\{[^}]*\})? `,
		`stopss_runtime_heap_bytes(\{[^}]*\})? `,
		`stopss_subs_tracked(\{[^}]*\})? ` + fmt.Sprint(healthTopK+3),
		`stopss_subs_lag_max(\{[^}]*\})? 1`,
		`stopss_subs_lag_sum(\{[^}]*\})? ` + fmt.Sprint(healthTopK+3),
		`stopss_subs_lag_rank1(\{[^}]*\})? 1`,
		`stopss_subs_lag_rank` + fmt.Sprint(healthTopK) + `(\{[^}]*\})? 1`,
	} {
		if !regexp.MustCompile(want).MatchString(text) {
			t.Fatalf("/metrics output lacks /%s/:\n%s", want, text)
		}
	}
	if strings.Contains(text, "lag_rank"+fmt.Sprint(healthTopK+1)) {
		t.Fatalf("/metrics leaked rank beyond top-%d:\n%s", healthTopK, text)
	}
}

// TestMetricsScrapeUnderChurn scrapes /metrics concurrently with
// knowledge re-indexing and subscription churn. Run with -race this
// guards the lock discipline between the scrape-time snapshots
// (SubStats, engine stats, runtime reads) and the mutating paths.
func TestMetricsScrapeUnderChurn(t *testing.T) {
	ts, b := newKBStack(t)
	if err := b.Register(broker.Client{Name: "churn"}); err != nil {
		t.Fatal(err)
	}

	const rounds = 50
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // scraper
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			resp, err := http.Get(ts.URL + "/metrics")
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				t.Error(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("/metrics during churn: %d", resp.StatusCode)
				return
			}
		}
	}()
	go func() { // knowledge re-indexer
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if _, err := b.InjectKnowledge(knowledge.Delta{
				Op: knowledge.OpAddSynonym, Root: "position", Terms: []string{fmt.Sprintf("gig%d", i)},
			}); err != nil {
				t.Errorf("inject %d: %v", i, err)
				return
			}
		}
	}()
	go func() { // subscription churn
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			code, body := post(t, ts, "/api/v1/subscribe", map[string]any{
				"client": "churn", "subscription": "(degree = PhD)"})
			if code != http.StatusOK {
				t.Errorf("subscribe %d: %d %v", i, code, body)
				return
			}
			id := uint64(body["id"].(float64))
			if code, body := post(t, ts, "/api/v1/unsubscribe", map[string]any{
				"client": "churn", "id": id}); code != http.StatusOK {
				t.Errorf("unsubscribe %d: %d %v", i, code, body)
				return
			}
		}
	}()
	wg.Wait()
}
