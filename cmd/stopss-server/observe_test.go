package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"stopss/internal/broker"
	"stopss/internal/metrics"
	"stopss/internal/overlay"
	"stopss/internal/webapp"
)

// TestBuildLogger covers the -log-format/-log-level surface: both
// handler kinds, level filtering, and rejection of unknown values.
func TestBuildLogger(t *testing.T) {
	var buf bytes.Buffer
	lg, err := buildLogger(&buf, "json", "warn")
	if err != nil {
		t.Fatal(err)
	}
	lg = lg.With("broker", "b1")
	lg.Info("suppressed")
	lg.Warn("kept", "k", "v")
	out := buf.String()
	if strings.Contains(out, "suppressed") {
		t.Fatalf("info record passed a warn-level logger:\n%s", out)
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(out), &rec); err != nil {
		t.Fatalf("json handler produced non-JSON %q: %v", out, err)
	}
	if rec["broker"] != "b1" || rec["msg"] != "kept" || rec["k"] != "v" {
		t.Fatalf("record %v lacks broker identity or attrs", rec)
	}

	buf.Reset()
	lg, err = buildLogger(&buf, "text", "debug")
	if err != nil {
		t.Fatal(err)
	}
	lg.Debug("fine-grained")
	if !strings.Contains(buf.String(), "fine-grained") {
		t.Fatalf("debug record missing from a debug-level text logger:\n%s", buf.String())
	}

	if _, err := buildLogger(io.Discard, "xml", "info"); err == nil {
		t.Error("unknown format must fail")
	}
	if _, err := buildLogger(io.Discard, "text", "loud"); err == nil {
		t.Error("unknown level must fail")
	}
}

// obsBroker is one half of the two-broker observability fixture: a
// full stack with an overlay node on a real TCP socket and the HTTP
// API in front.
type obsBroker struct {
	b    *broker.Broker
	node *overlay.Node
	ts   *httptest.Server
}

func startObsBroker(t *testing.T, name string, peers ...string) *obsBroker {
	t.Helper()
	reg := metrics.NewRegistry()
	b, notifier, err := buildStack(stackOptions{Addr: "127.0.0.1:0", Matcher: "counting", Mode: "semantic"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { notifier.Close() })
	node, err := overlay.NewNode(overlay.Config{
		Name:      name,
		Listen:    "127.0.0.1:0",
		Peers:     peers,
		Transport: overlay.TCP(),
		Registry:  reg,
	}, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = node.Close() })
	ts := httptest.NewServer(webapp.NewServer(b,
		append(metricsOptions(reg, notifier), webapp.WithCluster(node.ClusterView))...))
	t.Cleanup(ts.Close)
	return &obsBroker{b: b, node: node, ts: ts}
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestThreeBrokerClusterView is the federation-health integration
// scenario behind the CI observability step: three brokers federate in
// a line over real TCP, and GET /api/v1/cluster on EVERY broker —
// including the line's endpoints, which never link to each other —
// reports all three healthy, with no refresh ticker involved (the
// attach-time gossip alone must converge).
func TestThreeBrokerClusterView(t *testing.T) {
	b1 := startObsBroker(t, "b1")
	b2 := startObsBroker(t, "b2", b1.node.Addr())
	b3 := startObsBroker(t, "b3", b2.node.Addr())

	fetch := func(ob *obsBroker) (brokers, stale int, entries map[string]bool) {
		t.Helper()
		resp, err := http.Get(ob.ts.URL + "/api/v1/cluster")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/api/v1/cluster: %d", resp.StatusCode)
		}
		var cr struct {
			Brokers int `json:"brokers"`
			Stale   int `json:"stale"`
			Cluster []struct {
				Broker string `json:"broker"`
				Stale  bool   `json:"stale"`
			} `json:"cluster"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
			t.Fatal(err)
		}
		entries = make(map[string]bool)
		for _, e := range cr.Cluster {
			entries[e.Broker] = !e.Stale
		}
		return cr.Brokers, cr.Stale, entries
	}

	for i, ob := range []*obsBroker{b1, b2, b3} {
		waitUntil(t, "full healthy cluster view on broker "+ob.node.Addr(), func() bool {
			brokers, stale, _ := fetch(ob)
			return brokers == 3 && stale == 0
		})
		_, _, entries := fetch(ob)
		for _, name := range []string{"b1", "b2", "b3"} {
			if !entries[name] {
				t.Errorf("broker %d's cluster view lacks a fresh %s entry: %v", i+1, name, entries)
			}
		}
	}
}

// TestTwoBrokerObservability is the integration scenario behind the CI
// observability step: two brokers federate over TCP, a publication
// flows b1→b2, both /metrics endpoints expose non-zero stage
// histograms, and the origin's /api/v1/trace returns the complete span
// chain including the remote deliver reported back over the overlay.
func TestTwoBrokerObservability(t *testing.T) {
	b1 := startObsBroker(t, "b1")
	b2 := startObsBroker(t, "b2", b1.node.Addr())

	api := func(ob *obsBroker, path string, body map[string]any) map[string]any {
		t.Helper()
		buf, _ := json.Marshal(body)
		resp, err := http.Post(ob.ts.URL+path, "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: %d %v", path, resp.StatusCode, out)
		}
		return out
	}

	// Subscriber on b2; wait for its interest to flood to b1.
	api(b2, "/api/v1/register", map[string]any{"name": "acme", "transport": "sms", "addr": "555-0100"})
	api(b2, "/api/v1/subscribe", map[string]any{
		"client": "acme", "subscription": "(university = Toronto)",
	})
	waitUntil(t, "subscription propagation to b1", func() bool {
		return b1.b.Stats().Remote.RemoteSubs >= 1
	})

	// Publish at b1: must traverse the overlay and deliver at b2.
	out := api(b1, "/api/v1/publish", map[string]any{"event": "(school, Toronto)"})
	pubID, _ := out["pub_id"].(string)
	if pubID == "" {
		t.Fatalf("publish response missing pub_id: %v", out)
	}

	// The deliver span is reported back asynchronously; poll the origin's
	// trace endpoint until the chain closes.
	traceURL := b1.ts.URL + "/api/v1/trace/" + strings.ReplaceAll(pubID, "#", "%23")
	kinds := make(map[string]int)
	waitUntil(t, "complete span chain at the origin", func() bool {
		resp, err := http.Get(traceURL)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return false
		}
		var tr struct {
			Spans []struct {
				Kind   string `json:"kind"`
				Broker string `json:"broker"`
			} `json:"spans"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
			t.Fatal(err)
		}
		clear(kinds)
		for _, s := range tr.Spans {
			kinds[s.Kind]++
		}
		return kinds["deliver"] >= 1
	})
	for _, want := range []string{"publish", "match", "forward", "recv", "deliver"} {
		if kinds[want] == 0 {
			t.Errorf("span chain lacks a %s span: %v", want, kinds)
		}
	}

	// The laggiest-subscription view is live on both brokers; b2 owns
	// the only subscription and must report it delivered.
	waitUntil(t, "delivery accounted on b2's /api/v1/subs", func() bool {
		resp, err := http.Get(b2.ts.URL + "/api/v1/subs")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb struct {
			Total int `json:"total"`
			Subs  []struct {
				Client    string `json:"client"`
				Delivered uint64 `json:"delivered"`
			} `json:"subs"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.Total == 1 && len(sb.Subs) == 1 &&
			sb.Subs[0].Client == "acme" && sb.Subs[0].Delivered >= 1
	})

	// Both brokers expose populated stage histograms.
	for i, ob := range []*obsBroker{b1, b2} {
		resp, err := http.Get(ob.ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		text := string(raw)
		for _, metric := range []string{
			"stopss_stage_match_seconds_count",
			"stopss_stage_publish_seconds_count",
		} {
			// b2 never ran a local publish admission: its publish stage
			// may legitimately be zero, but match must not be.
			if i == 1 && metric == "stopss_stage_publish_seconds_count" {
				continue
			}
			found := false
			for _, line := range strings.Split(text, "\n") {
				if strings.HasPrefix(line, metric) && !strings.HasSuffix(line, " 0") {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("broker %d: %s missing or zero in /metrics", i+1, metric)
			}
		}
		// The notifier's queue-full drop counter is exported from boot,
		// at 0 before any queue ever overflowed.
		if !strings.Contains(text, "\nstopss_notify_rejected_total{") {
			t.Errorf("broker %d: /metrics lacks the stopss_notify_rejected_total family", i+1)
		}
	}
}
