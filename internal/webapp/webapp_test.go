package webapp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"stopss/internal/broker"
	"stopss/internal/core"
	"stopss/internal/message"
	"stopss/internal/notify"
	"stopss/internal/ontology"
	"stopss/internal/semantic"
	"stopss/internal/sublang"
	"stopss/internal/workload"
)

// newStack builds broker + engine (+ optional notifier) over the jobs
// ontology and returns the HTTP test server.
func newStack(t *testing.T, ne *notify.Engine) (*httptest.Server, *broker.Broker) {
	t.Helper()
	ont, err := ontology.Load(workload.JobsODL, ontology.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(ont.Stage(semantic.FullConfig()))
	b := broker.New(eng, ne)
	ts := httptest.NewServer(NewServer(b))
	t.Cleanup(ts.Close)
	return ts, b
}

func post(t *testing.T, ts *httptest.Server, path string, body any) (int, map[string]any) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response of %s: %v", path, err)
	}
	return resp.StatusCode, out
}

func get(t *testing.T, ts *httptest.Server, path string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response of %s: %v", path, err)
	}
	return resp.StatusCode, out
}

func TestAPIRoundTrip(t *testing.T) {
	ts, _ := newStack(t, nil)

	code, _ := post(t, ts, "/api/v1/register", map[string]string{"name": "acme"})
	if code != http.StatusOK {
		t.Fatalf("register: %d", code)
	}

	code, body := post(t, ts, "/api/v1/subscribe", map[string]string{
		"client":       "acme",
		"subscription": "(university = Toronto) and (degree = PhD) and (professional experience >= 4)",
	})
	if code != http.StatusOK {
		t.Fatalf("subscribe: %d %v", code, body)
	}
	if body["id"].(float64) != 1 {
		t.Fatalf("subscribe body = %v", body)
	}

	// The paper's §1 event, submitted in surface syntax, matches
	// semantically through synonyms + mapping function.
	code, body = post(t, ts, "/api/v1/publish", map[string]string{
		"event": "(school, Toronto)(degree, PhD)(work experience, true)(graduation year, 1990)",
	})
	if code != http.StatusOK {
		t.Fatalf("publish: %d %v", code, body)
	}
	if ms := body["matches"].([]any); len(ms) != 1 {
		t.Fatalf("matches = %v, want the semantic match", body)
	}

	// Switch to syntactic mode: the same publication no longer matches.
	if code, _ := post(t, ts, "/api/v1/mode", map[string]string{"mode": "syntactic"}); code != http.StatusOK {
		t.Fatal("mode switch failed")
	}
	if _, body := get(t, ts, "/api/v1/mode"); body["mode"] != "syntactic" {
		t.Fatalf("mode = %v", body)
	}
	_, body = post(t, ts, "/api/v1/publish", map[string]string{
		"event": "(school, Toronto)(degree, PhD)(work experience, true)(graduation year, 1990)",
	})
	if ms := body["matches"].([]any); len(ms) != 0 {
		t.Fatalf("syntactic matches = %v, want none", ms)
	}

	// Unsubscribe and stats.
	if code, body := post(t, ts, "/api/v1/unsubscribe", map[string]any{"client": "acme", "id": 1}); code != http.StatusOK {
		t.Fatalf("unsubscribe: %d %v", code, body)
	}
	_, stats := get(t, ts, "/api/v1/stats")
	if stats["Subscriptions"].(float64) != 0 || stats["Published"].(float64) != 2 {
		t.Fatalf("stats = %v", stats)
	}
	_, clients := get(t, ts, "/api/v1/clients")
	if cs := clients["clients"].([]any); len(cs) != 1 || cs[0] != "acme" {
		t.Fatalf("clients = %v", clients)
	}
}

func TestAPIErrors(t *testing.T) {
	ts, _ := newStack(t, nil)
	cases := []struct {
		path string
		body any
		want int
	}{
		{"/api/v1/register", map[string]string{}, http.StatusBadRequest},                                          // empty name
		{"/api/v1/subscribe", map[string]string{"client": "ghost", "subscription": "(a=1)"}, http.StatusNotFound}, // unknown client
		{"/api/v1/subscribe", map[string]string{"client": "acme", "subscription": "((("}, http.StatusBadRequest},  // parse error
		{"/api/v1/publish", map[string]string{"event": "not an event"}, http.StatusBadRequest},                    // parse error
		{"/api/v1/mode", map[string]string{"mode": "quantum"}, http.StatusBadRequest},                             // unknown mode
		{"/api/v1/unsubscribe", map[string]any{"client": "acme", "id": 99}, http.StatusNotFound},                  // unknown sub
	}
	for _, tc := range cases {
		code, body := post(t, ts, tc.path, tc.body)
		if code != tc.want {
			t.Errorf("POST %s %v: code = %d, want %d (%v)", tc.path, tc.body, code, tc.want, body)
		}
		if body["error"] == "" {
			t.Errorf("POST %s: missing error message", tc.path)
		}
		// The envelope repeats the HTTP status in the body.
		if got, ok := body["code"].(float64); !ok || int(got) != tc.want {
			t.Errorf("POST %s: envelope code = %v, want %d", tc.path, body["code"], tc.want)
		}
	}
	// Unknown fields are rejected.
	code, _ := post(t, ts, "/api/v1/publish", map[string]string{"event": "(a, 1)", "bogus": "x"})
	if code != http.StatusBadRequest {
		t.Errorf("unknown field accepted: %d", code)
	}
	// Malformed JSON.
	resp, err := http.Post(ts.URL+"/api/v1/publish", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: %d", resp.StatusCode)
	}
}

func TestIndexPage(t *testing.T) {
	ts, _ := newStack(t, nil)
	resp, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	if _, err := ioCopy(&sb, resp); err != nil {
		t.Fatal(err)
	}
	page := sb.String()
	for _, want := range []string{"S-ToPSS", "semantic", "syntactic", "/api/v1/publish"} {
		if !strings.Contains(page, want) {
			t.Errorf("index page missing %q", want)
		}
	}
	// Unknown paths 404.
	resp2, err := http.Get(ts.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("GET /nope = %d", resp2.StatusCode)
	}
}

func ioCopy(sb *strings.Builder, resp *http.Response) (int64, error) {
	buf := make([]byte, 32*1024)
	var n int64
	for {
		k, err := resp.Body.Read(buf)
		sb.Write(buf[:k])
		n += int64(k)
		if err != nil {
			if err.Error() == "EOF" {
				return n, nil
			}
			return n, err
		}
	}
}

// TestFigure2 is the end-to-end reproduction of the demonstration setup
// (experiment F2): a workload generator drives the web application over
// HTTP; matches flow through the notification engine to TCP, UDP, SMTP
// and SMS sinks.
func TestFigure2(t *testing.T) {
	// Notification sinks (the right-hand side of Figure 2).
	var col struct {
		mu    sync.Mutex
		tcp   int
		udp   int
		smtp  int
		total int
	}
	bump := func(which *int) func() {
		return func() {
			col.mu.Lock()
			defer col.mu.Unlock()
			*which++
			col.total++
		}
	}
	tcpSink, err := notify.NewTCPSink("127.0.0.1:0", func(notify.Notification) { bump(&col.tcp)() })
	if err != nil {
		t.Fatal(err)
	}
	defer tcpSink.Close()
	udpSink, err := notify.NewUDPSink("127.0.0.1:0", func(notify.Notification) { bump(&col.udp)() })
	if err != nil {
		t.Fatal(err)
	}
	defer udpSink.Close()
	smtpSink, err := notify.NewSMTPSink("127.0.0.1:0", func(notify.Mail) { bump(&col.smtp)() })
	if err != nil {
		t.Fatal(err)
	}
	defer smtpSink.Close()
	sms := notify.NewSMSGateway(0, 0)

	ne, err := notify.NewEngine(notify.Config{Workers: 4},
		notify.NewTCPTransport(0), notify.NewUDPTransport(),
		notify.NewSMTPTransport(""), sms)
	if err != nil {
		t.Fatal(err)
	}
	defer ne.Close()

	ts, _ := newStack(t, ne)

	// 40 companies registered over HTTP, round-robin across transports.
	routes := []map[string]string{
		{"transport": "tcp", "addr": tcpSink.Addr()},
		{"transport": "udp", "addr": udpSink.Addr()},
		{"transport": "smtp", "addr": "hr@" + smtpSink.Addr()},
		{"transport": "sms", "addr": "+1-416-555-0100"},
	}
	jf := workload.NewJobFinder(2003)
	subs := jf.Recruiters(40)
	for i, s := range subs {
		name := s.Subscriber
		reg := map[string]string{"name": name}
		for k, v := range routes[i%len(routes)] {
			reg[k] = v
		}
		if code, body := post(t, ts, "/api/v1/register", reg); code != http.StatusOK {
			t.Fatalf("register %s: %v", name, body)
		}
		text := subFormat(s)
		if code, body := post(t, ts, "/api/v1/subscribe", map[string]string{
			"client": name, "subscription": text,
		}); code != http.StatusOK {
			t.Fatalf("subscribe %q: %v", text, body)
		}
	}

	// 150 candidate resumes published over HTTP (the workload generator
	// of Figure 2 simulating many concurrent candidates).
	var wg sync.WaitGroup
	var pubMu sync.Mutex
	notified := 0
	resumes := jf.Resumes(150)
	for w := 0; w < 5; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(resumes); i += 5 {
				buf, _ := json.Marshal(map[string]string{"event": evFormat(resumes[i])})
				resp, err := http.Post(ts.URL+"/api/v1/publish", "application/json", bytes.NewReader(buf))
				if err != nil {
					t.Error(err)
					return
				}
				var out struct {
					Notified int `json:"notified"`
				}
				_ = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				pubMu.Lock()
				notified += out.Notified
				pubMu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	if notified == 0 {
		t.Fatal("no notifications produced — the semantic pipeline is dead")
	}
	if !ne.Drain(5 * time.Second) {
		t.Fatal("notification queue did not drain")
	}

	// Every transport must have delivered something.
	deadline := time.Now().Add(3 * time.Second)
	for {
		col.mu.Lock()
		tcp, udp, smtp, total := col.tcp, col.udp, col.smtp, col.total
		col.mu.Unlock()
		smsN := len(sms.Messages())
		if tcp > 0 && udp > 0 && smtp > 0 && smsN > 0 && total+smsN >= notified {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("deliveries: tcp=%d udp=%d smtp=%d sms=%d, notified=%d",
				tcp, udp, smtp, smsN, notified)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func subFormat(s message.Subscription) string {
	parts := make([]string, len(s.Preds))
	for i, p := range s.Preds {
		if p.Val.Kind() == message.KindString && strings.ContainsAny(p.Val.Str(), " ") {
			parts[i] = fmt.Sprintf("(%s %s %q)", p.Attr, p.Op, p.Val.Str())
		} else {
			parts[i] = p.String()
		}
	}
	return strings.Join(parts, " and ")
}

func evFormat(e message.Event) string {
	var sb strings.Builder
	for _, p := range e.Pairs() {
		if p.Val.Kind() == message.KindString && strings.ContainsAny(p.Val.Str(), ",()") {
			fmt.Fprintf(&sb, "(%s, %q)", p.Attr, p.Val.Str())
		} else {
			fmt.Fprintf(&sb, "(%s, %s)", p.Attr, p.Val)
		}
	}
	return sb.String()
}

func TestSubscriptionsEndpoint(t *testing.T) {
	ts, _ := newStack(t, nil)
	if code, _ := post(t, ts, "/api/v1/register", map[string]string{"name": "acme"}); code != http.StatusOK {
		t.Fatal("register failed")
	}
	for _, sub := range []string{"(a = 1)", "(b >= 2) and (c exists)"} {
		if code, body := post(t, ts, "/api/v1/subscribe", map[string]string{
			"client": "acme", "subscription": sub,
		}); code != http.StatusOK {
			t.Fatalf("subscribe: %v", body)
		}
	}
	code, body := get(t, ts, "/api/v1/subscriptions?client=acme")
	if code != http.StatusOK {
		t.Fatalf("subscriptions: %d %v", code, body)
	}
	subs := body["subscriptions"].([]any)
	if len(subs) != 2 {
		t.Fatalf("subscriptions = %v", subs)
	}
	first := subs[0].(map[string]any)
	if first["text"] != "(a = 1)" {
		t.Errorf("text = %v", first["text"])
	}
	// Unknown client → empty list, missing param → 400.
	if _, body := get(t, ts, "/api/v1/subscriptions?client=ghost"); len(body["subscriptions"].([]any)) != 0 {
		t.Error("ghost client should list nothing")
	}
	if code, _ := get(t, ts, "/api/v1/subscriptions"); code != http.StatusBadRequest {
		t.Errorf("missing client param = %d, want 400", code)
	}
}

func TestSnapshotEndpointRestores(t *testing.T) {
	ts, _ := newStack(t, nil)
	if code, _ := post(t, ts, "/api/v1/register", map[string]string{"name": "acme"}); code != http.StatusOK {
		t.Fatal("register failed")
	}
	if code, _ := post(t, ts, "/api/v1/subscribe", map[string]string{
		"client": "acme", "subscription": "(university = Toronto)",
	}); code != http.StatusOK {
		t.Fatal("subscribe failed")
	}

	resp, err := http.Get(ts.URL + "/api/v1/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	snap, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(snap), `"kind":"header"`) {
		t.Fatalf("snapshot body = %q", snap)
	}

	// A second, empty stack restores the snapshot and behaves the same.
	_, b2 := newStack(t, nil)
	if err := b2.Restore(bytes.NewReader(snap)); err != nil {
		t.Fatalf("restore: %v", err)
	}
	ev, _ := sublang.ParseEvent("(school, Toronto)")
	res, err := b2.Publish(ev)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 1 {
		t.Errorf("restored broker matches = %v", res.Matches)
	}
}

func TestExplainEndpoint(t *testing.T) {
	ts, _ := newStack(t, nil)
	if code, _ := post(t, ts, "/api/v1/register", map[string]string{"name": "acme"}); code != http.StatusOK {
		t.Fatal("register failed")
	}
	if code, _ := post(t, ts, "/api/v1/subscribe", map[string]string{
		"client": "acme", "subscription": "(university = Toronto) and (professional experience >= 4)",
	}); code != http.StatusOK {
		t.Fatal("subscribe failed")
	}
	code, body := post(t, ts, "/api/v1/explain", map[string]any{
		"id": 1, "event": "(school, Toronto)(graduation year, 1990)",
	})
	if code != http.StatusOK {
		t.Fatalf("explain: %d %v", code, body)
	}
	if body["matched"] != true {
		t.Fatalf("matched = %v", body)
	}
	trace := body["trace"].(string)
	if !strings.Contains(trace, "DERIVED by the semantic stage") {
		t.Errorf("trace = %q", trace)
	}
	// Error paths.
	if code, _ := post(t, ts, "/api/v1/explain", map[string]any{"id": 99, "event": "(a, 1)"}); code != http.StatusBadRequest {
		t.Error("unknown subscription should 400")
	}
	if code, _ := post(t, ts, "/api/v1/explain", map[string]any{"id": 1, "event": "broken"}); code != http.StatusBadRequest {
		t.Error("unparsable event should 400")
	}
}

func TestAdvertiseEndpoints(t *testing.T) {
	ts, _ := newStack(t, nil)
	for _, name := range []string{"jobsite", "acme"} {
		if code, _ := post(t, ts, "/api/v1/register", map[string]string{"name": name}); code != http.StatusOK {
			t.Fatal("register failed")
		}
	}
	if code, body := post(t, ts, "/api/v1/subscribe", map[string]string{
		"client": "acme", "subscription": "(university = Toronto)",
	}); code != http.StatusOK {
		t.Fatalf("subscribe: %v", body)
	}
	if code, body := post(t, ts, "/api/v1/advertise", map[string]string{
		"client": "jobsite", "advertisement": "(school exists)",
	}); code != http.StatusOK {
		t.Fatalf("advertise: %v", body)
	}

	// Overlaps: the university subscription is reachable via synonyms.
	code, body := get(t, ts, "/api/v1/overlaps?client=jobsite")
	if code != http.StatusOK {
		t.Fatalf("overlaps: %d %v", code, body)
	}
	if ov := body["overlaps"].([]any); len(ov) != 1 {
		t.Fatalf("overlaps = %v", body)
	}

	// publish-from: conforming succeeds, non-conforming 400s.
	code, body = post(t, ts, "/api/v1/publish-from", map[string]string{
		"client": "jobsite", "event": "(school, Toronto)",
	})
	if code != http.StatusOK {
		t.Fatalf("publish-from: %v", body)
	}
	if ms := body["matches"].([]any); len(ms) != 1 {
		t.Fatalf("matches = %v", body)
	}
	code, body = post(t, ts, "/api/v1/publish-from", map[string]string{
		"client": "jobsite", "event": "(salary, 90)",
	})
	if code != http.StatusBadRequest {
		t.Fatalf("non-conforming publication accepted: %v", body)
	}
	// Missing param on overlaps.
	if code, _ := get(t, ts, "/api/v1/overlaps"); code != http.StatusBadRequest {
		t.Error("missing client param should 400")
	}
}

func TestDisjunctiveSubscription(t *testing.T) {
	ts, _ := newStack(t, nil)
	if code, _ := post(t, ts, "/api/v1/register", map[string]string{"name": "acme"}); code != http.StatusOK {
		t.Fatal("register failed")
	}
	code, body := post(t, ts, "/api/v1/subscribe", map[string]string{
		"client":       "acme",
		"subscription": "(university = Toronto) or (degree = PhD)",
	})
	if code != http.StatusOK {
		t.Fatalf("subscribe: %v", body)
	}
	if ids := body["ids"].([]any); len(ids) != 2 {
		t.Fatalf("ids = %v, want 2 disjunct subscriptions", body)
	}
	// Either disjunct alone matches.
	_, pub := post(t, ts, "/api/v1/publish", map[string]string{"event": "(school, Toronto)"})
	if ms := pub["matches"].([]any); len(ms) != 1 {
		t.Fatalf("first disjunct: %v", pub)
	}
	_, pub = post(t, ts, "/api/v1/publish", map[string]string{"event": "(degree, PhD)"})
	if ms := pub["matches"].([]any); len(ms) != 1 {
		t.Fatalf("second disjunct: %v", pub)
	}
	// A failing disjunct rolls the whole submission back.
	code, _ = post(t, ts, "/api/v1/subscribe", map[string]string{
		"client":       "acme",
		"subscription": "(a = 1) or (b = )",
	})
	if code != http.StatusBadRequest {
		t.Fatal("malformed disjunct accepted")
	}
	_, listing := get(t, ts, "/api/v1/subscriptions?client=acme")
	if subs := listing["subscriptions"].([]any); len(subs) != 2 {
		t.Errorf("rollback failed, subscriptions = %v", subs)
	}
}
