package webapp

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"stopss/internal/broker"
	"stopss/internal/core"
	"stopss/internal/journal"
	"stopss/internal/notify"
	"stopss/internal/ontology"
	"stopss/internal/semantic"
	"stopss/internal/store"
	"stopss/internal/workload"
)

// flakySink is an in-memory notification endpoint with an on/off
// switch, mirroring a subscriber that disconnects.
type flakySink struct {
	mu      sync.Mutex
	offline bool
	seen    int
}

func (f *flakySink) Name() string { return "mem" }

func (f *flakySink) Send(string, notify.Notification) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.offline {
		return errOffline
	}
	f.seen++
	return nil
}

func (f *flakySink) Close() error { return nil }

func (f *flakySink) set(offline bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.offline = offline
}

func (f *flakySink) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.seen
}

var errOffline = errors.New("mem: endpoint offline")

// newDurableStack is newStack plus an attached journal.
func newDurableStack(t *testing.T) (*httptest.Server, *broker.Broker, *flakySink, *notify.Engine) {
	t.Helper()
	ont, err := ontology.Load(workload.JobsODL, ontology.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sink := &flakySink{}
	ne, err := notify.NewEngine(notify.Config{Workers: 2, MaxRetries: 1, Backoff: time.Millisecond}, sink)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ne.Close() })
	j, err := journal.Open(journal.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = j.Close() })
	b := broker.New(core.NewEngine(ont.Stage(semantic.FullConfig())), ne)
	b.AttachJournal(j)
	ts := httptest.NewServer(NewServer(b))
	t.Cleanup(ts.Close)
	return ts, b, sink, ne
}

func TestJournalEndpointAndDurableResume(t *testing.T) {
	ts, _, sink, ne := newDurableStack(t)

	code, _ := post(t, ts, "/api/v1/register", map[string]any{
		"name": "acme", "transport": "mem", "addr": "acme"})
	if code != http.StatusOK {
		t.Fatalf("register: %d", code)
	}
	code, body := post(t, ts, "/api/v1/subscribe", map[string]any{
		"client": "acme", "subscription": "(university = Toronto)", "durable": true})
	if code != http.StatusOK {
		t.Fatalf("durable subscribe: %d %v", code, body)
	}
	if body["durable"] != true {
		t.Fatalf("response not flagged durable: %v", body)
	}
	id := body["id"].(float64)

	// One delivered, then the endpoint goes away and one parks.
	if code, body := post(t, ts, "/api/v1/publish", map[string]any{"event": "(school, Toronto)"}); code != http.StatusOK {
		t.Fatalf("publish: %d %v", code, body)
	}
	if !ne.Drain(2 * time.Second) {
		t.Fatal("drain 1")
	}
	sink.set(true)
	if code, body := post(t, ts, "/api/v1/publish", map[string]any{"event": "(school, Toronto)"}); code != http.StatusOK {
		t.Fatalf("publish: %d %v", code, body)
	}
	if !ne.Drain(2 * time.Second) {
		t.Fatal("drain 2")
	}

	code, jbody := get(t, ts, "/api/v1/journal")
	if code != http.StatusOK {
		t.Fatalf("journal: %d %v", code, jbody)
	}
	stats := jbody["stats"].(map[string]any)
	if stats["Appends"].(float64) != 2 {
		t.Fatalf("journal stats = %v, want 2 appends", stats)
	}
	cursors := jbody["cursors"].(map[string]any)
	if cursors["sub-1"].(float64) != 1 {
		t.Fatalf("cursors = %v, want sub-1 at 1", cursors)
	}

	// Reconnect and resume: the parked publication replays.
	sink.set(false)
	code, rbody := post(t, ts, "/api/v1/resume", map[string]any{"client": "acme", "id": id})
	if code != http.StatusOK {
		t.Fatalf("resume: %d %v", code, rbody)
	}
	if rbody["replayed"].(float64) != 1 {
		t.Fatalf("resume replayed %v, want 1", rbody["replayed"])
	}
	if !ne.Drain(2 * time.Second) {
		t.Fatal("drain 3")
	}
	if sink.count() != 2 {
		t.Fatalf("endpoint saw %d deliveries, want 2", sink.count())
	}

	// Resume of a non-durable sub fails.
	code, body = post(t, ts, "/api/v1/subscribe", map[string]any{
		"client": "acme", "subscription": "(degree = PhD)"})
	if code != http.StatusOK {
		t.Fatalf("subscribe: %d %v", code, body)
	}
	if code, _ := post(t, ts, "/api/v1/resume", map[string]any{"client": "acme", "id": body["id"]}); code != http.StatusConflict {
		t.Fatalf("resume of non-durable sub: %d, want 409", code)
	}
}

func TestDetachEndpointRoundTrip(t *testing.T) {
	ts, b, sink, ne := newDurableStack(t)
	st, err := store.Open(store.Config{Path: filepath.Join(t.TempDir(), "subs.heap"), PageSize: 512, Pages: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	if err := b.AttachStore(st); err != nil {
		t.Fatal(err)
	}

	code, _ := post(t, ts, "/api/v1/register", map[string]any{
		"name": "acme", "transport": "mem", "addr": "acme"})
	if code != http.StatusOK {
		t.Fatalf("register: %d", code)
	}
	code, body := post(t, ts, "/api/v1/subscribe", map[string]any{
		"client": "acme", "subscription": "(university = Toronto)", "durable": true})
	if code != http.StatusOK {
		t.Fatalf("durable subscribe: %d %v", code, body)
	}
	id := body["id"].(float64)

	code, dbody := post(t, ts, "/api/v1/detach", map[string]any{"client": "acme", "id": id})
	if code != http.StatusOK {
		t.Fatalf("detach: %d %v", code, dbody)
	}
	if got := b.Stats(); got.Detached != 1 || got.Durable != 0 {
		t.Fatalf("after detach: Detached=%d Durable=%d", got.Detached, got.Durable)
	}

	// Published while paged out: journaled, not delivered.
	if code, body := post(t, ts, "/api/v1/publish", map[string]any{"event": "(school, Toronto)"}); code != http.StatusOK {
		t.Fatalf("publish: %d %v", code, body)
	}
	if !ne.Drain(2 * time.Second) {
		t.Fatal("drain")
	}
	if sink.count() != 0 {
		t.Fatalf("detached subscription delivered %d times", sink.count())
	}

	// Resume faults it back in and replays the missed publication.
	code, rbody := post(t, ts, "/api/v1/resume", map[string]any{"client": "acme", "id": id})
	if code != http.StatusOK {
		t.Fatalf("resume: %d %v", code, rbody)
	}
	if rbody["replayed"].(float64) != 1 {
		t.Fatalf("resume replayed %v, want 1", rbody["replayed"])
	}
	if !ne.Drain(2 * time.Second) {
		t.Fatal("drain 2")
	}
	if sink.count() != 1 {
		t.Fatalf("endpoint saw %d deliveries, want 1", sink.count())
	}

	// Detach of an unknown sub is a client error, not a crash.
	if code, _ := post(t, ts, "/api/v1/detach", map[string]any{"client": "acme", "id": 99}); code != http.StatusNotFound {
		t.Fatalf("detach of unknown sub: %d, want 404", code)
	}
}

func TestDetachEndpointWithoutStore(t *testing.T) {
	ts, _, _, _ := newDurableStack(t)
	if code, _ := post(t, ts, "/api/v1/detach", map[string]any{"client": "acme", "id": 1}); code != http.StatusNotFound {
		t.Fatalf("detach without store: %d, want 404", code)
	}
}

func TestJournalEndpointWithoutJournal(t *testing.T) {
	ts, _ := newStack(t, nil)
	if code, _ := get(t, ts, "/api/v1/journal"); code != http.StatusNotFound {
		t.Fatalf("journal without journal: %d, want 404", code)
	}
	if code, _ := post(t, ts, "/api/v1/subscribe", map[string]any{
		"client": "acme", "subscription": "(degree = PhD)", "durable": true}); code != http.StatusConflict {
		t.Fatalf("durable subscribe without journal: %d, want 409", code)
	}
}
