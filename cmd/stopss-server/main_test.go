package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"stopss/internal/broker"
	"stopss/internal/journal"
	"stopss/internal/notify"
	"stopss/internal/sublang"
	"stopss/internal/webapp"
)

// TestServerStackEndToEnd exercises buildStack exactly as run() uses it:
// the builtin ontology, the counting matcher, the HTTP handler tree, and
// snapshot save/restore across two stack instances.
func TestServerStackEndToEnd(t *testing.T) {
	b, notifier, err := buildStack(stackOptions{Addr: "127.0.0.1:0", Matcher: "counting", Mode: "semantic"})
	if err != nil {
		t.Fatal(err)
	}
	defer notifier.Close()
	ts := httptest.NewServer(webapp.NewServer(b))
	defer ts.Close()

	post := func(path string, body map[string]any) map[string]any {
		t.Helper()
		buf, _ := json.Marshal(body)
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(buf))
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

	post("/api/v1/register", map[string]any{"name": "acme"})
	post("/api/v1/subscribe", map[string]any{
		"client":       "acme",
		"subscription": "(university = Toronto) and (professional experience >= 4)",
	})
	out := post("/api/v1/publish", map[string]any{
		"event": "(school, Toronto)(graduation year, 1990)",
	})
	if ms := out["matches"].([]any); len(ms) != 1 {
		t.Fatalf("matches = %v", out)
	}

	// Snapshot to disk, restore into a second stack, verify behaviour.
	snapPath := filepath.Join(t.TempDir(), "state.jsonl")
	f, err := os.Create(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Snapshot(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	b2, notifier2, err := buildStack(stackOptions{Addr: "127.0.0.1:0", Matcher: "tree", Mode: "semantic"})
	if err != nil {
		t.Fatal(err)
	}
	defer notifier2.Close()
	f2, err := os.Open(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if err := b2.Restore(f2); err != nil {
		t.Fatal(err)
	}
	ev, err := sublang.ParseEvent("(school, Toronto)(graduation year, 1990)")
	if err != nil {
		t.Fatal(err)
	}
	res, err := b2.Publish(ev)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 1 {
		t.Fatalf("restored stack (tree matcher) matches = %v", res.Matches)
	}
}

// TestKBWatcherDetectsRewrite: the watcher consumes appended lines
// incrementally, replays idempotently from a fresh start, and detects
// a regenerated file of EQUAL size — a stale-offset read would skip
// the new file's earlier lines entirely and stamp its tail with
// continuation line numbers no fresh reader of the same file mints.
func TestKBWatcherDetectsRewrite(t *testing.T) {
	b, notifier, err := buildStack(stackOptions{Addr: "127.0.0.1:0", Matcher: "counting", Mode: "semantic"})
	if err != nil {
		t.Fatal(err)
	}
	defer notifier.Close()

	path := filepath.Join(t.TempDir(), "update.jsonl")
	write := func(content string) {
		t.Helper()
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	deltas := func() int { return b.KnowledgeVersion().Deltas }

	l1 := `{"op":"add_synonym","root":"flurble","terms":["blorp"]}` + "\n"
	l2 := `{"op":"add_concept","term":"zeppelin"}` + "\n"

	w := newKBWatcher(path, b)
	write(l1)
	w.poll()
	if got := deltas(); got != 1 {
		t.Fatalf("after first line: %d deltas, want 1", got)
	}

	// Append-only growth consumes only the new line.
	write(l1 + l2)
	w.poll()
	if got := deltas(); got != 2 {
		t.Fatalf("after append: %d deltas, want 2", got)
	}

	// A fresh watcher over the same file (broker restart) replays to
	// identical stamps: pure duplicates.
	newKBWatcher(path, b).poll()
	if got := deltas(); got != 2 {
		t.Fatalf("restart replay re-injected: %d deltas, want 2", got)
	}

	// Regenerate the file at the SAME byte size with a changed first
	// line. The old size-only check read from the stale offset and
	// missed it; the prefix hash must trigger a full replay that
	// injects the changed line (and dedups the unchanged one).
	l1b := `{"op":"add_synonym","root":"flurble","terms":["blarp"]}` + "\n"
	if len(l1b) != len(l1) {
		t.Fatalf("test invariant: rewritten line must keep the file size (%d vs %d)", len(l1b), len(l1))
	}
	write(l1b + l2)
	w.poll()
	if got := deltas(); got != 3 {
		t.Fatalf("equal-size rewrite: %d deltas, want 3 (changed line skipped?)", got)
	}
}

func TestBuildStackRejectsBadFlags(t *testing.T) {
	if _, _, err := buildStack(stackOptions{Addr: "x", Matcher: "quantum", Mode: "semantic"}); err == nil {
		t.Error("unknown matcher must fail")
	}
	if _, _, err := buildStack(stackOptions{Addr: "x", Matcher: "counting", Mode: "psychic"}); err == nil {
		t.Error("unknown mode must fail")
	}
	if _, _, err := buildStack(stackOptions{Addr: "x", Ontology: "/nonexistent.odl", Matcher: "counting", Mode: "semantic"}); err == nil {
		t.Error("missing ontology file must fail")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.odl")
	if err := os.WriteFile(bad, []byte("this is not odl"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := buildStack(stackOptions{Addr: "x", Ontology: bad, Matcher: "counting", Mode: "semantic"}); err == nil {
		t.Error("malformed ontology must fail")
	}
}

// TestKBWatchIntervalPromptPickup drives the ticker loop itself (not
// just poll) and proves the interval flag controls the poll cadence
// from both sides: a 20ms watcher picks an appended delta up, while an
// hour-long watcher provably cannot have fired yet — without asserting
// tight wall-clock latencies that flake on loaded CI runners.
func TestKBWatchIntervalPromptPickup(t *testing.T) {
	b, notifier, err := buildStack(stackOptions{Addr: "127.0.0.1:0", Matcher: "counting", Mode: "semantic"})
	if err != nil {
		t.Fatal(err)
	}
	defer notifier.Close()

	dir := t.TempDir()
	fast := filepath.Join(dir, "fast.jsonl")
	slow := filepath.Join(dir, "slow.jsonl")
	for _, p := range []string{fast, slow} {
		if err := os.WriteFile(p, nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{}, 2)
	go func() { watchKBFile(ctx, fast, 20*time.Millisecond, b); done <- struct{}{} }()
	go func() { watchKBFile(ctx, slow, time.Hour, b); done <- struct{}{} }()

	if err := os.WriteFile(slow,
		[]byte(`{"op":"add_concept","term":"never-seen"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(fast,
		[]byte(`{"op":"add_synonym","root":"flurble","terms":["quux"]}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for b.KnowledgeVersion().Deltas == 0 {
		if time.Now().After(deadline) {
			t.Fatal("appended delta never picked up by the 20ms watcher")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The hour watcher's first tick is an hour away: the fast watcher's
	// pickup happening first proves the flag sets the cadence (the old
	// hardcoded 1s ticker would have injected the slow file's delta too).
	if got := b.KnowledgeVersion().Deltas; got != 1 {
		t.Fatalf("%d deltas applied, want 1 (the 1h watcher must not have polled)", got)
	}
	cancel()
	for i := 0; i < 2; i++ {
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatal("watcher did not stop on context cancel")
		}
	}
}

// TestServerJournalRestart exercises the run() journal wiring order —
// open journal, attach, restore snapshot, catch up — across two stack
// incarnations sharing one journal directory.
func TestServerJournalRestart(t *testing.T) {
	dir := t.TempDir()
	jnl, err := journal.Open(journal.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	b, notifier, err := buildStack(stackOptions{Addr: "127.0.0.1:0", Matcher: "counting", Mode: "semantic"})
	if err != nil {
		t.Fatal(err)
	}
	defer notifier.Close()
	b.AttachJournal(jnl)

	var got atomic.Int64
	sink, err := notify.NewTCPSink("127.0.0.1:0", func(notify.Notification) { got.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	if err := b.Register(broker.Client{Name: "acme",
		Route: notify.Route{Transport: "tcp", Addr: sink.Addr()}}); err != nil {
		t.Fatal(err)
	}
	preds, err := sublang.ParseSubscription("(university = Toronto)")
	if err != nil {
		t.Fatal(err)
	}
	id, err := b.SubscribeDurable("acme", preds)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := sublang.ParseEvent("(school, Toronto)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Publish(ev); err != nil {
		t.Fatal(err)
	}
	if !notifier.Drain(5 * time.Second) {
		t.Fatal("notifier did not drain")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if cur, _ := b.DurableCursor(id); cur >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("durable cursor never advanced")
		}
		time.Sleep(time.Millisecond)
	}

	snapPath := filepath.Join(t.TempDir(), "state.jsonl")
	f, err := os.Create(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Snapshot(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}

	// Second incarnation: same journal dir, snapshot restored AFTER the
	// journal attaches (run()'s order), then catch-up.
	jnl2, err := journal.Open(journal.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer jnl2.Close()
	b2, notifier2, err := buildStack(stackOptions{Addr: "127.0.0.1:0", Matcher: "counting", Mode: "semantic"})
	if err != nil {
		t.Fatal(err)
	}
	defer notifier2.Close()
	b2.AttachJournal(jnl2)
	f2, err := os.Open(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if err := b2.Restore(f2); err != nil {
		t.Fatal(err)
	}
	if cur, ok := b2.DurableCursor(id); !ok || cur != 1 {
		t.Fatalf("restored durable cursor = %d,%v want 1", cur, ok)
	}
	// Everything was acknowledged before the restart: nothing replays.
	if n, err := b2.CatchUp(); err != nil || n != 0 {
		t.Fatalf("catch-up = %d,%v want 0 redispatches", n, err)
	}
	if got.Load() != 1 {
		t.Fatalf("sink saw %d deliveries, want exactly 1", got.Load())
	}
}
