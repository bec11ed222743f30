package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stopss/internal/message"
	"stopss/internal/notify"
)

// fakeBroker answers /api/v1/publish with consecutive pub_ids and can be
// told to stall every request for a while.
type fakeBroker struct {
	*httptest.Server
	seq        atomic.Int64
	mu         sync.Mutex
	stallUntil time.Time
}

func newFakeBroker() *fakeBroker {
	f := &fakeBroker{}
	f.Server = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		until := f.stallUntil
		f.mu.Unlock()
		time.Sleep(time.Until(until))
		json.NewEncoder(w).Encode(publishResp{PubID: fmt.Sprintf("fake#0/%d", f.seq.Add(1))})
	}))
	return f
}

// The open loop times every publish from when it was due, so a server
// that stalls is charged for the publishes queued behind the stall, and
// the generator reports how late it ran.
func TestOpenLoopChargesStallToLaterPublishes(t *testing.T) {
	f := newFakeBroker()
	defer f.Close()
	const rate, stall = 200, 100 * time.Millisecond
	f.mu.Lock()
	f.stallUntil = time.Now().Add(stall) // the stall covers the first 20 due times
	f.mu.Unlock()

	events := []Event{{Text: "(a, 1)"}}
	pubs := newTracker().openLoop(f.URL, events, 0, rate, 300*time.Millisecond)
	if len(pubs) != 60 {
		t.Fatalf("open loop sent %d publishes, want rate × duration = 60", len(pubs))
	}
	interval := time.Second / rate
	late := 0
	for i, p := range pubs {
		if p.err != nil {
			t.Fatalf("publish %d: %v", i, p.err)
		}
		if i > 0 && p.intended.Sub(pubs[i-1].intended) != interval {
			t.Fatalf("publish %d due %v after the previous one, want the fixed interval %v", i, p.intended.Sub(pubs[i-1].intended), interval)
		}
		if p.sent.Before(p.intended) {
			t.Errorf("publish %d left %v before it was due", i, p.intended.Sub(p.sent))
		}
		if p.sent.Sub(p.intended) > 20*time.Millisecond {
			late++
			// Sent late because the connections were stuck in the stall:
			// its latency must include the wait, not start at the send.
			if p.acked.Sub(p.intended) < p.sent.Sub(p.intended) {
				t.Errorf("publish %d: latency %v is less than its lateness %v", i, p.acked.Sub(p.intended), p.sent.Sub(p.intended))
			}
		}
	}
	// Two connections were stuck in the stall; the publishes due during it
	// and after the first two could only leave late.
	if late < 10 {
		t.Errorf("%d publishes left more than 20ms late, want at least 10 of those due during the %v stall", late, stall)
	}
	last := pubs[len(pubs)-1]
	if d := last.sent.Sub(last.intended); d > 20*time.Millisecond {
		t.Errorf("the last publish still left %v late: the loop did not catch up after the stall", d)
	}
}

func note(subscriber string, id int, pubID string) notify.Notification {
	return notify.Notification{Subscriber: subscriber, SubID: message.SubID(id), PubID: pubID}
}

// Notifications are joined to their publish on pub_id whether they
// arrive before or after the HTTP response that names it.
func TestTrackerJoinsOutOfOrder(t *testing.T) {
	tr := newTracker()
	tr.subs[subKey{"acme", 7}] = 0
	tr.subs[subKey{"acme", 8}] = 1
	tr.subs[subKey{"initech", 7}] = 2 // same server-side ID, other client
	ev := &Event{Text: "(a, 1)", Expect: []int32{0, 2}}
	newPub := func() *pub {
		return &pub{event: ev, seen: make([]bool, 2), done: make(chan struct{}), acked: time.Now()}
	}
	isDone := func(p *pub) bool {
		select {
		case <-p.done:
			return true
		default:
			return false
		}
	}

	// Both notifications overtake the response.
	early := newPub()
	tr.notified(note("acme", 7, "b#1/1"))
	tr.notified(note("initech", 7, "b#1/1"))
	if isDone(early) {
		t.Fatal("publish complete before its response was read")
	}
	tr.acked("b#1/1", early)
	if !isDone(early) || !early.complete() || early.last.IsZero() {
		t.Fatalf("publish not complete after the response joined two early notifications: got %d", early.got)
	}

	// One before, one after, interleaved with another publish.
	mixed, other := newPub(), newPub()
	tr.notified(note("initech", 7, "b#1/2"))
	tr.acked("b#1/3", other)
	tr.acked("b#1/2", mixed)
	if isDone(mixed) {
		t.Fatal("publish complete with one of two notifications")
	}
	tr.notified(note("acme", 7, "b#1/3"))
	tr.notified(note("acme", 7, "b#1/2"))
	if !isDone(mixed) || isDone(other) {
		t.Fatalf("join mixed up publishes: mixed done=%v other done=%v", isDone(mixed), isDone(other))
	}

	// A second copy is a duplicate; a subscription the oracle did not
	// predict, or one the harness never made, is unexpected.
	tr.notified(note("acme", 7, "b#1/2"))
	tr.notified(note("acme", 8, "b#1/2"))
	tr.notified(note("nobody", 1, "b#1/2"))
	if tr.duplicates != 1 || tr.unexpected != 2 {
		t.Errorf("duplicates %d unexpected %d, want 1 and 2", tr.duplicates, tr.unexpected)
	}
	// A notification whose pub_id no response ever names is an orphan.
	tr.notified(note("acme", 7, "b#1/99"))
	if n := tr.orphans(); n != 1 {
		t.Errorf("orphans = %d, want 1", n)
	}

	// A publish that must notify nobody is complete at its response.
	none := &pub{event: &Event{Text: "(z, 0)"}, done: make(chan struct{}), acked: time.Now()}
	tr.acked("b#1/4", none)
	if !isDone(none) {
		t.Error("publish without expected notifications not complete at its response")
	}
}
