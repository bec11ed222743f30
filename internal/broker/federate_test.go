package broker

import (
	"reflect"
	"sync"
	"testing"

	"stopss/internal/core"
	"stopss/internal/knowledge"
	"stopss/internal/message"
)

// recordingForwarder captures every federation callback so the hook
// contract can be asserted without an overlay attached.
type recordingForwarder struct {
	mu      sync.Mutex
	subs    []message.Subscription
	subAdds []bool
	pubs    []message.Event
	pubIDs  []string
	kbs     []knowledge.Delta
}

func (f *recordingForwarder) SubscriptionChanged(sub message.Subscription, added bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.subs = append(f.subs, sub)
	f.subAdds = append(f.subAdds, added)
}

func (f *recordingForwarder) PublicationAccepted(ev message.Event, pubID string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.pubs = append(f.pubs, ev)
	f.pubIDs = append(f.pubIDs, pubID)
}

func (f *recordingForwarder) KnowledgeChanged(d knowledge.Delta, _ core.KnowledgeReport) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.kbs = append(f.kbs, d)
}

func fedBroker(t *testing.T) (*Broker, *recordingForwarder) {
	t.Helper()
	b := New(core.NewEngine(nil), nil)
	f := &recordingForwarder{}
	b.SetForwarder(f)
	if err := b.Register(Client{Name: "alice"}); err != nil {
		t.Fatal(err)
	}
	return b, f
}

func TestForwarderSubscriptionLifecycle(t *testing.T) {
	b, f := fedBroker(t)
	preds := []message.Predicate{message.Pred("x", message.OpGe, message.Int(3))}
	id, err := b.Subscribe("alice", preds)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.subs) != 1 || !f.subAdds[0] {
		t.Fatalf("subscribe reported %d callbacks (adds %v), want 1 add", len(f.subs), f.subAdds)
	}
	// The callback must carry the ORIGINAL form (ID, owner, predicates),
	// not a canonicalized rewrite.
	got := f.subs[0]
	if got.ID != id || got.Subscriber != "alice" || !reflect.DeepEqual(got.Preds, preds) {
		t.Fatalf("callback subscription %+v does not reflect the original (id %d)", got, id)
	}

	if err := b.Unsubscribe("alice", id); err != nil {
		t.Fatal(err)
	}
	if len(f.subs) != 2 || f.subAdds[1] {
		t.Fatalf("unsubscribe reported %d callbacks (adds %v), want removal as second", len(f.subs), f.subAdds)
	}
	if f.subs[1].ID != id {
		t.Fatalf("removal callback names subscription %d, want %d", f.subs[1].ID, id)
	}

	// A failed unsubscribe (wrong owner) must not fire the hook.
	id2, err := b.Subscribe("alice", preds)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Register(Client{Name: "mallory"}); err != nil {
		t.Fatal(err)
	}
	if err := b.Unsubscribe("mallory", id2); err == nil {
		t.Fatal("foreign unsubscribe must fail")
	}
	if len(f.subs) != 3 {
		t.Fatalf("failed unsubscribe fired the forwarder (%d callbacks)", len(f.subs))
	}
}

func TestForwarderPublications(t *testing.T) {
	b, f := fedBroker(t)
	ev := message.E("x", 9)
	if _, err := b.Publish(ev); err != nil {
		t.Fatal(err)
	}
	if len(f.pubs) != 1 || !f.pubs[0].Equal(ev) {
		t.Fatalf("local publish reported %d forwarder callbacks, want the published event once", len(f.pubs))
	}

	// Remote deliveries must NOT re-enter the forwarder: the overlay
	// owns inter-broker propagation, and a bounce here would loop
	// publications forever.
	if _, err := b.DeliverRemote(message.E("x", 10)); err != nil {
		t.Fatal(err)
	}
	if len(f.pubs) != 1 {
		t.Fatalf("DeliverRemote leaked into the forwarder (%d callbacks)", len(f.pubs))
	}
	st := b.Stats()
	if st.Published != 1 || st.RemoteDelivered != 1 {
		t.Fatalf("counters: published %d remoteDelivered %d, want 1 and 1", st.Published, st.RemoteDelivered)
	}
}

func TestForwarderDetach(t *testing.T) {
	b, f := fedBroker(t)
	b.SetForwarder(nil)
	if _, err := b.Subscribe("alice", []message.Predicate{message.Exists("x")}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Publish(message.E("x", 1)); err != nil {
		t.Fatal(err)
	}
	if len(f.subs)+len(f.pubs) != 0 {
		t.Fatal("detached forwarder still received callbacks")
	}
}

func TestRemoteStatsSource(t *testing.T) {
	b := New(core.NewEngine(nil), nil)
	want := RemoteStats{
		Peers:         3,
		SubsForwarded: 7,
		SubsPruned:    2,
		PubsForwarded: 11,
		PubsDeduped:   1,
		RemoteSubs:    5,
	}
	calls := 0
	b.SetRemoteStatsSource(func() RemoteStats { calls++; return want })
	if got := b.Stats().Remote; !reflect.DeepEqual(got, want) {
		t.Fatalf("Stats().Remote = %+v, want %+v", got, want)
	}
	if calls != 1 {
		t.Fatalf("stats source invoked %d times for one Stats call", calls)
	}
	// Clearing the source reverts to standalone zeros.
	b.SetRemoteStatsSource(nil)
	if got := b.Stats().Remote; !reflect.DeepEqual(got, RemoteStats{}) {
		t.Fatalf("standalone Stats().Remote = %+v, want zero", got)
	}
}

func TestFederationSnapshots(t *testing.T) {
	b := New(core.NewEngine(nil), nil)
	for _, name := range []string{"zoe", "amy"} {
		if err := b.Register(Client{Name: name}); err != nil {
			t.Fatal(err)
		}
	}
	// Subscriptions come back in ascending ID order regardless of
	// insertion interleaving, in their original (pre-canonical) form.
	ids := make([]message.SubID, 0, 4)
	for i := 3; i >= 0; i-- {
		owner := []string{"zoe", "amy"}[i%2]
		id, err := b.Subscribe(owner, []message.Predicate{message.Pred("x", message.OpGe, message.Int(int64(i)))})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	subs := b.Subscriptions()
	if len(subs) != 4 {
		t.Fatalf("Subscriptions returned %d entries, want 4", len(subs))
	}
	for i := 1; i < len(subs); i++ {
		if subs[i-1].ID >= subs[i].ID {
			t.Fatalf("Subscriptions not ascending by ID: %v", subs)
		}
	}

	// Advertisements come back sorted by publisher.
	for _, name := range []string{"zoe", "amy"} {
		if err := b.Advertise(name, []message.Predicate{message.Exists("x")}); err != nil {
			t.Fatal(err)
		}
	}
	advs := b.Advertisements()
	if len(advs) != 2 || advs[0].Publisher != "amy" || advs[1].Publisher != "zoe" {
		t.Fatalf("Advertisements = %v, want sorted by publisher", advs)
	}
	_ = ids
}
