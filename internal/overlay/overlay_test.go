package overlay

import (
	"strings"
	"testing"
	"time"

	"stopss/internal/broker"
	"stopss/internal/core"
	"stopss/internal/message"
	"stopss/internal/notify"
)

// chanTransport delivers notifications into a channel, giving tests a
// synchronization point for the asynchronous notify pipeline.
type chanTransport struct{ ch chan notify.Notification }

func (c *chanTransport) Name() string                                  { return "chan" }
func (c *chanTransport) Send(addr string, n notify.Notification) error { c.ch <- n; return nil }
func (c *chanTransport) Close() error                                  { return nil }

// testBroker is one in-process overlay participant: broker, notifier
// with a channel transport, and a node listening on loopback.
type testBroker struct {
	b    *broker.Broker
	node *Node
	nt   *notify.Engine
	ch   chan notify.Notification
}

func newTestBroker(t *testing.T, name string) *testBroker {
	t.Helper()
	ch := make(chan notify.Notification, 256)
	nt, err := notify.NewEngine(notify.Config{Workers: 2}, &chanTransport{ch: ch})
	if err != nil {
		t.Fatal(err)
	}
	b := broker.New(core.NewEngine(nil), nt)
	node, err := NewNode(Config{Name: name, Listen: "127.0.0.1:0"}, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		node.Close()
		nt.Close()
	})
	return &testBroker{b: b, node: node, nt: nt, ch: ch}
}

// subscribe registers a client with a channel route and subscribes it.
func (tb *testBroker) subscribe(t *testing.T, client string, preds ...message.Predicate) message.SubID {
	t.Helper()
	if err := tb.b.Register(broker.Client{Name: client, Route: notify.Route{Transport: "chan", Addr: client}}); err != nil {
		t.Fatal(err)
	}
	id, err := tb.b.Subscribe(client, preds)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// nodeHasInterest reports whether any link of n currently routes the
// given overlay-wide subscription identity.
func nodeHasInterest(n *Node, origin string, id message.SubID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, l := range n.links {
		if _, ok := l.interests[routeID{Origin: origin, ID: id}]; ok {
			return true
		}
	}
	return false
}

// waitFor polls cond for up to two seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// expectNotification receives one notification for the named subscriber
// or fails.
func expectNotification(t *testing.T, ch chan notify.Notification, subscriber string) notify.Notification {
	t.Helper()
	select {
	case n := <-ch:
		if n.Subscriber != subscriber {
			t.Fatalf("notification for %q, want %q", n.Subscriber, subscriber)
		}
		return n
	case <-time.After(2 * time.Second):
		t.Fatalf("no notification for %q", subscriber)
		return notify.Notification{}
	}
}

// expectSilence asserts no notification arrives within a short window.
func expectSilence(t *testing.T, ch chan notify.Notification) {
	t.Helper()
	select {
	case n := <-ch:
		t.Fatalf("unexpected notification: %+v", n)
	case <-time.After(100 * time.Millisecond):
	}
}

// TestThreeBrokerChain is the acceptance scenario: brokers A—B—C on
// real loopback TCP. A publication entering A reaches a subscriber at
// C; the covered subscription from C is NOT forwarded on the B→A link
// while B's covering subscription stands, and removing the coverer
// re-advertises it.
func TestThreeBrokerChain(t *testing.T) {
	a := newTestBroker(t, "A")
	b := newTestBroker(t, "B")
	c := newTestBroker(t, "C")

	// Chain topology: B dials A, C dials B.
	if err := b.node.Dial(a.node.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := c.node.Dial(b.node.Addr()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "links up", func() bool {
		return len(a.node.Peers()) == 1 && len(b.node.Peers()) == 2 && len(c.node.Peers()) == 1
	})

	// bob@B subscribes the broad x >= 0 first; it floods to A and C.
	bobID := b.subscribe(t, "bob", message.Pred("x", message.OpGe, message.Int(0)))
	waitFor(t, "bob's subscription at A and C", func() bool {
		return a.b.Stats().Remote.RemoteSubs == 1 && c.b.Stats().Remote.RemoteSubs == 1
	})

	// carol@C subscribes the covered x >= 10: it reaches B, but B must
	// prune it on the link to A (bob's x >= 0 covers it).
	carolID := c.subscribe(t, "carol", message.Pred("x", message.OpGe, message.Int(10)))
	waitFor(t, "carol's subscription pruned at B", func() bool {
		return b.b.Stats().Remote.SubsPruned >= 1
	})
	if got := a.b.Stats().Remote.RemoteSubs; got != 1 {
		t.Fatalf("A holds %d remote subscriptions, want 1 (covered sub must not cross B→A)", got)
	}

	// A publication entering A must notify bob at B and carol at C.
	if _, err := a.b.Publish(message.E("x", 42)); err != nil {
		t.Fatal(err)
	}
	nb := expectNotification(t, b.ch, "bob")
	if v, _ := nb.Event.Get("x"); v.IntVal() != 42 {
		t.Fatalf("bob received %v", nb.Event)
	}
	nc := expectNotification(t, c.ch, "carol")
	if v, _ := nc.Event.Get("x"); v.IntVal() != 42 {
		t.Fatalf("carol received %v", nc.Event)
	}

	// Broker-level accounting: the publication travelled A→B→C.
	waitFor(t, "pub counters", func() bool {
		return a.b.Stats().Remote.PubsForwarded == 1 &&
			b.b.Stats().Remote.PubsReceived == 1 &&
			c.b.Stats().Remote.PubsReceived == 1
	})

	// Un-covering: bob unsubscribes; B must withdraw x >= 0 from A and
	// re-advertise carol's x >= 10 in its place.
	if err := b.b.Unsubscribe("bob", bobID); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "carol's subscription reissued to A", func() bool {
		return b.b.Stats().Remote.SubsReissued >= 1
	})
	// Wait on the actual table content: bob's entry gone, carol's
	// present (the count alone can transiently read 1 while the unsub
	// is still in flight).
	waitFor(t, "A's routing table converged on carol", func() bool {
		return !nodeHasInterest(a.node, "B", bobID) && nodeHasInterest(a.node, "C", carolID)
	})

	// x = 5 no longer interests anyone (carol wants >= 10): A must not
	// forward it.
	if _, err := a.b.Publish(message.E("x", 5)); err != nil {
		t.Fatal(err)
	}
	expectSilence(t, c.ch)
	expectSilence(t, b.ch)
	if got := a.b.Stats().Remote.PubsForwarded; got != 1 {
		t.Fatalf("A forwarded %d publications, want still 1 (x=5 matches nothing)", got)
	}

	// x = 99 travels the reissued route end to end.
	if _, err := a.b.Publish(message.E("x", 99)); err != nil {
		t.Fatal(err)
	}
	nc = expectNotification(t, c.ch, "carol")
	if v, _ := nc.Event.Get("x"); v.IntVal() != 99 {
		t.Fatalf("carol received %v after reissue", nc.Event)
	}
	expectSilence(t, b.ch) // bob is gone
}

// TestTriangleDedup: in a cyclic topology a publication reaches the
// subscriber on two paths; the duplicate is suppressed and delivery
// happens exactly once.
func TestTriangleDedup(t *testing.T) {
	a := newTestBroker(t, "A")
	b := newTestBroker(t, "B")
	c := newTestBroker(t, "C")
	if err := b.node.Dial(a.node.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := c.node.Dial(b.node.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := c.node.Dial(a.node.Addr()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "triangle up", func() bool {
		return len(a.node.Peers()) == 2 && len(b.node.Peers()) == 2 && len(c.node.Peers()) == 2
	})

	c.subscribe(t, "carol", message.Pred("x", message.OpGe, message.Int(0)))
	// A learns carol's interest on both its links (directly from C and
	// relayed via B).
	waitFor(t, "carol known at A on both links", func() bool {
		return a.b.Stats().Remote.RemoteSubs == 2
	})

	for i := 1; i <= 3; i++ {
		if _, err := a.b.Publish(message.E("x", i)); err != nil {
			t.Fatal(err)
		}
		expectNotification(t, c.ch, "carol")
	}
	expectSilence(t, c.ch) // duplicates suppressed, not delivered twice
	waitFor(t, "duplicate suppression counted", func() bool {
		return c.b.Stats().Remote.PubsDeduped >= 1
	})
}

// TestAdvertisingStaysLocal: on a federated broker, advertisements
// are broker-local. Advertising and unadvertising send nothing to the
// peer, while publish-from conformance and the overlap query still
// work at the advertising broker.
func TestAdvertisingStaysLocal(t *testing.T) {
	a := newTestBroker(t, "A")
	b := newTestBroker(t, "B")
	inX := a.subscribe(t, "ax", message.Pred("x", message.OpGe, message.Int(5)))
	a.subscribe(t, "ay", message.Pred("y", message.OpEq, message.String("jobs")))
	// A dials, so its side of the link sync (subscriptions and ops
	// summary) is sent before Dial returns; nothing B sends back makes
	// A send on a two-broker link.
	if err := a.node.Dial(b.node.Addr()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "subs at B", func() bool { return b.b.Stats().Remote.RemoteSubs == 2 })
	sent := a.node.Registry().Counter("overlay.link.B.frames_sent")
	before := sent.Value()

	if err := a.b.Register(broker.Client{Name: "px"}); err != nil {
		t.Fatal(err)
	}
	if err := a.b.Advertise("px", []message.Predicate{
		message.Pred("x", message.OpGe, message.Int(0)),
	}); err != nil {
		t.Fatal(err)
	}
	if got := sent.Value(); got != before {
		t.Fatalf("Advertise sent %d frames to B, want 0", got-before)
	}

	if _, err := a.b.PublishFrom("px", message.E("y", "jobs")); err == nil {
		t.Fatal("non-conforming PublishFrom accepted")
	}
	ids, err := a.b.OverlappingSubscriptions("px")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != inX {
		t.Fatalf("OverlappingSubscriptions = %v, want [%d]", ids, inX)
	}

	a.b.Unadvertise("px")
	if got := sent.Value(); got != before {
		t.Fatalf("Advertise/Unadvertise sent %d frames to B, want 0", got-before)
	}
}

// TestLateJoinSync: a node that connects after subscriptions exist
// receives the full state on the new link.
func TestLateJoinSync(t *testing.T) {
	a := newTestBroker(t, "A")
	b := newTestBroker(t, "B")
	b.subscribe(t, "bob", message.Pred("x", message.OpGe, message.Int(0)))

	// Link comes up only after bob subscribed.
	if err := b.node.Dial(a.node.Addr()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "state sync", func() bool {
		return a.b.Stats().Remote.RemoteSubs == 1
	})
	if _, err := a.b.Publish(message.E("x", 1)); err != nil {
		t.Fatal(err)
	}
	expectNotification(t, b.ch, "bob")
}

// TestOverlayMetricsReport: the node's counters land in its registry
// with per-link entries.
func TestOverlayMetricsReport(t *testing.T) {
	a := newTestBroker(t, "A")
	b := newTestBroker(t, "B")
	if err := b.node.Dial(a.node.Addr()); err != nil {
		t.Fatal(err)
	}
	b.subscribe(t, "bob", message.Pred("x", message.OpGe, message.Int(0)))
	waitFor(t, "sub at A", func() bool { return a.b.Stats().Remote.RemoteSubs == 1 })

	if got := b.node.Registry().Counter("overlay.subs_forwarded").Value(); got != 1 {
		t.Fatalf("subs_forwarded = %d, want 1", got)
	}
	if got := b.node.Registry().Counter("overlay.link.A.frames_sent").Value(); got == 0 {
		t.Fatal("per-link sent counter missing")
	}
	report := b.node.Registry().Report()
	for _, want := range []string{"overlay.subs_forwarded", "overlay.link.A.frames_sent"} {
		if !strings.Contains(report, want) {
			t.Errorf("registry report lacks %s:\n%s", want, report)
		}
	}
}
