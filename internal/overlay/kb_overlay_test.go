package overlay

import (
	"testing"

	"stopss/internal/broker"
	"stopss/internal/core"
	"stopss/internal/knowledge"
	"stopss/internal/message"
	"stopss/internal/notify"
	"stopss/internal/semantic"
)

// newKBTestBroker is newTestBroker with a runtime knowledge base bound
// and a stamping origin named after the node.
func newKBTestBroker(t *testing.T, name string) *testBroker {
	t.Helper()
	ch := make(chan notify.Notification, 256)
	nt, err := notify.NewEngine(notify.Config{Workers: 2}, &chanTransport{ch: ch})
	if err != nil {
		t.Fatal(err)
	}
	base := knowledge.NewBase(nil, nil, nil)
	b := broker.New(core.NewEngine(base.Stage(semantic.FullConfig()), core.WithKnowledge(base)), nt)
	b.SetKnowledgeOrigin(knowledge.NewOrigin(name))
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

func kbDigest(tb *testBroker) string { return tb.b.KnowledgeVersion().Digest }
func kbDeltas(tb *testBroker) int    { return tb.b.KnowledgeVersion().Deltas }

// TestKnowledgeFloodAndLateJoin: a delta injected at one end of an
// A—B—C chain floods over real TCP links; a subscription created
// before the knowledge existed starts matching events phrased in the
// new term on every broker; and a broker that joins AFTER the delta
// catches up through the link-sync replay of the knowledge log.
func TestKnowledgeFloodAndLateJoin(t *testing.T) {
	a := newKBTestBroker(t, "A")
	b := newKBTestBroker(t, "B")

	// Pre-knowledge subscription at A, written in the synonym term.
	subID := a.subscribe(t, "alice", message.Pred("job", message.OpEq, message.String("dev")))
	_ = subID

	if err := b.node.Dial(a.node.Addr()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "subscription sync", func() bool { return nodeHasInterest(b.node, "A", subID) })

	rep, err := b.b.InjectKnowledge(knowledge.Delta{
		Op: knowledge.OpAddSynonym, Root: "position", Terms: []string{"job"}})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Applied || rep.Reindexed != 0 { // B holds no local subscriptions
		t.Fatalf("inject at B: %+v", rep)
	}
	waitFor(t, "delta flood to A", func() bool { return kbDeltas(a) == 1 && kbDigest(a) == kbDigest(b) })

	// A publication at B in the CANONICAL term must route to A: B's
	// recorded interest for alice's subscription was canonicalized
	// under the empty knowledge ("job"), so this only works if the
	// delta re-canonicalized B's routing state.
	if _, err := b.b.Publish(message.E("position", "dev")); err != nil {
		t.Fatal(err)
	}
	expectNotification(t, a.ch, "alice")
	expectSilence(t, a.ch)

	// Late joiner: C connects after the delta and converges via sync.
	c := newKBTestBroker(t, "C")
	if err := c.node.Dial(b.node.Addr()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "late-join KB sync", func() bool { return kbDeltas(c) == 1 && kbDigest(c) == kbDigest(b) })

	// Duplicate suppression: re-injecting the same delta at C is a
	// no-op everywhere.
	log := c.b.KnowledgeLog()
	rep, err = c.b.InjectKnowledge(log[0])
	if err != nil || !rep.Duplicate {
		t.Fatalf("replay: %+v, %v", rep, err)
	}

	// A publication entering C in the synonym term reaches alice at A
	// through two hops.
	if _, err := c.b.Publish(message.E("job", "dev")); err != nil {
		t.Fatal(err)
	}
	expectNotification(t, a.ch, "alice")

	rs := b.b.Stats().Remote
	if rs.KBForwarded == 0 {
		t.Fatalf("B forwarded no KB deltas: %+v", rs)
	}
	st := a.b.Stats()
	if st.KBRemote != 1 || st.Engine.KBDeltas != 1 {
		t.Fatalf("A KB stats: KBRemote=%d Engine=%+v", st.KBRemote, st.Engine)
	}
}

// TestKnowledgeTransitsUnboundBroker: a broker without a bound
// knowledge base cannot apply deltas, but it must still forward them —
// dropping the frame on the application error would sever the flood
// and permanently diverge the federation behind it.
func TestKnowledgeTransitsUnboundBroker(t *testing.T) {
	a := newKBTestBroker(t, "A")
	b := newTestBroker(t, "B") // engine without core.WithKnowledge
	c := newKBTestBroker(t, "C")
	if err := b.node.Dial(a.node.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := c.node.Dial(b.node.Addr()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "links up", func() bool { return len(b.node.Peers()) == 2 })

	rep, err := a.b.InjectKnowledge(knowledge.Delta{Op: knowledge.OpAddConcept, Term: "x"})
	if err != nil || !rep.Applied {
		t.Fatalf("inject at A: %+v, %v", rep, err)
	}
	waitFor(t, "delta transits B to C", func() bool {
		return kbDeltas(c) == 1 && kbDigest(c) == kbDigest(a)
	})
}

// TestCoverTableRecanonicalize exercises the covering repair directly:
// a suppressed entry whose coverage disappears under a new
// canonicalization must be promoted (returned for forwarding), while
// still-covered entries stay suppressed.
func TestCoverTableRecanonicalize(t *testing.T) {
	tbl := newCoverTable()
	mkSub := func(id message.SubID, attr string, ge int64) message.Subscription {
		return message.NewSubscription(id, "c",
			message.Pred(attr, message.OpGe, message.Int(ge)))
	}
	ident := func(s message.Subscription) message.Subscription { return s.Clone() }

	broad := mkSub(1, "x", 0)
	narrow := mkSub(2, "x", 10)
	other := mkSub(3, "x", 20)
	if !tbl.add(routeID{Origin: "o", ID: 1}, routeEntry{raw: broad, canon: ident(broad)}) {
		t.Fatal("broad not forwarded")
	}
	if tbl.add(routeID{Origin: "o", ID: 2}, routeEntry{raw: narrow, canon: ident(narrow)}) {
		t.Fatal("narrow not suppressed")
	}
	if tbl.add(routeID{Origin: "o", ID: 3}, routeEntry{raw: other, canon: ident(other)}) {
		t.Fatal("other not suppressed")
	}

	// New knowledge moves the NARROW subscription to a different
	// canonical attribute; the broad one no longer covers it.
	recanon := func(s message.Subscription) message.Subscription {
		out := s.Clone()
		if out.ID == 2 {
			out.Preds[0].Attr = "y"
		}
		return out
	}
	// The touches filter limits recanonicalization to entries mentioning
	// a changed term; sub 2's raw form constrains "x", so a filter on
	// {"x"} must still reach it (all three entries mention "x" here —
	// the filtered sweep behaves identically to the full one).
	touchesX := func(s message.Subscription) bool {
		return s.TouchesTerms(map[string]bool{"x": true})
	}
	promoted := tbl.recanonicalize(recanon, touchesX)
	if len(promoted) != 1 || promoted[0].id.ID != 2 {
		t.Fatalf("promoted %v, want exactly sub 2", promoted)
	}
	fwd, sup := tbl.size()
	if fwd != 2 || sup != 1 {
		t.Fatalf("table after recanonicalize: %d forwarded, %d suppressed", fwd, sup)
	}
	// Idempotent: a second pass with the same canon promotes nothing
	// (nil filter = recanonicalize everything).
	if again := tbl.recanonicalize(recanon, nil); len(again) != 0 {
		t.Fatalf("second pass promoted %v", again)
	}
	// The promoted entry now blocks removal-reissue bookkeeping like
	// any forwarded entry.
	wasForwarded, _ := tbl.remove(routeID{Origin: "o", ID: 2})
	if !wasForwarded {
		t.Fatal("promoted entry not tracked as forwarded")
	}
}
