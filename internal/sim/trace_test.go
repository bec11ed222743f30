package sim

import (
	"testing"

	"stopss/internal/trace"
)

// TestTraceLineSpanTree publishes across a 3-broker line and asserts
// the origin assembles the COMPLETE span tree: publish, journal append
// and match at the origin, forward/recv hops toward the subscriber's
// broker, and the deliver span reported back along the reverse path.
func TestTraceLineSpanTree(t *testing.T) {
	c := NewCluster(t, 3)
	c.Wire(Line(3))

	local := c.Subscribe(0, ge("x", 0)) // delivered at the origin itself
	far := c.Subscribe(2, ge("x", 10))  // two hops away
	c.Subscribe(1, ge("x", 1000))       // never matches
	c.Settle()

	p := c.Publish(0, "x", 50) // matches both subscribers
	c.Settle()
	c.VerifyExactlyOnce()
	if checked, _ := c.VerifyTraceComplete(); checked != 1 {
		t.Fatalf("VerifyTraceComplete checked %d pubs, want 1", checked)
	}

	// The origin's assembled tree names every stage and both endpoints.
	spans := c.Brokers[0].B.Tracer().Spans(p.ID)
	perBroker := make(map[string]map[string]int) // broker → kind → count
	for _, s := range spans {
		if perBroker[s.Broker] == nil {
			perBroker[s.Broker] = make(map[string]int)
		}
		perBroker[s.Broker][s.Kind]++
	}
	for broker, kinds := range map[string][]string{
		"b00": {trace.KindPublish, trace.KindJournal, trace.KindMatch, trace.KindForward, trace.KindDeliver},
		"b01": {trace.KindRecv, trace.KindMatch, trace.KindForward},
		"b02": {trace.KindRecv, trace.KindMatch, trace.KindDeliver},
	} {
		for _, kind := range kinds {
			if perBroker[broker][kind] == 0 {
				t.Errorf("span tree lacks %s@%s; got %v", kind, broker, perBroker)
			}
		}
	}
	// Spans come back start-ordered: the publish admission leads.
	if len(spans) == 0 || spans[0].Kind != trace.KindPublish {
		t.Fatalf("first span is %+v, want the origin publish", spans[0])
	}

	// Intermediate b01 held the pub's spans too (it relayed the trace
	// report), and b02 at least its own contribution.
	if len(c.Brokers[1].B.Tracer().Spans(p.ID)) == 0 {
		t.Error("relay broker b01 dropped the trace")
	}
	if len(c.Brokers[2].B.Tracer().Spans(p.ID)) == 0 {
		t.Error("delivering broker b02 holds no trace")
	}
	_, _ = local, far
}

// TestTraceExactlyOnceRing runs the cyclic-topology scenario and
// demands complete traces even when duplicate suppression drops
// redundant copies of each publication.
func TestTraceExactlyOnceRing(t *testing.T) {
	c := NewCluster(t, 5)
	c.Wire(Ring(5))

	c.Subscribe(0, ge("x", 0))
	c.Subscribe(2, ge("x", 50))
	c.Settle()

	for i := 0; i < 5; i++ {
		c.Publish(i, "x", i*25)
	}
	c.Settle()
	c.VerifyExactlyOnce()
	if checked, skipped := c.VerifyTraceComplete(); checked != 5 || skipped != 0 {
		t.Fatalf("VerifyTraceComplete checked %d/skipped %d, want 5/0", checked, skipped)
	}
}

// TestTraceStarSpanTree publishes from every broker of a 5-broker star
// with a subscriber on every spoke: the hub relays reports from several
// downstream branches at once, and a spoke's reports cross two links to
// reach another spoke's origin.
func TestTraceStarSpanTree(t *testing.T) {
	c := NewCluster(t, 5)
	c.Wire(Star(5))

	for i := 1; i < 5; i++ {
		c.Subscribe(i, ge("x", 0))
	}
	c.Settle()

	for i := 0; i < 5; i++ {
		c.Publish(i, "x", i)
	}
	c.Settle()
	c.VerifyExactlyOnce()
	if checked, skipped := c.VerifyTraceComplete(); checked != 5 || skipped != 0 {
		t.Fatalf("VerifyTraceComplete checked %d/skipped %d, want 5/0", checked, skipped)
	}
}

// TestTraceDurableCrashRejoin mixes trace verification with the
// durable crash-restart scenario: publications that straddle the fault
// are exempt (trace state is in-memory and dies with the process), but
// publications after the rejoin must trace completely again.
func TestTraceDurableCrashRejoin(t *testing.T) {
	c := NewCluster(t, 2)
	c.Wire(Line(2))

	c.SubscribeDurable(1, ge("x", 0))
	c.Settle()
	c.SnapshotNow(1)

	c.Publish(0, "x", 1) // fault-free window: checked strictly
	c.Settle()

	c.CrashRestart(1)
	c.Publish(0, "x", 2) // same faultSeq from here on: checked strictly
	c.Publish(1, "x", 3)
	c.Settle()
	c.VerifyAtLeastOnce()

	checked, skipped := c.VerifyTraceComplete()
	if skipped != 1 {
		t.Fatalf("VerifyTraceComplete skipped %d pubs, want the 1 straddling the restart", skipped)
	}
	if checked != 2 {
		t.Fatalf("VerifyTraceComplete checked %d pubs, want the 2 after the rejoin", checked)
	}
}
