package trace

import (
	"strings"
	"sync"
	"testing"
	"time"

	"stopss/internal/metrics"
)

func TestNewPubIDFormat(t *testing.T) {
	tr := New(Config{Broker: "b1"})
	id := tr.NewPubID()
	if !strings.HasPrefix(id, "b1#") || !strings.Contains(id, "/") {
		t.Fatalf("pub id %q not of form broker#epoch/seq", id)
	}
	if id2 := tr.NewPubID(); id2 == id {
		t.Fatalf("pub ids not unique: %q", id)
	}
}

func TestStampLocalRecordsSpans(t *testing.T) {
	tr := New(Config{Broker: "b1"})
	id := tr.NewPubID()
	if !tr.StampLocal(id, time.Now()) {
		t.Fatal("default sample=1 should trace everything")
	}
	tr.Observe(id, KindPublish, time.Now(), 10*time.Microsecond)
	tr.Observe(id, KindMatch, time.Now(), time.Microsecond)
	tr.Outcome(id, KindDeliver, "alice", 7, time.Now(), time.Millisecond, "")

	spans := tr.Spans(id)
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3: %+v", len(spans), spans)
	}
	kinds := map[string]bool{}
	for _, s := range spans {
		if s.Broker != "b1" {
			t.Fatalf("span broker %q, want b1", s.Broker)
		}
		kinds[s.Kind] = true
	}
	for _, k := range []string{KindPublish, KindMatch, KindDeliver} {
		if !kinds[k] {
			t.Fatalf("missing %s span: %+v", k, spans)
		}
	}
	st := tr.Stats()
	if st.Stamped != 1 || st.Spans != 3 {
		t.Fatalf("stats %+v", st)
	}
}

func TestSampling(t *testing.T) {
	tr := New(Config{Broker: "b1", Sample: 3})
	kept := 0
	for i := 0; i < 30; i++ {
		id := tr.NewPubID()
		if tr.StampLocal(id, time.Now()) {
			kept++
		}
	}
	if kept != 10 {
		t.Fatalf("sample=3 kept %d of 30, want 10", kept)
	}

	// Concurrent publishers mint IDs before stamping: the decision
	// must still keep 1 in Sample stamps.
	two := New(Config{Broker: "b3", Sample: 2})
	a, b := two.NewPubID(), two.NewPubID()
	if ka, kb := two.StampLocal(a, time.Now()), two.StampLocal(b, time.Now()); ka == kb {
		t.Fatalf("sample=2 with interleaved IDs kept a=%v b=%v, want exactly one", ka, kb)
	}

	off := New(Config{Broker: "b2", Sample: -1})
	id := off.NewPubID()
	if off.StampLocal(id, time.Now()) {
		t.Fatal("sample<0 must not trace")
	}
	off.Observe(id, KindPublish, time.Now(), time.Microsecond)
	if got := off.Spans(id); len(got) != 0 {
		t.Fatalf("sample off recorded spans: %+v", got)
	}
}

func TestStampRemoteInheritsSamplingDecision(t *testing.T) {
	tr := New(Config{Broker: "b2"})
	if tr.StampRemote("b1#e/1", "b1", nil, time.Now()) {
		t.Fatal("frame without spans means origin sampled out; must not trace")
	}
	carried := []Span{{Broker: "b1", Seq: 1, Kind: KindPublish, Start: time.Now()}}
	if !tr.StampRemote("b1#e/2", "b1", carried, time.Now()) {
		t.Fatal("frame with spans must be traced")
	}
	spans := tr.Spans("b1#e/2")
	if len(spans) != 2 || spans[0].Broker != "b1" || spans[1].Kind != KindRecv || spans[1].Link != "b1" {
		t.Fatalf("want the carried span then this hop's recv: %+v", spans)
	}
}

func TestMergeDedupsByBrokerSeq(t *testing.T) {
	tr := New(Config{Broker: "b1"})
	id := tr.NewPubID()
	tr.StampLocal(id, time.Now())
	remote := []Span{
		{Broker: "b2", Seq: 1, Kind: KindRecv, Start: time.Now()},
		{Broker: "b2", Seq: 2, Kind: KindDeliver, Start: time.Now()},
		{Seq: 3, Kind: KindDeliver, Start: time.Now()}, // no broker: dropped
	}
	tr.Merge(id, remote)
	if got := len(tr.Spans(id)); got != 2 {
		t.Fatalf("got %d spans, want 2", got)
	}
	tr.Merge("unknown#e/9", remote)
	if tr.Traced("unknown#e/9") {
		t.Fatal("merge into unknown pub must be ignored")
	}
}

func TestRemoteDeliverMergeClosesPublishToAck(t *testing.T) {
	tr := New(Config{Broker: "b1"})
	id := tr.NewPubID()
	tr.StampLocal(id, time.Now())
	// Two deliver spans reported back from remote brokers: each closes
	// one publish→ack window at the origin.
	reported := []Span{
		{Broker: "b2", Seq: 1, Kind: KindDeliver, Start: time.Now()},
		{Broker: "b3", Seq: 1, Kind: KindDeliver, Start: time.Now()},
	}
	tr.Merge(id, reported)
	if got := tr.Stages().PublishToAck.Count; got != 2 {
		t.Fatalf("publish_to_ack count = %d, want 2 (one per remote deliver)", got)
	}

	// A non-origin broker merging the same report must not observe:
	// the window belongs to the publishing broker alone.
	mid := New(Config{Broker: "b2"})
	mid.StampRemote(id, "b1", []Span{{Broker: "b1", Seq: 1, Kind: KindPublish, Start: time.Now()}}, time.Now())
	mid.Merge(id, reported)
	if got := mid.Stages().PublishToAck.Count; got != 0 {
		t.Fatalf("non-origin publish_to_ack count = %d, want 0", got)
	}
}

func TestRingEviction(t *testing.T) {
	tr := New(Config{Broker: "b1", Capacity: 4})
	var ids []string
	for i := 0; i < 10; i++ {
		id := tr.NewPubID()
		tr.StampLocal(id, time.Now())
		ids = append(ids, id)
	}
	if tr.Traced(ids[0]) {
		t.Fatal("oldest trace should be evicted")
	}
	if !tr.Traced(ids[9]) {
		t.Fatal("newest trace should be held")
	}
	st := tr.Stats()
	if st.Held > 4 || st.Evicted == 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestFailedDeliveryForcesKeep(t *testing.T) {
	// Sampled-out publication: a dead-letter outcome must still
	// materialize a (partial) trace, and it must survive churn.
	tr := New(Config{Broker: "b1", Sample: -1, Capacity: 8})
	id := tr.NewPubID()
	tr.StampLocal(id, time.Now())
	tr.Outcome(id, KindDeadLetter, "bob", 3, time.Now(), time.Second, "conn refused")
	if !tr.Traced(id) {
		t.Fatal("dead-lettered delivery must force a trace")
	}
	// Churn far past capacity; the forced trace must remain.
	on := New(Config{Broker: "b1", Capacity: 8})
	fid := on.NewPubID()
	on.StampLocal(fid, time.Now())
	on.Outcome(fid, KindDeadLetter, "bob", 3, time.Now(), time.Second, "x")
	for i := 0; i < 100; i++ {
		id := on.NewPubID()
		on.StampLocal(id, time.Now())
	}
	if !on.Traced(fid) {
		t.Fatal("forced trace evicted by churn")
	}
	spans := on.Spans(fid)
	found := false
	for _, s := range spans {
		if s.Kind == KindDeadLetter && s.Err == "x" {
			found = true
		}
	}
	if !found {
		t.Fatalf("dead_letter span missing: %+v", spans)
	}
}

func TestReporterFiresForRemoteOrigin(t *testing.T) {
	tr := New(Config{Broker: "b2"})
	var mu sync.Mutex
	var gotPub, gotUp string
	var gotSpans []Span
	tr.SetReporter(func(pubID, upstream string, spans []Span) {
		mu.Lock()
		gotPub, gotUp, gotSpans = pubID, upstream, spans
		mu.Unlock()
	})

	carried := []Span{{Broker: "b1", Seq: 1, Kind: KindPublish, Start: time.Now()}}
	tr.StampRemote("b1#e/1", "b1", carried, time.Now())
	tr.Outcome("b1#e/1", KindDeliver, "alice", 1, time.Now(), time.Millisecond, "")

	mu.Lock()
	defer mu.Unlock()
	if gotPub != "b1#e/1" || gotUp != "b1" {
		t.Fatalf("report pub=%q up=%q", gotPub, gotUp)
	}
	// Only this broker's spans go up: its recv and deliver. The carried
	// publish span came from upstream.
	if len(gotSpans) != 2 || gotSpans[0].Kind != KindRecv || gotSpans[1].Kind != KindDeliver {
		t.Fatalf("report spans %+v, want the local recv and deliver", gotSpans)
	}

	// Local-origin outcomes must NOT fire the reporter.
	gotPub = ""
	lid := tr.NewPubID()
	tr.StampLocal(lid, time.Now())
	tr.Outcome(lid, KindDeliver, "alice", 1, time.Now(), time.Millisecond, "")
	if gotPub != "" {
		t.Fatal("reporter fired for local-origin publication")
	}
}

// TestReportsCarryEachSpanOnce chains three tracers b3→b2→b1 through
// their reporters and gives b3 n deliver outcomes: the spans crossing
// each hop are exactly the spans recorded below it, linear in n, and
// the origin ends up holding every span once.
func TestReportsCarryEachSpanOnce(t *testing.T) {
	const n = 20
	b1, b2, b3 := New(Config{Broker: "b1"}), New(Config{Broker: "b2"}), New(Config{Broker: "b3"})
	var up2, up1 int // spans crossing b3→b2 and b2→b1
	b3.SetReporter(func(pubID, upstream string, spans []Span) {
		if upstream != "b2" {
			t.Errorf("b3 reported to %q, want b2", upstream)
		}
		up2 += len(spans)
		b2.Merge(pubID, spans)
	})
	b2.SetReporter(func(pubID, upstream string, spans []Span) {
		if upstream != "b1" {
			t.Errorf("b2 reported to %q, want b1", upstream)
		}
		up1 += len(spans)
		b1.Merge(pubID, spans)
	})

	id := b1.NewPubID()
	b1.StampLocal(id, time.Now())
	b1.Observe(id, KindPublish, time.Now(), time.Microsecond)
	b2.StampRemote(id, "b1", b1.Forward(id, "b2", time.Now()), time.Now())
	b3.StampRemote(id, "b2", b2.Forward(id, "b3", time.Now()), time.Now())
	for i := 0; i < n; i++ {
		b3.Outcome(id, KindDeliver, "s", uint64(i), time.Now(), time.Microsecond, "")
	}

	// b3 recorded recv + n delivers; b2 added its recv and forward.
	if want := n + 1; up2 != want {
		t.Fatalf("%d spans crossed b3→b2, want %d", up2, want)
	}
	if want := n + 3; up1 != want {
		t.Fatalf("%d spans crossed b2→b1, want %d", up1, want)
	}
	spans := b1.Spans(id)
	held := make(map[Span]bool, len(spans))
	for _, s := range spans {
		if held[s] {
			t.Fatalf("origin holds %+v twice", s)
		}
		held[s] = true
	}
	if want := 2 + n + 3; len(spans) != want { // b1 publish + forward
		t.Fatalf("origin holds %d spans, want %d", len(spans), want)
	}
	if got := b1.Stages().PublishToAck.Count; got != n {
		t.Fatalf("publish_to_ack count = %d, want %d", got, n)
	}
}

// TestReportWatermarkConcurrent drives Outcome (notify workers) and
// Merge (the link reader) on one remote-origin trace at once: every
// span the tracer holds beyond the carried ones is reported exactly
// once.
func TestReportWatermarkConcurrent(t *testing.T) {
	tr := New(Config{Broker: "b2"})
	var mu sync.Mutex
	reported := make(map[Span]int)
	tr.SetReporter(func(_, _ string, spans []Span) {
		mu.Lock()
		for _, s := range spans {
			reported[s]++
		}
		mu.Unlock()
	})
	const id = "b1#e/1"
	tr.StampRemote(id, "b1", []Span{{Broker: "b1", Seq: 1, Kind: KindPublish}}, time.Now())

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.Outcome(id, KindDeliver, "s", uint64(i), time.Now(), time.Microsecond, "")
			}
		}()
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.Merge(id, []Span{{Broker: "b3", Seq: uint64(g*100 + i), Kind: KindDeliver}})
			}
		}(g)
	}
	wg.Wait()

	held := tr.Spans(id)
	if want := 1 + 1 + 800; len(held) != want { // carried, recv, outcomes + merges
		t.Fatalf("tracer holds %d spans, want %d", len(held), want)
	}
	for _, s := range held {
		want := 1
		if s.Broker == "b1" {
			want = 0 // carried: upstream holds it
		}
		if n := reported[s]; n != want {
			t.Fatalf("span %+v reported %d times, want %d", s, n, want)
		}
	}
	if len(reported) != len(held)-1 {
		t.Fatalf("reported %d distinct spans, want %d", len(reported), len(held)-1)
	}
}

func TestStageHistogramsFeedEvenWhenSampledOut(t *testing.T) {
	tr := New(Config{Broker: "b1", Sample: -1})
	id := tr.NewPubID()
	tr.StampLocal(id, time.Now())
	tr.Observe(id, KindMatch, time.Now(), 5*time.Microsecond)
	tr.Observe(id, KindJournal, time.Now(), 50*time.Microsecond)
	st := tr.Stages()
	if st.Match.Count != 1 || st.Journal.Count != 1 {
		t.Fatalf("stage histograms not fed when sampled out: %+v", st)
	}
}

func TestSpansSortedByStart(t *testing.T) {
	tr := New(Config{Broker: "b1"})
	id := tr.NewPubID()
	tr.StampLocal(id, time.Now())
	base := time.Now()
	tr.Merge(id, []Span{
		{Broker: "b3", Seq: 1, Kind: KindDeliver, Start: base.Add(2 * time.Second)},
		{Broker: "b2", Seq: 1, Kind: KindRecv, Start: base.Add(time.Second)},
	})
	tr.Observe(id, KindPublish, base, time.Microsecond)
	spans := tr.Spans(id)
	if len(spans) != 3 || spans[0].Kind != KindPublish || spans[1].Kind != KindRecv || spans[2].Kind != KindDeliver {
		t.Fatalf("spans not start-ordered: %+v", spans)
	}
}

func TestConcurrentTracerUse(t *testing.T) {
	tr := New(Config{Broker: "b1", Capacity: 64, Registry: metrics.NewRegistry()})
	tr.SetReporter(func(string, string, []Span) {})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := tr.NewPubID()
				tr.StampLocal(id, time.Now())
				tr.Observe(id, KindMatch, time.Now(), time.Microsecond)
				tr.Forward(id, "peer", time.Now())
				tr.Outcome(id, KindDeliver, "s", 1, time.Now(), time.Microsecond, "")
				tr.Spans(id)
				tr.Stats()
			}
		}()
	}
	wg.Wait()
}
