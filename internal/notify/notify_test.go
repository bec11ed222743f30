package notify

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"stopss/internal/message"
)

func sampleNotification(id message.SubID) Notification {
	return Notification{
		SubID:      id,
		Subscriber: "recruiter-1",
		Event:      message.E("school", "Toronto", "degree", "PhD"),
		Mode:       "semantic",
	}
}

func TestNotificationRoundTrip(t *testing.T) {
	n := sampleNotification(42)
	b, err := n.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeNotification(b)
	if err != nil {
		t.Fatal(err)
	}
	if back.SubID != 42 || back.Subscriber != "recruiter-1" || !back.Event.Equal(n.Event) {
		t.Errorf("round trip changed notification: %+v", back)
	}
	if _, err := DecodeNotification([]byte("{broken")); err == nil {
		t.Error("garbage must not decode")
	}
}

// collector gathers notifications thread-safely.
type collector struct {
	mu   sync.Mutex
	seen []Notification
}

func (c *collector) add(n Notification) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seen = append(c.seen, n)
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.seen)
}

func (c *collector) waitFor(t *testing.T, n int, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if c.count() >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %d notifications, have %d", n, c.count())
}

func TestTCPTransportLoopback(t *testing.T) {
	var col collector
	sink, err := NewTCPSink("127.0.0.1:0", col.add)
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()

	tr := NewTCPTransport(0)
	defer tr.Close()
	for i := 1; i <= 20; i++ {
		if err := tr.Send(sink.Addr(), sampleNotification(message.SubID(i))); err != nil {
			t.Fatal(err)
		}
	}
	col.waitFor(t, 20, 2*time.Second)
	if col.seen[0].Subscriber != "recruiter-1" {
		t.Errorf("payload corrupted: %+v", col.seen[0])
	}
}

func TestTCPTransportReconnects(t *testing.T) {
	var col collector
	sink, err := NewTCPSink("127.0.0.1:0", col.add)
	if err != nil {
		t.Fatal(err)
	}
	addr := sink.Addr()
	tr := NewTCPTransport(0)
	defer tr.Close()
	if err := tr.Send(addr, sampleNotification(1)); err != nil {
		t.Fatal(err)
	}
	col.waitFor(t, 1, 2*time.Second)
	// Kill the sink; sends should eventually fail (first write may
	// succeed into the OS buffer before the RST arrives).
	sink.Close()
	failed := false
	for i := 0; i < 20 && !failed; i++ {
		if err := tr.Send(addr, sampleNotification(2)); err != nil {
			failed = true
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !failed {
		t.Fatal("sends kept succeeding after sink closed")
	}
	// New sink on a fresh port: transport dials again.
	var col2 collector
	sink2, err := NewTCPSink("127.0.0.1:0", col2.add)
	if err != nil {
		t.Fatal(err)
	}
	defer sink2.Close()
	if err := tr.Send(sink2.Addr(), sampleNotification(3)); err != nil {
		t.Fatalf("send to new sink: %v", err)
	}
	col2.waitFor(t, 1, 2*time.Second)
}

func TestUDPTransportLoopback(t *testing.T) {
	var col collector
	sink, err := NewUDPSink("127.0.0.1:0", col.add)
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()

	tr := NewUDPTransport()
	defer tr.Close()
	for i := 1; i <= 20; i++ {
		if err := tr.Send(sink.Addr(), sampleNotification(message.SubID(i))); err != nil {
			t.Fatal(err)
		}
	}
	col.waitFor(t, 20, 2*time.Second)
}

func TestUDPOversizeRejected(t *testing.T) {
	tr := NewUDPTransport()
	defer tr.Close()
	big := Notification{Subscriber: strings.Repeat("x", maxUDPPayload)}
	if err := tr.Send("127.0.0.1:9", big); err == nil {
		t.Error("oversize datagram must be rejected locally")
	}
}

func TestSMTPTransportLoopback(t *testing.T) {
	var mu sync.Mutex
	var mails []Mail
	sink, err := NewSMTPSink("127.0.0.1:0", func(m Mail) {
		mu.Lock()
		defer mu.Unlock()
		mails = append(mails, m)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()

	tr := NewSMTPTransport("engine@stopss")
	n := sampleNotification(7)
	n.Seq = 99
	if err := tr.Send("recruiter@"+sink.Addr(), n); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		cnt := len(mails)
		mu.Unlock()
		if cnt > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("mail never arrived")
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	m := mails[0]
	mu.Unlock()
	if m.From != "engine@stopss" || m.To != "recruiter" {
		t.Errorf("envelope = %+v", m)
	}
	back, err := DecodeNotification([]byte(strings.TrimSpace(m.Body)))
	if err != nil {
		t.Fatalf("body is not a notification: %v\n%q", err, m.Body)
	}
	if back.SubID != 7 {
		t.Errorf("SubID = %d", back.SubID)
	}
}

func TestSMTPAddressValidation(t *testing.T) {
	tr := NewSMTPTransport("")
	for _, bad := range []string{"nohost", "@host:1", "box@"} {
		if err := tr.Send(bad, sampleNotification(1)); err == nil {
			t.Errorf("address %q should be rejected", bad)
		}
	}
}

func TestSMSSegmentationAndReassembly(t *testing.T) {
	g := NewSMSGateway(0, 0) // no rate limit
	n := sampleNotification(1)
	n.Event = message.E("blob", strings.Repeat("a", 400))
	if err := g.Send("+1-416-555-0199", n); err != nil {
		t.Fatal(err)
	}
	msgs := g.Messages()
	if len(msgs) < 3 {
		t.Fatalf("expected >= 3 segments, got %d", len(msgs))
	}
	for _, m := range msgs {
		if len(m.Payload) > segmentSize {
			t.Errorf("segment of %d chars exceeds %d", len(m.Payload), segmentSize)
		}
		if m.Parts != len(msgs) {
			t.Errorf("segment claims %d parts, want %d", m.Parts, len(msgs))
		}
	}
	joined := g.Reassemble("+1-416-555-0199")
	if len(joined) != 1 {
		t.Fatalf("reassembled %d payloads", len(joined))
	}
	back, err := DecodeNotification([]byte(joined[0]))
	if err != nil {
		t.Fatalf("reassembly corrupted payload: %v", err)
	}
	if !back.Event.Equal(n.Event) {
		t.Error("event lost in segmentation")
	}
}

func TestSMSRateLimit(t *testing.T) {
	g := NewSMSGateway(1, 2) // 1 segment/s, burst 2
	ok, limited := 0, 0
	for i := 0; i < 5; i++ {
		if err := g.Send("x", sampleNotification(message.SubID(i))); err != nil {
			limited++
		} else {
			ok++
		}
	}
	if ok == 0 || limited == 0 {
		t.Errorf("rate limiter inert: ok=%d limited=%d", ok, limited)
	}
}

func TestEngineDeliversAcrossTransports(t *testing.T) {
	var col collector
	tcpSink, err := NewTCPSink("127.0.0.1:0", col.add)
	if err != nil {
		t.Fatal(err)
	}
	defer tcpSink.Close()
	udpSink, err := NewUDPSink("127.0.0.1:0", col.add)
	if err != nil {
		t.Fatal(err)
	}
	defer udpSink.Close()
	sms := NewSMSGateway(0, 0)

	eng, err := NewEngine(Config{Workers: 2},
		NewTCPTransport(0), NewUDPTransport(), sms)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.SetRoute("alice", Route{Transport: "tcp", Addr: tcpSink.Addr()}); err != nil {
		t.Fatal(err)
	}
	if err := eng.SetRoute("bob", Route{Transport: "udp", Addr: udpSink.Addr()}); err != nil {
		t.Fatal(err)
	}
	if err := eng.SetRoute("carol", Route{Transport: "sms", Addr: "+1-416"}); err != nil {
		t.Fatal(err)
	}
	if err := eng.SetRoute("dave", Route{Transport: "warp", Addr: "x"}); err == nil {
		t.Error("unknown transport must be rejected")
	}

	for i := 0; i < 10; i++ {
		for _, who := range []string{"alice", "bob", "carol"} {
			n := sampleNotification(message.SubID(i))
			n.Subscriber = who
			if err := eng.Dispatch(n); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !eng.Drain(2 * time.Second) {
		t.Fatal("queue did not drain")
	}
	col.waitFor(t, 20, 2*time.Second) // tcp + udp
	deadline := time.Now().Add(time.Second)
	for len(sms.Reassemble("+1-416")) < 10 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := len(sms.Reassemble("+1-416")); got != 10 {
		t.Errorf("sms deliveries = %d, want 10", got)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Dispatch(sampleNotification(1)); !errors.Is(err, ErrClosed) {
		t.Errorf("Dispatch after Close = %v, want ErrClosed", err)
	}
}

func TestEngineRetriesAndRecovers(t *testing.T) {
	sms := NewSMSGateway(0, 0)
	eng, err := NewEngine(Config{Workers: 1, MaxRetries: 3, Backoff: time.Millisecond}, sms)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.SetRoute("alice", Route{Transport: "sms", Addr: "a"}); err != nil {
		t.Fatal(err)
	}
	sms.FailNext(2) // first two attempts fail, third succeeds
	n := sampleNotification(1)
	n.Subscriber = "alice"
	if err := eng.Dispatch(n); err != nil {
		t.Fatal(err)
	}
	if !eng.Drain(2 * time.Second) {
		t.Fatal("queue did not drain")
	}
	deadline := time.Now().Add(time.Second)
	for len(sms.Messages()) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if len(sms.Messages()) == 0 {
		t.Fatal("notification never delivered despite retries")
	}
	if len(eng.DeadLetters()) != 0 {
		t.Errorf("dead letters = %v", eng.DeadLetters())
	}
	reg := eng.Metrics()
	if d, f, l := reg.Counter("delivered.sms").Value(), reg.Counter("attempts_failed.sms").Value(),
		reg.Histogram("latency.sms").Snapshot().Count; d != 1 || f != 2 || l != 1 {
		t.Errorf("delivered.sms %d, attempts_failed.sms %d, latency.sms count %d; want 1, 2, 1\n%s",
			d, f, l, reg.Report())
	}
}

func TestEngineDeadLetters(t *testing.T) {
	sms := NewSMSGateway(0, 0)
	eng, err := NewEngine(Config{Workers: 1, MaxRetries: 2, Backoff: time.Millisecond}, sms)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.SetRoute("alice", Route{Transport: "sms", Addr: "a"}); err != nil {
		t.Fatal(err)
	}
	sms.FailNext(100)
	n := sampleNotification(9)
	n.Subscriber = "alice"
	if err := eng.Dispatch(n); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for len(eng.DeadLetters()) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	dead := eng.DeadLetters()
	if len(dead) != 1 {
		t.Fatalf("dead letters = %d, want 1", len(dead))
	}
	if dead[0].Attempts != 3 { // 1 initial + 2 retries
		t.Errorf("Attempts = %d, want 3", dead[0].Attempts)
	}
	if dead[0].Notification.SubID != 9 || dead[0].Err == nil {
		t.Errorf("dead letter = %+v", dead[0])
	}
}

func TestEngineRouteRequired(t *testing.T) {
	eng, err := NewEngine(Config{}, NewSMSGateway(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.Dispatch(sampleNotification(1)); err == nil {
		t.Error("dispatch without route must fail")
	}
	if _, ok := eng.RouteOf("nobody"); ok {
		t.Error("RouteOf(nobody) should be false")
	}
}

func TestEngineQueueFull(t *testing.T) {
	// A gateway that blocks forever stalls the single worker; the
	// 1-slot queue then rejects.
	block := make(chan struct{})
	tr := blockingTransport{block: block}
	eng, err := NewEngine(Config{Workers: 1, QueueSize: 1, MaxRetries: 1}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.SetRoute("a", Route{Transport: "block", Addr: "x"}); err != nil {
		t.Fatal(err)
	}
	sawFull := false
	for i := 0; i < 50; i++ {
		n := sampleNotification(1)
		n.Subscriber = "a"
		if err := eng.Dispatch(n); errors.Is(err, ErrQueueFull) {
			sawFull = true
			break
		}
	}
	close(block)
	if !sawFull {
		t.Error("queue never reported full")
	}
	eng.Close()
}

type blockingTransport struct{ block chan struct{} }

func (b blockingTransport) Name() string { return "block" }
func (b blockingTransport) Send(string, Notification) error {
	<-b.block
	return nil
}
func (b blockingTransport) Close() error { return nil }

func TestEngineConfigValidation(t *testing.T) {
	if _, err := NewEngine(Config{}, badNameTransport{}); err == nil {
		t.Error("empty transport name must be rejected")
	}
	if _, err := NewEngine(Config{}, NewSMSGateway(0, 0), NewSMSGateway(0, 0)); err == nil {
		t.Error("duplicate transport must be rejected")
	}
}

type badNameTransport struct{}

func (badNameTransport) Name() string                    { return "" }
func (badNameTransport) Send(string, Notification) error { return nil }
func (badNameTransport) Close() error                    { return nil }

func TestDispatchSequenceNumbers(t *testing.T) {
	sms := NewSMSGateway(0, 0)
	eng, err := NewEngine(Config{Workers: 1}, sms)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.SetRoute("a", Route{Transport: "sms", Addr: "x"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		n := sampleNotification(1)
		n.Subscriber = "a"
		if err := eng.Dispatch(n); err != nil {
			t.Fatal(err)
		}
	}
	if !eng.Drain(2 * time.Second) {
		t.Fatal("no drain")
	}
	payloads := fmt.Sprintf("%v", sms.Reassemble("x"))
	for seq := 1; seq <= 5; seq++ {
		if !strings.Contains(payloads, fmt.Sprintf(`"seq":%d`, seq)) {
			t.Errorf("sequence %d missing from deliveries", seq)
		}
	}
}

func TestDeadLetterListBounded(t *testing.T) {
	sms := NewSMSGateway(0, 0)
	eng, err := NewEngine(Config{Workers: 1, MaxRetries: 0, Backoff: time.Millisecond,
		DeadLetterLimit: 3}, sms)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.SetRoute("alice", Route{Transport: "sms", Addr: "a"}); err != nil {
		t.Fatal(err)
	}
	sms.FailNext(100)
	for i := 1; i <= 7; i++ {
		n := sampleNotification(message.SubID(i))
		n.Subscriber = "alice"
		if err := eng.Dispatch(n); err != nil {
			t.Fatal(err)
		}
	}
	if !eng.Drain(2 * time.Second) {
		t.Fatal("queue did not drain")
	}
	dead := eng.DeadLetters()
	if len(dead) != 3 {
		t.Fatalf("dead letters = %d, want cap of 3", len(dead))
	}
	// Oldest evicted: the survivors are the newest three.
	for i, d := range dead {
		if want := message.SubID(i + 5); d.Notification.SubID != want {
			t.Errorf("dead[%d].SubID = %d, want %d", i, d.Notification.SubID, want)
		}
	}
	st := eng.Stats()
	if st.DeadLettersDropped != 4 || st.DeadLetters != 3 {
		t.Errorf("stats = %+v, want 4 dropped / 3 held", st)
	}
	if rep := eng.Metrics().Report(); !strings.Contains(rep, "dead_dropped") {
		t.Errorf("metrics missing dead_dropped counter:\n%s", rep)
	}
}

func TestDeliveryHookAcksAndParks(t *testing.T) {
	sms := NewSMSGateway(0, 0)
	eng, err := NewEngine(Config{Workers: 1, MaxRetries: 1, Backoff: time.Millisecond}, sms)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.SetRoute("alice", Route{Transport: "sms", Addr: "a"}); err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		seq      uint64
		err      error
		attempts int
	}
	var mu sync.Mutex
	var outcomes []outcome
	eng.SetDeliveryHook(func(n Notification, r Route, err error, attempts int) bool {
		mu.Lock()
		outcomes = append(outcomes, outcome{n.JournalSeq, err, attempts})
		mu.Unlock()
		return n.JournalSeq != 0 // claim durable failures (park in journal)
	})

	ok := sampleNotification(1)
	ok.Subscriber, ok.JournalSeq = "alice", 11
	if err := eng.Dispatch(ok); err != nil {
		t.Fatal(err)
	}
	if !eng.Drain(2 * time.Second) {
		t.Fatal("drain 1")
	}

	sms.FailNext(100)
	durableFail := sampleNotification(2)
	durableFail.Subscriber, durableFail.JournalSeq = "alice", 12
	if err := eng.Dispatch(durableFail); err != nil {
		t.Fatal(err)
	}
	fireForget := sampleNotification(3)
	fireForget.Subscriber = "alice" // JournalSeq 0: hook declines it
	if err := eng.Dispatch(fireForget); err != nil {
		t.Fatal(err)
	}
	if !eng.Drain(2 * time.Second) {
		t.Fatal("drain 2")
	}

	mu.Lock()
	defer mu.Unlock()
	if len(outcomes) != 3 {
		t.Fatalf("hook fired %d times, want 3: %+v", len(outcomes), outcomes)
	}
	if outcomes[0].seq != 11 || outcomes[0].err != nil || outcomes[0].attempts != 1 {
		t.Errorf("success outcome = %+v", outcomes[0])
	}
	if outcomes[1].seq != 12 || outcomes[1].err == nil || outcomes[1].attempts != 2 {
		t.Errorf("durable failure outcome = %+v", outcomes[1])
	}
	if outcomes[2].seq != 0 || outcomes[2].err == nil {
		t.Errorf("fire-and-forget failure outcome = %+v", outcomes[2])
	}
	// The claimed durable failure is parked, not dead-lettered; the
	// declined fire-and-forget one lands in the list as before.
	if dead := eng.DeadLetters(); len(dead) != 1 || dead[0].Notification.SubID != 3 {
		t.Errorf("dead letters = %+v, want only sub 3", dead)
	}
	if st := eng.Stats(); st.Parked != 1 {
		t.Errorf("stats = %+v, want Parked 1", st)
	}
}

// TestDispatchRacingClose is the regression test for Dispatch sending
// on the queue Close had already closed. The race detector reports that
// send within the first iterations; without it the panic is rarer.
func TestDispatchRacingClose(t *testing.T) {
	iters := 2000
	if testing.Short() {
		iters = 200
	}
	for i := 0; i < iters; i++ {
		eng, err := NewEngine(Config{Workers: 1}, NewSMSGateway(0, 0))
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.SetRoute("s", Route{Transport: "sms", Addr: "a"}); err != nil {
			t.Fatal(err)
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for k := 0; k < 20; k++ {
					err := eng.Dispatch(Notification{Subscriber: "s"})
					if err != nil && !errors.Is(err, ErrClosed) && !errors.Is(err, ErrQueueFull) {
						t.Error(err)
					}
				}
			}()
		}
		close(start)
		eng.Close()
		wg.Wait()
	}
}

// BenchmarkNotifyFanout delivers one publication's fan-out — 28
// notifications of one event — to one TCP sink per iteration and waits
// for all of them; allocs/op covers encoding, the write and the sink's
// decoding.
func BenchmarkNotifyFanout(b *testing.B) {
	const fanout = 28
	got := make(chan struct{}, fanout)
	sink, err := NewTCPSink("127.0.0.1:0", func(Notification) { got <- struct{}{} })
	if err != nil {
		b.Fatal(err)
	}
	defer sink.Close()
	eng, err := NewEngine(Config{Workers: 8}, NewTCPTransport(0))
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	if err := eng.SetRoute("recruiter", Route{Transport: "tcp", Addr: sink.Addr()}); err != nil {
		b.Fatal(err)
	}
	n := Notification{Subscriber: "recruiter", Mode: "semantic", PubID: "b1#6715f7dc/2",
		Event: message.E("school", "Toronto", "degree", "PhD", "graduation year", 1990,
			"professional experience", 5, "skills", "databases & <distributed> systems")}
	b.ReportAllocs()
	for b.Loop() {
		for i := 0; i < fanout; i++ {
			n.SubID = message.SubID(i + 1)
			if err := eng.Dispatch(n); err != nil {
				b.Fatal(err)
			}
		}
		for i := 0; i < fanout; i++ {
			<-got
		}
	}
}
