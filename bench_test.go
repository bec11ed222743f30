package stopss

// Diagnostic benchmarks behind the tables of EXPERIMENTS.md (DESIGN
// §5); the end-to-end benchmark is benchmark/run.sh. Families include:
//
//	BenchmarkPipeline      — per-event latency of each pipeline stage
//	BenchmarkMatcher       — matcher scaling with subscription count
//	BenchmarkSynonyms      — hash vs linear synonym resolution
//	BenchmarkFixpoint      — mapping-chain expansion cost
//	BenchmarkNotify        — per-transport delivery latency
//	BenchmarkJournalAppend / BenchmarkDurablePublish — durable journal
//	    cost on the publish hot path (EXPERIMENTS T10)
//	BenchmarkFigure1       — the paper's §1 golden publication
//	BenchmarkJobFinder     — broker end to end on the demo scenario
//
// The count-style claims (recall per semantic stage, loss tolerance,
// cross-domain bridges) are tests in internal/core.

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"stopss/internal/broker"
	"stopss/internal/core"
	"stopss/internal/journal"
	"stopss/internal/knowledge"
	"stopss/internal/matching"
	"stopss/internal/message"
	"stopss/internal/notify"
	"stopss/internal/ontology"
	"stopss/internal/overlay"
	"stopss/internal/semantic"
	"stopss/internal/sim"
	"stopss/internal/store"
	"stopss/internal/sublang"
	"stopss/internal/trace"
	"stopss/internal/workload"
)

// --- matcher scaling ---

func BenchmarkMatcher(b *testing.B) {
	gen, err := workload.New(workload.Config{Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	sizes := []int{1000, 10000, 50000}
	maxSize := sizes[len(sizes)-1]
	subs := gen.Subscriptions(maxSize)
	events := gen.Events(512)

	for _, alg := range matching.Algorithms() {
		for _, n := range sizes {
			if alg == "naive" && n > 10000 {
				continue // minutes per op; the trend is visible up to 10k
			}
			b.Run(fmt.Sprintf("%s/subs=%d", alg, n), func(b *testing.B) {
				m, err := matching.New(alg)
				if err != nil {
					b.Fatal(err)
				}
				for _, s := range subs[:n] {
					if err := matching.Index(m, s); err != nil {
						b.Fatal(err)
					}
				}
				var scratch []message.SubID
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					scratch = m.Match(events[i%len(events)], scratch[:0])
				}
			})
		}
	}
}

func BenchmarkMatcherAdd(b *testing.B) {
	gen, err := workload.New(workload.Config{Seed: 33})
	if err != nil {
		b.Fatal(err)
	}
	subs := gen.Subscriptions(200000)
	for _, alg := range matching.Algorithms() {
		b.Run(alg, func(b *testing.B) {
			m, err := matching.New(alg)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				s := subs[i%len(subs)]
				s.ID = message.SubID(i + 1) // unique
				if err := matching.Index(m, s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- pipeline stages ---

func BenchmarkPipeline(b *testing.B) {
	gen, err := workload.New(workload.Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	subs := gen.Subscriptions(20000)
	events := gen.Events(512)

	configs := []struct {
		name string
		mode core.Mode
		cfg  semantic.Config
	}{
		{"syntactic", core.Syntactic, semantic.SyntacticConfig()},
		{"synonyms", core.Semantic, semantic.Config{Synonyms: true}},
		{"syn+hierarchy", core.Semantic, semantic.Config{Synonyms: true, Hierarchy: true}},
		{"full", core.Semantic, semantic.FullConfig()},
	}
	for _, c := range configs {
		b.Run(c.name, func(b *testing.B) {
			eng := core.NewEngine(gen.KB().Stage(c.cfg), core.WithMode(c.mode))
			for _, s := range subs {
				if err := eng.Subscribe(s); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Publish(events[i%len(events)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSemanticStageOnly isolates the semantic stage from matching —
// the paper's claim is specifically that THIS part is fast.
func BenchmarkSemanticStageOnly(b *testing.B) {
	gen, err := workload.New(workload.Config{Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	events := gen.Events(512)
	stages := map[string]semantic.Config{
		"synonyms":  {Synonyms: true},
		"hierarchy": {Hierarchy: true},
		"mappings":  {Mappings: true},
		"full":      semantic.FullConfig(),
	}
	for name, cfg := range stages {
		b.Run(name, func(b *testing.B) {
			st := gen.KB().Stage(cfg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st.ProcessEvent(events[i%len(events)])
			}
		})
	}
}

// --- hash vs linear synonym tables ---

func BenchmarkSynonyms(b *testing.B) {
	for _, n := range []int{1000, 100000} {
		hash := semantic.NewSynonyms()
		linear := semantic.NewLinearSynonyms()
		terms := make([]string, 0, n)
		for g := 0; g < n/4; g++ {
			root := fmt.Sprintf("root%d", g)
			syns := []string{fmt.Sprintf("s%d-a", g), fmt.Sprintf("s%d-b", g), fmt.Sprintf("s%d-c", g)}
			if err := hash.AddGroup(root, syns...); err != nil {
				b.Fatal(err)
			}
			linear.AddGroup(root, syns...)
			terms = append(terms, root, syns[0], syns[1], syns[2])
		}
		b.Run(fmt.Sprintf("hash/terms=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				hash.Canonical(terms[i%len(terms)])
			}
		})
		if n <= 1000 { // the scan at 100k terms is ~10000x slower
			b.Run(fmt.Sprintf("linear/terms=%d", n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					linear.Canonical(terms[i%len(terms)])
				}
			})
		}
	}
}

// --- mapping-chain fixpoint ---

func BenchmarkFixpoint(b *testing.B) {
	for _, hops := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("chain=%d", hops), func(b *testing.B) {
			gen, err := workload.New(workload.Config{Seed: 6, MappingChains: 1, ChainLength: hops})
			if err != nil {
				b.Fatal(err)
			}
			st := gen.KB().Stage(semantic.Config{Mappings: true, MaxRounds: hops + 1})
			seed := gen.ChainSeed(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st.ProcessEvent(seed)
			}
		})
	}
}

// --- notification transports ---

func BenchmarkNotify(b *testing.B) {
	drop := func(notify.Notification) {}
	tcpSink, err := notify.NewTCPSink("127.0.0.1:0", drop)
	if err != nil {
		b.Fatal(err)
	}
	defer tcpSink.Close()
	udpSink, err := notify.NewUDPSink("127.0.0.1:0", drop)
	if err != nil {
		b.Fatal(err)
	}
	defer udpSink.Close()
	smtpSink, err := notify.NewSMTPSink("127.0.0.1:0", func(notify.Mail) {})
	if err != nil {
		b.Fatal(err)
	}
	defer smtpSink.Close()
	sms := notify.NewSMSGateway(0, 0)
	defer sms.Close()

	n := notify.Notification{SubID: 1, Subscriber: "bench",
		Event: message.E("school", "Toronto", "degree", "PhD")}

	tcp := notify.NewTCPTransport(0)
	defer tcp.Close()
	udp := notify.NewUDPTransport()
	defer udp.Close()
	smtp := notify.NewSMTPTransport("")

	cases := []struct {
		name string
		send func() error
	}{
		{"tcp", func() error { return tcp.Send(tcpSink.Addr(), n) }},
		{"udp", func() error { return udp.Send(udpSink.Addr(), n) }},
		{"smtp", func() error { return smtp.Send("hr@"+smtpSink.Addr(), n) }},
		{"sms", func() error { return sms.Send("+1-416", n) }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := c.send(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- the paper's golden example ---

func BenchmarkFigure1(b *testing.B) {
	ont, err := ontology.Load(workload.JobsODL, ontology.Options{})
	if err != nil {
		b.Fatal(err)
	}
	eng := core.NewEngine(ont.Stage(semantic.FullConfig()))
	if err := eng.Subscribe(message.NewSubscription(1, "recruiter",
		message.Pred("university", message.OpEq, message.String("Toronto")),
		message.Pred("degree", message.OpEq, message.String("PhD")),
		message.Pred("professional experience", message.OpGe, message.Int(4)))); err != nil {
		b.Fatal(err)
	}
	ev := message.E("school", "Toronto", "degree", "PhD",
		"work experience", true, "graduation year", 1990)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.Publish(ev)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Matches) != 1 {
			b.Fatal("golden example stopped matching")
		}
	}
}

// --- broker end to end on the demo scenario ---

func BenchmarkJobFinderEndToEnd(b *testing.B) {
	ont, err := ontology.Load(workload.JobsODL, ontology.Options{})
	if err != nil {
		b.Fatal(err)
	}
	eng := core.NewEngine(ont.Stage(semantic.FullConfig()))
	sms := notify.NewSMSGateway(0, 0)
	ne, err := notify.NewEngine(notify.Config{Workers: 2, QueueSize: 1 << 16}, sms)
	if err != nil {
		b.Fatal(err)
	}
	defer ne.Close()
	br := broker.New(eng, ne)

	jf := workload.NewJobFinder(2003)
	for _, s := range jf.Recruiters(200) {
		if err := br.Register(broker.Client{Name: s.Subscriber,
			Route: notify.Route{Transport: "sms", Addr: "x"}}); err != nil {
			b.Fatal(err)
		}
		if _, err := br.Subscribe(s.Subscriber, s.Preds); err != nil {
			b.Fatal(err)
		}
	}
	resumes := jf.Resumes(512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := br.Publish(resumes[i%len(resumes)]); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Overlay routing over the in-process sim fabric ---

// simBenchBroker is benchBroker over the simulation transport: no
// sockets, so the measured cost is pure routing work (framing, cover
// tables, dedup windows, fan-out decisions).
func simBenchBroker(b *testing.B, net *sim.Network, name string) (*broker.Broker, *overlay.Node, *benchTransport) {
	b.Helper()
	tr := &benchTransport{ch: make(chan struct{}, 4096)}
	ne, err := notify.NewEngine(notify.Config{Workers: 4, QueueSize: 8192}, tr)
	if err != nil {
		b.Fatal(err)
	}
	br := broker.New(core.NewEngine(nil), ne)
	// Tracing off: this family isolates routing cost, and trace reports
	// hopping back toward the origin would double the measured traffic.
	// BenchmarkPublishTraced/-Untraced own the tracing overhead numbers.
	node, err := overlay.NewNode(overlay.Config{Name: name, Listen: name,
		Transport: net.Host(name), TraceSample: -1}, br)
	if err != nil {
		b.Fatal(err)
	}
	if err := node.Start(); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		node.Close()
		ne.Close()
	})
	return br, node, tr
}

// BenchmarkOverlaySim measures end-to-end delivered-notification
// throughput across broker chains of increasing depth over the
// internal/sim fabric — the TCP-free counterpart of BenchmarkOverlay,
// isolating per-hop routing cost from socket noise.
func BenchmarkOverlaySim(b *testing.B) {
	subPreds := []message.Predicate{message.Pred("x", message.OpGe, message.Int(0))}
	ev := message.E("x", 42)

	for _, hops := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("chain=%d", hops+1), func(b *testing.B) {
			net := sim.NewNetwork()
			brokers := make([]*broker.Broker, hops+1)
			var tailTr *benchTransport
			for i := 0; i <= hops; i++ {
				name := fmt.Sprintf("s%d", i)
				br, node, tr := simBenchBroker(b, net, name)
				brokers[i] = br
				tailTr = tr
				if i > 0 {
					if err := node.Dial(fmt.Sprintf("s%d", i-1)); err != nil {
						b.Fatal(err)
					}
				}
			}
			tail := brokers[hops]
			if err := tail.Register(broker.Client{Name: "sub", Route: notify.Route{Transport: "bench", Addr: "x"}}); err != nil {
				b.Fatal(err)
			}
			if _, err := tail.Subscribe("sub", subPreds); err != nil {
				b.Fatal(err)
			}
			head := brokers[0]
			// The subscription floods hop by hop; wait for it to reach
			// the chain head before timing.
			for i := 0; i < 400 && head.Stats().Remote.RemoteSubs == 0; i++ {
				time.Sleep(5 * time.Millisecond)
			}
			if head.Stats().Remote.RemoteSubs == 0 {
				b.Fatal("subscription did not propagate to the chain head")
			}

			b.ReportAllocs()
			b.ResetTimer()
			inflight := make(chan struct{}, 512)
			done := make(chan struct{})
			go func() {
				for i := 0; i < b.N; i++ {
					<-tailTr.ch
					<-inflight
				}
				close(done)
			}()
			for i := 0; i < b.N; i++ {
				inflight <- struct{}{}
				if _, err := head.Publish(ev); err != nil {
					b.Fatal(err)
				}
			}
			select {
			case <-done:
			case <-time.After(2 * time.Minute):
				b.Fatal("notifications did not drain")
			}
		})
	}
}

// --- T9: multi-origin knowledge convergence (EXPERIMENTS.md) ---

// kbBenchEngine builds an engine over a fresh knowledge base with n
// stored subscriptions (bounded attribute universe, distinct string
// values — none mention the benchmark's delta terms).
func kbBenchEngine(b *testing.B, n int) *core.Engine {
	b.Helper()
	base := knowledge.NewBase(nil, nil, nil)
	e := core.NewEngine(base.Stage(semantic.FullConfig()), core.WithKnowledge(base))
	for i := 0; i < n; i++ {
		s := message.NewSubscription(message.SubID(i+1), "c",
			message.Pred(fmt.Sprintf("attr%d", i%1024), message.OpEq,
				message.String(fmt.Sprintf("val%d", i))))
		if err := e.Subscribe(s); err != nil {
			b.Fatal(err)
		}
	}
	return e
}

// --- T10: durable publication journal ---

// BenchmarkJournalAppend measures the journal's buffered append path:
// encode, CRC, frame, segment-roll checks — everything the durable
// publish path pays per publication EXCEPT the fsync (group commit is
// measured separately; its cost is dominated by the device, not the
// code).
func BenchmarkJournalAppend(b *testing.B) {
	j, err := journal.Open(journal.Config{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	ev := message.E("school", "Toronto", "degree", "PhD", "graduation year", 1990)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := j.Append(ev, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJournalGroupCommit measures the fsync'd append under
// concurrency: parallel appenders share commits, so per-append cost
// falls as batching kicks in. The commits/appends ratio is reported as
// a metric. Fsync latency is a property of the disk, not of this
// code.
func BenchmarkJournalGroupCommit(b *testing.B) {
	j, err := journal.Open(journal.Config{Dir: b.TempDir(), Fsync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	ev := message.E("school", "Toronto", "degree", "PhD")
	// Force real appender concurrency even on a 1-vCPU runner: the
	// fsync blocks in a syscall, so other appenders run and pile onto
	// the same commit.
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := j.Append(ev, false); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	st := j.Stats()
	if st.Appends > 0 {
		b.ReportMetric(float64(st.GroupCommits)/float64(st.Appends), "commits/append")
	}
}

// BenchmarkJournalReplay measures catch-up scan throughput: one pass
// over a 10k-record journal (decode + CRC per record). Replay is an
// off-hot-path recovery operation; the number feeds EXPERIMENTS T10.
func BenchmarkJournalReplay(b *testing.B) {
	j, err := journal.Open(journal.Config{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	j.SetCursor("pin", 0) // hold history across rolls
	ev := message.E("school", "Toronto", "degree", "PhD", "graduation year", 1990)
	const records = 10_000
	for i := 0; i < records; i++ {
		if _, err := j.Append(ev, false); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		if err := j.Scan(1, func(journal.Record) error { n++; return nil }); err != nil {
			b.Fatal(err)
		}
		if n != records {
			b.Fatalf("scanned %d of %d", n, records)
		}
	}
	b.ReportMetric(float64(records)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkCatchUpSeek measures the sparse-index seek on deep-cursor
// catch-up: a 50k-record journal spread over many sealed segments, a
// subscriber 100 records from the tip. The indexed variant seeks to
// the last index entry at or before the cursor and decodes only the
// tail; the scan variant (indexing disabled) re-reads and CRCs every
// record of every retained segment. The gap between the two is the
// ISSUE's "catch-up cost follows replay depth, not journal size".
func BenchmarkCatchUpSeek(b *testing.B) {
	for _, mode := range []struct {
		name  string
		every int
	}{{"indexed", 128}, {"scan", -1}} {
		b.Run(mode.name, func(b *testing.B) {
			j, err := journal.Open(journal.Config{Dir: b.TempDir(),
				SegmentBytes: 256 << 10, IndexEvery: mode.every})
			if err != nil {
				b.Fatal(err)
			}
			defer j.Close()
			j.SetCursor("pin", 0) // hold history across rolls
			ev := message.E("school", "Toronto", "degree", "PhD", "graduation year", 1990)
			const records, depth = 50_000, 100
			for i := 0; i < records; i++ {
				if _, err := j.Append(ev, false); err != nil {
					b.Fatal(err)
				}
			}
			from := uint64(records - depth + 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n := 0
				if err := j.Scan(from, func(journal.Record) error { n++; return nil }); err != nil {
					b.Fatal(err)
				}
				if n != depth {
					b.Fatalf("scanned %d records, want %d", n, depth)
				}
			}
			b.StopTimer()
			st := j.Stats()
			if b.N > 0 && st.SeekScans > 0 {
				b.ReportMetric(float64(st.SeekSkippedBytes)/float64(st.SeekScans), "skipped-B/scan")
			}
		})
	}
}

// BenchmarkStoreReadThrough measures the subscription store's read path
// under pool pressure: 20k records over a 64-page pool (~3% resident),
// random Gets. Most reads miss, evict an unpinned page and fault the
// target page in — pin/unpin, LRU maintenance, CRC verify and the
// directory lookup are all on the measured path.
func BenchmarkStoreReadThrough(b *testing.B) {
	st, err := store.Open(store.Config{Path: filepath.Join(b.TempDir(), "subs.heap"),
		PageSize: 4096, Pages: 64})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	val := make([]byte, 64)
	for i := range val {
		val[i] = byte(i)
	}
	const records = 20_000
	for i := 0; i < records; i++ {
		if err := st.Put(uint64(i+1), val); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(2003))
	s0 := st.Stats() // setup (Put probing) touches the pool too; report deltas
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, ok, err := st.Get(uint64(rng.Intn(records) + 1))
		if err != nil || !ok {
			b.Fatalf("get: %v ok=%v", err, ok)
		}
		if len(data) != len(val) {
			b.Fatalf("got %d bytes, want %d", len(data), len(val))
		}
	}
	b.StopTimer()
	s := st.Stats()
	hits, misses := s.Hits-s0.Hits, s.Misses-s0.Misses
	if hits+misses > 0 {
		b.ReportMetric(float64(hits)/float64(hits+misses), "hit-rate")
	}
}

// BenchmarkDurablePublish measures the durable publish hot path against
// its fire-and-forget twin: one broker, one matching subscription, one
// in-memory transport; each iteration publishes and waits for the
// delivery. The durable variant adds the journal append (buffered
// mode), pending-window registration and the cursor-advancing ack.
func BenchmarkDurablePublish(b *testing.B) {
	for _, durable := range []bool{false, true} {
		name := "fire-and-forget"
		if durable {
			name = "durable"
		}
		b.Run(name, func(b *testing.B) {
			tr := &benchTransport{ch: make(chan struct{}, 8192)}
			ne, err := notify.NewEngine(notify.Config{Workers: 4, QueueSize: 8192}, tr)
			if err != nil {
				b.Fatal(err)
			}
			defer ne.Close()
			br := broker.New(core.NewEngine(nil), ne)
			// Tracing off so the measured delta stays the journal cost
			// alone; the traced publish path has its own pair below.
			br.SetTracer(trace.New(trace.Config{Broker: "bench", Sample: -1}))
			if durable {
				j, err := journal.Open(journal.Config{Dir: b.TempDir()})
				if err != nil {
					b.Fatal(err)
				}
				defer j.Close()
				br.AttachJournal(j)
			}
			if err := br.Register(broker.Client{Name: "sub",
				Route: notify.Route{Transport: "bench", Addr: "x"}}); err != nil {
				b.Fatal(err)
			}
			preds := []message.Predicate{message.Pred("x", message.OpGe, message.Int(0))}
			if durable {
				if _, err := br.SubscribeDurable("sub", preds); err != nil {
					b.Fatal(err)
				}
			} else {
				if _, err := br.Subscribe("sub", preds); err != nil {
					b.Fatal(err)
				}
			}
			ev := message.E("x", 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := br.Publish(ev); err != nil {
					b.Fatal(err)
				}
				<-tr.ch
			}
		})
	}
}

// BenchmarkPublishTraced / BenchmarkPublishUntraced measure the span
// recording overhead on the fire-and-forget publish hot path (DESIGN
// §10): same single-broker setup as BenchmarkDurablePublish, with the
// tracer either sampling every publication (the default) or disabled
// outright (-trace-sample=0). Untraced must stay within noise of the
// pre-tracing publish baseline.
func BenchmarkPublishTraced(b *testing.B)   { benchPublishTrace(b, 0) }
func BenchmarkPublishUntraced(b *testing.B) { benchPublishTrace(b, -1) }

func benchPublishTrace(b *testing.B, sample int) {
	tr := &benchTransport{ch: make(chan struct{}, 8192)}
	ne, err := notify.NewEngine(notify.Config{Workers: 4, QueueSize: 8192}, tr)
	if err != nil {
		b.Fatal(err)
	}
	defer ne.Close()
	br := broker.New(core.NewEngine(nil), ne)
	br.SetTracer(trace.New(trace.Config{Broker: "bench", Sample: sample}))
	if err := br.Register(broker.Client{Name: "sub",
		Route: notify.Route{Transport: "bench", Addr: "x"}}); err != nil {
		b.Fatal(err)
	}
	preds := []message.Predicate{message.Pred("x", message.OpGe, message.Int(0))}
	if _, err := br.Subscribe("sub", preds); err != nil {
		b.Fatal(err)
	}
	ev := message.E("x", 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := br.Publish(ev); err != nil {
			b.Fatal(err)
		}
		<-tr.ch
	}
}

// BenchmarkKnowledgeApply measures the single-origin adaptation hot
// path: one in-order synonym delta folded, staged and touch-scanned
// against 10k stored subscriptions (the engine-level counterpart of
// the per-size study in internal/core's benchmark of the same name).
func BenchmarkKnowledgeApply(b *testing.B) {
	e := kbBenchEngine(b, 10_000)
	o := knowledge.NewOrigin("bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := o.Stamp(knowledge.Delta{Op: knowledge.OpAddSynonym,
			Root: "bench-root", Terms: []string{fmt.Sprintf("fresh-%d", i)}})
		rep, err := e.ApplyKnowledge(d)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Reindexed != 0 || rep.FullReindex {
			b.Fatalf("unexpected re-index: %+v", rep)
		}
	}
}

// BenchmarkKnowledgeMultiOrigin measures the cost of CONCURRENT
// multi-origin knowledge evolution at 10k stored subscriptions
// (EXPERIMENTS T9). Each op injects one delta from each of two origins
// in an arrival order that makes the second delta out of merge order —
// the pattern a federation sees whenever two brokers evolve the
// ontology at once:
//
//   - tailmerge: the shipping path. The out-of-order arrival refolds a
//     checkpointed suffix, diffs the canonical maps, and re-indexes
//     nothing (the terms are fresh); cost stays near the in-order path.
//   - refold-from-genesis: what the pre-tail-merge implementation paid
//     per cross-origin delta — Rebuilt=true forced every stored
//     subscription through the matcher again. Reproduced here as an
//     explicit full re-index per arrival; the measured ratio is a
//     LOWER bound on the old cost, which refolded the whole log on top.
func BenchmarkKnowledgeMultiOrigin(b *testing.B) {
	run := func(b *testing.B, fullPerArrival bool) {
		e := kbBenchEngine(b, 10_000)
		oa, ob := knowledge.NewOrigin("a"), knowledge.NewOrigin("b")
		b.ReportAllocs()
		b.ResetTimer()
		refolds := 0
		for i := 0; i < b.N; i++ {
			// Origin "b" first, then origin "a" with the same sequence
			// number: "a" sorts before the tail — out of merge order.
			db := ob.Stamp(knowledge.Delta{Op: knowledge.OpAddSynonym,
				Root: "rb", Terms: []string{fmt.Sprintf("tb-%d", i)}})
			da := oa.Stamp(knowledge.Delta{Op: knowledge.OpAddSynonym,
				Root: "ra", Terms: []string{fmt.Sprintf("ta-%d", i)}})
			for _, d := range []knowledge.Delta{db, da} {
				rep, err := e.ApplyKnowledge(d)
				if err != nil {
					b.Fatal(err)
				}
				if rep.Refolded {
					refolds++
				}
				if fullPerArrival {
					if _, err := e.ReindexKnowledge(nil, true); err != nil {
						b.Fatal(err)
					}
				} else if rep.Reindexed != 0 || rep.FullReindex {
					b.Fatalf("tail merge re-indexed: %+v", rep)
				}
			}
		}
		if refolds == 0 && b.N > 0 {
			b.Fatal("arrival pattern produced no out-of-order deltas")
		}
		b.ReportMetric(float64(refolds)/float64(b.N), "refolds/op")
	}
	b.Run("subs=10000/tailmerge", func(b *testing.B) { run(b, false) })
	b.Run("subs=10000/refold-from-genesis", func(b *testing.B) { run(b, true) })
}

// --- supporting micro-benchmarks ---

func BenchmarkSublangParse(b *testing.B) {
	sub := "(university = Toronto) and (degree = PhD) and (professional experience >= 4)"
	ev := "(school, Toronto)(degree, PhD)(work experience, true)(graduation year, 1990)"
	b.Run("subscription", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sublang.ParseSubscription(sub); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("event", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sublang.ParseEvent(ev); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkOntologyCompile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := ontology.Load(workload.JobsODL, ontology.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHierarchyAncestors(b *testing.B) {
	h := semantic.NewHierarchy()
	// Depth-8 binary taxonomy.
	var leaves []string
	var build func(name string, depth int)
	build = func(name string, depth int) {
		if depth == 8 {
			leaves = append(leaves, name)
			return
		}
		for c := 0; c < 2; c++ {
			child := fmt.Sprintf("%s.%d", name, c)
			if err := h.AddIsA(child, name); err != nil {
				b.Fatal(err)
			}
			build(child, depth+1)
		}
	}
	build("root", 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Ancestors(leaves[i%len(leaves)], 0)
	}
}

// --- Concurrent publishers on one engine ---

// BenchmarkPublishParallel measures publication throughput of one engine
// with GOMAXPROCS goroutines publishing concurrently (EXPERIMENTS.md
// §Shard). Syntactic mode isolates the matching path.
func BenchmarkPublishParallel(b *testing.B) {
	gen, err := workload.New(workload.Config{Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	const nSubs = 20000
	subs := gen.Subscriptions(nSubs)
	events := gen.Events(1024)

	b.Run(fmt.Sprintf("subs=%d", nSubs), func(b *testing.B) {
		eng := core.NewEngine(gen.KB().Stage(semantic.FullConfig()), core.WithMode(core.Syntactic))
		for _, s := range subs {
			if err := eng.Subscribe(s); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				if _, err := eng.Publish(events[i%len(events)]); err != nil {
					b.Fatal(err)
				}
				i++
			}
		})
	})
}

// --- Overlay federation: 1 broker vs a 3-broker chain ---

// benchTransport counts deliveries through a channel, closing done when
// the expected number arrives.
type benchTransport struct{ ch chan struct{} }

func (t *benchTransport) Name() string                           { return "bench" }
func (t *benchTransport) Send(string, notify.Notification) error { t.ch <- struct{}{}; return nil }
func (t *benchTransport) Close() error                           { return nil }

// benchBroker builds one broker (empty knowledge base) with a counting
// transport and an overlay node listening on loopback.
func benchBroker(b *testing.B, name string) (*broker.Broker, *overlay.Node, *benchTransport) {
	b.Helper()
	tr := &benchTransport{ch: make(chan struct{}, 4096)}
	ne, err := notify.NewEngine(notify.Config{Workers: 4, QueueSize: 8192}, tr)
	if err != nil {
		b.Fatal(err)
	}
	br := broker.New(core.NewEngine(nil), ne)
	node, err := overlay.NewNode(overlay.Config{Name: name, Listen: "127.0.0.1:0"}, br)
	if err != nil {
		b.Fatal(err)
	}
	if err := node.Start(); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		node.Close()
		ne.Close()
	})
	return br, node, tr
}

// BenchmarkOverlay compares end-to-end delivered-notification
// throughput of a standalone broker against a publication crossing a
// 3-broker chain over loopback TCP (EXPERIMENTS.md §Overlay): publish
// at the head, count notifications at the subscriber's broker.
func BenchmarkOverlay(b *testing.B) {
	subPreds := []message.Predicate{message.Pred("x", message.OpGe, message.Int(0))}
	ev := message.E("x", 42)

	run := func(b *testing.B, pub *broker.Broker, tr *benchTransport) {
		b.Helper()
		b.ResetTimer()
		// Bound in-flight publications well under the notify queue
		// size: the dispatcher drops on a full queue (ErrQueueFull),
		// which would leave the drain goroutine waiting forever.
		inflight := make(chan struct{}, 512)
		done := make(chan struct{})
		go func() {
			for i := 0; i < b.N; i++ {
				<-tr.ch
				<-inflight
			}
			close(done)
		}()
		for i := 0; i < b.N; i++ {
			inflight <- struct{}{}
			if _, err := pub.Publish(ev); err != nil {
				b.Fatal(err)
			}
		}
		select {
		case <-done:
		case <-time.After(2 * time.Minute):
			b.Fatal("notifications did not drain")
		}
	}

	b.Run("brokers=1", func(b *testing.B) {
		br, _, tr := benchBroker(b, "solo")
		if err := br.Register(broker.Client{Name: "sub", Route: notify.Route{Transport: "bench", Addr: "x"}}); err != nil {
			b.Fatal(err)
		}
		if _, err := br.Subscribe("sub", subPreds); err != nil {
			b.Fatal(err)
		}
		run(b, br, tr)
	})

	b.Run("brokers=3", func(b *testing.B) {
		brA, nodeA, _ := benchBroker(b, "A")
		_, nodeB, _ := benchBroker(b, "B")
		brC, nodeC, trC := benchBroker(b, "C")
		if err := nodeB.Dial(nodeA.Addr()); err != nil {
			b.Fatal(err)
		}
		if err := nodeC.Dial(nodeB.Addr()); err != nil {
			b.Fatal(err)
		}
		if err := brC.Register(broker.Client{Name: "sub", Route: notify.Route{Transport: "bench", Addr: "x"}}); err != nil {
			b.Fatal(err)
		}
		if _, err := brC.Subscribe("sub", subPreds); err != nil {
			b.Fatal(err)
		}
		// Wait for the subscription to reach A before timing.
		for i := 0; i < 400 && brA.Stats().Remote.RemoteSubs == 0; i++ {
			time.Sleep(5 * time.Millisecond)
		}
		if brA.Stats().Remote.RemoteSubs == 0 {
			b.Fatal("subscription did not propagate to the chain head")
		}
		run(b, brA, trC)
	})
}

// --- query-optimizer additions (DESIGN §12) ---

// BenchmarkMatchPushdown measures the predicate-pushdown win: every
// subscription carries one selective equality plus expensive string
// scans, and the compiled plan evaluates the equality first, so the
// thousands of non-matching candidates bail on one comparison instead
// of running substring searches.
func BenchmarkMatchPushdown(b *testing.B) {
	haystack := "a-rather-long-resume-field-with-no-needle-in-it-anywhere-at-all"
	for _, alg := range matching.Algorithms() {
		b.Run(alg, func(b *testing.B) {
			m, err := matching.New(alg)
			if err != nil {
				b.Fatal(err)
			}
			for i := 1; i <= 5000; i++ {
				s := message.NewSubscription(message.SubID(i), "c",
					message.Pred("summary", message.OpContains, message.String(fmt.Sprintf("needle-%04d", i))),
					message.Pred("team", message.OpEq, message.String(fmt.Sprintf("team-%04d", i))),
					message.Pred("title", message.OpContains, message.String("engineer")),
				)
				if err := matching.Index(m, s); err != nil {
					b.Fatal(err)
				}
			}
			ev := message.E("summary", haystack, "team", "team-0001", "title", "senior-engineer")
			var scratch []message.SubID
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				scratch = m.Match(ev, scratch[:0])
			}
		})
	}
}

// BenchmarkPlanCache measures subscription compilation: warm hits the
// plan cache (duplicate canonical forms share one compiled plan), cold
// compiles a fresh canonical form every iteration.
func BenchmarkPlanCache(b *testing.B) {
	gen, err := workload.New(workload.Config{Seed: 55})
	if err != nil {
		b.Fatal(err)
	}
	subs := gen.Subscriptions(200000)
	b.Run("warm", func(b *testing.B) {
		m, err := matching.New("counting")
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range subs[:1024] {
			if err := matching.Index(m, s); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := m.Compile(subs[i%1024]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cold", func(b *testing.B) {
		m, err := matching.New("counting")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := m.Compile(subs[i%len(subs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkExpansionLRU is the repeated-event-shape publish benchmark:
// real feeds publish the same shapes constantly, and the warm case
// serves the semantic expansion from the engine's LRU instead of
// re-running the synonym/hierarchy/mapping stages per publication.
func BenchmarkExpansionLRU(b *testing.B) {
	// Expansion-heavy shape: deep concept trees, long mapping chains and
	// near-certain synonym/concept usage make the semantic stage the
	// dominant cost, which is precisely the regime the LRU targets
	// (matching cost is identical warm and cold — the cached expansion
	// still gets matched).
	gen, err := workload.New(workload.Config{
		Seed: 77, SynonymProb: 0.95, ConceptProb: 0.9,
		ConceptTrees: 6, ConceptDepth: 6, ConceptFanout: 3,
		MappingChains: 4, ChainLength: 8,
		PairsMin: 8, PairsMax: 12,
	})
	if err != nil {
		b.Fatal(err)
	}
	subs := gen.Subscriptions(500)
	shapes := gen.Events(64) // well inside the default LRU capacity
	for i := range shapes {  // every shape also triggers a mapping chain
		shapes[i].Add(fmt.Sprintf("chain%d-hop0", i%4), message.Int(0))
	}
	for _, tc := range []struct {
		name string
		cap  int
	}{
		{"warm", core.DefaultExpansionCacheSize},
		{"cold", 0},
	} {
		b.Run(tc.name, func(b *testing.B) {
			eng := core.NewEngine(gen.KB().Stage(semantic.FullConfig()),
				core.WithExpansionCache(tc.cap))
			for _, s := range subs {
				if err := eng.Subscribe(s); err != nil {
					b.Fatal(err)
				}
			}
			for _, e := range shapes { // pre-warm the cache
				if _, err := eng.Publish(e); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Publish(shapes[i%len(shapes)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
