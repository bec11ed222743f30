package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
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
	"stopss/internal/sublang"
	"stopss/internal/trace"
	"stopss/internal/webapp"
)

// The traced run. The server has no timers at its layer boundaries yet,
// so the per-layer times come from outside it: the first replayInputs
// paced inputs of the workload are replayed, one at a time, through a
// pipeline assembled in this process from the constructors
// cmd/stopss-server.buildStack uses. Where a layer is reached through an
// interface (core.PubSub under the broker, notify.Transport under the
// notifier) a timing decorator records a nested span; layers that are
// concrete types are timed alone on the same inputs. End-to-end numbers
// never come from here.

// replayInputs is how many paced inputs the traced run replays.
const replayInputs = 2000

// span is one timed call into a layer, as written to trace-<workload>.json.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the replay began
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span; -1 for a root
	Pub    int    `json:"pub"`    // replayed input; -1 for set-up work
	Pass   string `json:"pass"`   // which replay pass recorded it
}

// recorder keeps spans in memory until the replay ends. Synchronous
// calls nest under the innermost open span; transport sends run on the
// notifier's workers and hang under the root span of the input in flight
// (the replay waits for an input's notifications before the next input).
type recorder struct {
	t0   time.Time
	pass string

	mu    sync.Mutex
	spans []span
	open  []int // stack of open synchronous spans
	pub   int
	root  int
}

// begin opens a span under the innermost open one and returns its index.
// A nil recorder records nothing, so undecorated passes share the code.
func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	parent := -1
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	} else {
		r.root = len(r.spans)
	}
	r.spans = append(r.spans, span{Name: name, Start: now, Parent: parent, Pub: r.pub, Pass: r.pass})
	r.open = append(r.open, len(r.spans)-1)
	return len(r.spans) - 1
}

func (r *recorder) end(i int) {
	if r == nil {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[i].End = now
	r.open = r.open[:len(r.open)-1]
}

// async records a span that ran on another goroutine, under the current
// root.
func (r *recorder) async(name string, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds(),
		Parent: r.root, Pub: r.pub, Pass: r.pass})
}

// input names the pass and the replayed input (-1: set-up) that the
// spans recorded from now on belong to.
func (r *recorder) input(pass string, pub int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.pass, r.pub = pass, pub
	r.mu.Unlock()
}

// durations returns, in microseconds, every span of the pass with the
// given name.
func (r *recorder) durations(pass, name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Pass == pass && s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// timedEngine decorates the engine under the broker.
type timedEngine struct {
	core.PubSub
	rec *recorder
}

func (t timedEngine) Publish(ev message.Event) (core.MatchResult, error) {
	i := t.rec.begin("core.publish")
	defer t.rec.end(i)
	return t.PubSub.Publish(ev)
}

func (t timedEngine) Subscribe(s message.Subscription) error {
	i := t.rec.begin("core.subscribe")
	defer t.rec.end(i)
	return t.PubSub.Subscribe(s)
}

// timedTransport decorates the TCP transport under the notifier.
type timedTransport struct {
	notify.Transport
	rec *recorder
	// sent, when set, sees each send's notification and timestamps (the
	// notify pass uses it to relate a send to its dispatch).
	sent func(n notify.Notification, start, end time.Time)
}

func (t timedTransport) Send(addr string, n notify.Notification) error {
	start := time.Now()
	err := t.Transport.Send(addr, n)
	end := time.Now()
	t.rec.async("notify.send", start, end)
	if t.sent != nil {
		t.sent(n, start, end)
	}
	return err
}

// stack is one broker assembled in process, the way buildStack and run
// assemble the server's.
type stack struct {
	broker   *broker.Broker
	engine   *core.Engine
	notifier *notify.Engine
	web      http.Handler
	node     *overlay.Node
	journal  *journal.Journal
}

func (st *stack) close() {
	if st.node != nil {
		st.node.Close()
	}
	st.notifier.Close()
	if st.journal != nil {
		st.journal.Close()
	}
}

// stackOptions selects what a replay pass wraps and switches on.
type stackOptions struct {
	rec        *recorder // nil: no decorators
	traceOff   bool      // trace.Config{Sample: -1} instead of the shipped 1
	journalDir string    // non-empty: attach a journal, fsync on as shipped
	node       string    // non-empty: join an overlay under this name
	peer       string    // overlay address to dial
}

func newStack(ont *ontology.Ontology, o stackOptions) (*stack, error) {
	base := knowledge.NewBase(ont.Synonyms, ont.Hierarchy, ont.Mappings)
	m, err := matching.New("counting")
	if err != nil {
		return nil, err
	}
	st := &stack{}
	st.engine = core.NewEngine(base.Stage(semantic.FullConfig()), core.WithMatcher(m), core.WithKnowledge(base),
		core.WithExpansionCache(core.DefaultExpansionCacheSize))
	var engine core.PubSub = st.engine
	var tcp notify.Transport = notify.NewTCPTransport(0)
	if o.rec != nil {
		engine = timedEngine{engine, o.rec}
		tcp = timedTransport{Transport: tcp, rec: o.rec}
	}
	if st.notifier, err = notify.NewEngine(notify.Config{Workers: 8}, tcp); err != nil {
		return nil, err
	}
	st.broker = broker.New(engine, st.notifier)
	sample := 1
	if o.traceOff {
		sample = -1
	}
	if o.journalDir != "" {
		st.journal, err = journal.Open(journal.Config{Dir: o.journalDir, SegmentBytes: 8 << 20, Fsync: true, IndexEvery: 128})
		if err != nil {
			st.notifier.Close()
			return nil, err
		}
		st.broker.AttachJournal(st.journal)
	}
	if o.node != "" {
		var peers []string
		if o.peer != "" {
			peers = []string{o.peer}
		}
		st.node, err = overlay.NewNode(overlay.Config{Name: o.node, Listen: "127.0.0.1:0", Peers: peers, TraceSample: sample}, st.broker)
		if err == nil {
			err = st.node.Start()
		}
		if err != nil {
			st.close()
			return nil, err
		}
	} else {
		st.broker.SetTracer(trace.New(trace.Config{Broker: "replay", Sample: sample}))
	}
	st.web = webapp.NewServer(st.broker)
	return st, nil
}

// replaySink is the in-process notification sink of the replay.
type replaySink struct {
	*notify.TCPSink
	arrived chan time.Time
}

func newReplaySink() (*replaySink, error) {
	// Buffered past the largest fan-out of any workload, so the sink's
	// reader never waits for the replay loop.
	rs := &replaySink{arrived: make(chan time.Time, 4096)}
	var err error
	rs.TCPSink, err = notify.NewTCPSink("127.0.0.1:0", func(notify.Notification) { rs.arrived <- time.Now() })
	return rs, err
}

// await returns when n notifications have arrived, with the time of the
// last one.
func (rs *replaySink) await(n int) (time.Time, error) {
	var last time.Time
	timeout := time.After(deliveryTimeout)
	for i := 0; i < n; i++ {
		select {
		case last = <-rs.arrived:
		case <-timeout:
			return last, fmt.Errorf("replay: %d of %d notifications after %v", i, n, deliveryTimeout)
		}
	}
	return last, nil
}

// subscribeAll registers the clients living on the given server and
// subscribes their subscriptions on the stack.
func (sc *Scenario) subscribeAll(st *stack, server int, sink string, rec *recorder) error {
	for _, cl := range sc.Clients {
		if server >= 0 && cl.Server != server {
			continue
		}
		if err := st.broker.Register(broker.Client{Name: cl.Name, Route: notify.Route{Transport: "tcp", Addr: sink}}); err != nil {
			return err
		}
	}
	for _, sub := range sc.Subs {
		cl := sc.Clients[sub.Client]
		if server >= 0 && cl.Server != server {
			continue
		}
		preds, err := sublang.ParseSubscription(sub.Text)
		if err != nil {
			return err
		}
		i := rec.begin("broker.subscribe")
		if sc.Journal {
			_, err = st.broker.SubscribeDurable(cl.Name, preds)
		} else {
			_, err = st.broker.Subscribe(cl.Name, preds)
		}
		rec.end(i)
		if err != nil {
			return err
		}
	}
	return nil
}

// pass is one replay of the inputs through a freshly built pipeline.
type pass struct {
	name   string
	viaWeb bool // through webapp.ServeHTTP; otherwise Broker.Publish directly
	opts   stackOptions
	line   bool // three stacks b1—b2—b3 joined by overlay nodes over loopback
}

// passResult is what one pass measured per input, in microseconds.
type passResult struct {
	call    []float64 // the publish call itself
	deliver []float64 // publish call start → last notification decoded at the sink
	tail    []float64 // publish call end → last transport send done (decorated passes)
	sink    []float64 // last transport send done → last notification decoded at the sink
	engine  core.Stats
}

func (e *env) runPass(sc *Scenario, ont *ontology.Ontology, inputs []Event, p pass) (*passResult, error) {
	rec := p.opts.rec
	sink, err := newReplaySink()
	if err != nil {
		return nil, err
	}
	defer sink.Close()
	if sc.Journal {
		dir, err := os.MkdirTemp(e.tmp, "replay-journal-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		p.opts.journalDir = dir
	}
	rec.input(p.name, -1)

	// One stack holding everyone, or the line with each client on its
	// own broker.
	var stacks []*stack
	defer func() {
		for _, st := range stacks {
			st.close()
		}
	}()
	if !p.line {
		st, err := newStack(ont, p.opts)
		if err != nil {
			return nil, err
		}
		stacks = append(stacks, st)
		if err := sc.subscribeAll(st, -1, sink.Addr(), rec); err != nil {
			return nil, err
		}
	} else {
		peer := ""
		for i := 0; i < sc.Servers; i++ {
			o := p.opts
			o.node, o.peer = fmt.Sprintf("b%d", i+1), peer
			st, err := newStack(ont, o)
			if err != nil {
				return nil, err
			}
			stacks = append(stacks, st)
			peer = st.node.Addr()
			if err := sc.subscribeAll(st, i, sink.Addr(), nil); err != nil {
				return nil, err
			}
		}
		if err := lineReady(stacks, sink); err != nil {
			return nil, err
		}
	}
	entry := stacks[0]

	res := &passResult{}
	for k := range inputs {
		in := &inputs[k]
		ev, err := sublang.ParseEvent(in.Text)
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(publishReq{Event: in.Text})
		if err != nil {
			return nil, err
		}
		w := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/api/v1/publish", bytes.NewReader(body))
		rec.input(p.name, k)
		var i int
		start := time.Now()
		if p.viaWeb {
			i = rec.begin("webapp.publish")
			entry.web.ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				return nil, fmt.Errorf("replay: publish %q: status %d: %s", in.Text, w.Code, w.Body)
			}
		} else {
			i = rec.begin("broker.publish")
			if _, err := entry.broker.Publish(ev); err != nil {
				return nil, fmt.Errorf("replay: publish %q: %w", in.Text, err)
			}
		}
		end := time.Now()
		rec.end(i)
		last, err := sink.await(len(in.Expect))
		if err != nil {
			return nil, fmt.Errorf("%w (input %q)", err, in.Text)
		}
		res.call = append(res.call, us(end.Sub(start)))
		if len(in.Expect) > 0 {
			res.deliver = append(res.deliver, us(last.Sub(start)))
		}
		if i >= 0 {
			// The notifier's workers have handed every notification of
			// this input to the sink, so its send spans are all recorded.
			sent := rec.lastSendEnd(i)
			res.tail = append(res.tail, max(0, float64(sent-end.Sub(rec.t0).Nanoseconds())/1e3))
			if len(in.Expect) > 0 {
				res.sink = append(res.sink, max(0, float64(last.Sub(rec.t0).Nanoseconds()-sent)/1e3))
			}
		}
	}
	res.engine = entry.engine.Stats()
	return res, nil
}

// lastSendEnd is the end of the last notify.send span under the root, or
// the root's own start when it caused none.
func (r *recorder) lastSendEnd(root int) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	last := r.spans[root].Start
	for _, s := range r.spans[root+1:] {
		if s.Parent == root && s.Name == "notify.send" {
			last = max(last, s.End)
		}
	}
	return last
}

// lineReady waits until a subscription made last at the far broker is
// routable from the entry broker; see cluster.populate.
func lineReady(stacks []*stack, sink *replaySink) error {
	far := stacks[len(stacks)-1].broker
	if err := far.Register(broker.Client{Name: sentinelClient, Route: notify.Route{Transport: "tcp", Addr: sink.Addr()}}); err != nil {
		return err
	}
	if _, err := far.Subscribe(sentinelClient, []message.Predicate{message.Pred("bench-sentinel", message.OpEq, message.Int(1))}); err != nil {
		return err
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := stacks[0].broker.Publish(message.E("bench-sentinel", 1)); err != nil {
			return err
		}
		select {
		case <-sink.arrived:
			// Later probes may still be in flight; let them land so they
			// are not counted against the first input.
			for {
				select {
				case <-sink.arrived:
				case <-time.After(50 * time.Millisecond):
					return nil
				}
			}
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replay: line not routable after 10s")
		}
	}
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// timeEach runs f on 0..n-1 and returns each call's microseconds.
func timeEach(n int, f func(i int)) []float64 {
	out := make([]float64, n)
	for i := range out {
		start := time.Now()
		f(i)
		out[i] = us(time.Since(start))
	}
	return out
}

// isolated times the layers that are concrete types, alone, on the same
// inputs.
type isolated struct {
	parseEvent, parseSub    []float64
	expand, match           []float64
	add, remove             []float64
	journalAppend           []float64
	encode, decode          []float64
	dispatch, wait, send    []float64
	notificationsPerPublish float64
}

func (e *env) isolate(sc *Scenario, ont *ontology.Ontology, inputs []Event) (*isolated, error) {
	iso := &isolated{}
	events := make([]message.Event, len(inputs))
	var parseErr error
	iso.parseEvent = timeEach(len(inputs), func(i int) {
		ev, err := sublang.ParseEvent(inputs[i].Text)
		if err != nil {
			parseErr = err
		}
		events[i] = ev
	})
	nsubs := min(len(sc.Subs), len(inputs))
	iso.parseSub = timeEach(nsubs, func(i int) {
		if _, err := sublang.ParseSubscriptionSet(sc.Subs[i].Text); err != nil {
			parseErr = err
		}
	})
	if parseErr != nil {
		return nil, parseErr
	}

	// Index writes: a matcher holding the population in the form the
	// engine indexes, then the churn connection's subscriptions added to
	// it and removed again.
	stage := ont.Stage(semantic.FullConfig())
	m, err := matching.New("counting")
	if err != nil {
		return nil, err
	}
	canonical := func(id int, text string) (message.Subscription, error) {
		preds, err := sublang.ParseSubscription(text)
		if err != nil {
			return message.Subscription{}, err
		}
		sub, _ := stage.ProcessSubscription(message.NewSubscription(message.SubID(id), "", preds...))
		return sub, nil
	}
	for i, sub := range sc.Subs {
		canon, err := canonical(i+1, sub.Text)
		if err == nil {
			err = matching.Index(m, canon)
		}
		if err != nil {
			return nil, err
		}
	}
	for i := 0; i < min(len(sc.ChurnSubs), len(inputs)); i++ {
		canon, err := canonical(len(sc.Subs)+1+i, sc.ChurnSubs[i])
		if err != nil {
			return nil, err
		}
		start := time.Now()
		err = matching.Index(m, canon)
		iso.add = append(iso.add, us(time.Since(start)))
		if err != nil {
			return nil, err
		}
		start = time.Now()
		m.Remove(canon.ID)
		iso.remove = append(iso.remove, us(time.Since(start)))
	}

	if sc.Journal {
		dir, err := os.MkdirTemp(e.tmp, "isolated-journal-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		j, err := journal.Open(journal.Config{Dir: dir, SegmentBytes: 8 << 20, Fsync: true, IndexEvery: 128})
		if err != nil {
			return nil, err
		}
		var appendErr error
		iso.journalAppend = timeEach(len(events), func(i int) {
			if _, err := j.Append(events[i], false); err != nil {
				appendErr = err
			}
		})
		if err := j.Close(); err != nil && appendErr == nil {
			appendErr = err
		}
		if appendErr != nil {
			return nil, appendErr
		}
	}

	// The notifier alone: dispatch, queue, send over loopback TCP to an
	// in-process sink, one input's notifications at a time.
	sink, err := newReplaySink()
	if err != nil {
		return nil, err
	}
	defer sink.Close()
	// dispatched[seq] is when Dispatch was called for the notification
	// the notifier numbered seq. It is written before the call, and the
	// call's channel send orders it before the worker's read.
	total := 0
	for _, in := range inputs {
		total += len(in.Expect)
	}
	iso.notificationsPerPublish = float64(total) / float64(len(inputs))
	dispatched := make([]time.Time, total+1)
	var mu sync.Mutex
	tcp := timedTransport{Transport: notify.NewTCPTransport(0), sent: func(n notify.Notification, start, end time.Time) {
		mu.Lock()
		iso.wait = append(iso.wait, us(start.Sub(dispatched[n.Seq])))
		iso.send = append(iso.send, us(end.Sub(start)))
		mu.Unlock()
	}}
	eng, err := notify.NewEngine(notify.Config{Workers: 8}, tcp)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	if err := eng.SetRoute("subscriber", notify.Route{Transport: "tcp", Addr: sink.Addr()}); err != nil {
		return nil, err
	}
	seq := 0
	for k, in := range inputs {
		for _, sub := range in.Expect {
			n := notify.Notification{SubID: message.SubID(sub + 1), Subscriber: "subscriber", Event: events[k],
				Mode: "semantic", PubID: fmt.Sprintf("replay#0/%d", k+1)}
			start := time.Now()
			line, err := n.Encode()
			iso.encode = append(iso.encode, us(time.Since(start)))
			if err != nil {
				return nil, err
			}
			start = time.Now()
			_, err = notify.DecodeNotification(line)
			iso.decode = append(iso.decode, us(time.Since(start)))
			if err != nil {
				return nil, err
			}
			seq++
			dispatched[seq] = time.Now()
			err = eng.Dispatch(n)
			iso.dispatch = append(iso.dispatch, us(time.Since(dispatched[seq])))
			if err != nil {
				return nil, err
			}
		}
		if _, err := sink.await(len(in.Expect)); err != nil {
			return nil, err
		}
	}
	return iso, nil
}

// budgetRow is one line of the per-workload budget table.
type budgetRow struct {
	Layer string  `json:"layer"`
	What  string  `json:"what"`
	US    float64 `json:"us"`
}

// traceFile is trace-<workload>.json.
type traceFile struct {
	Workload string      `json:"workload"`
	Inputs   int         `json:"inputs"`
	Note     string      `json:"note"`
	Budget   []budgetRow `json:"budget"`
	Spans    []span      `json:"spans"`
}

// orZero is the median of xs, or 0 when the workload never exercised
// the layer (no journal, no overlay, no matches).
func orZero(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

// perLayer runs the replay and turns it, with the counters the servers
// exported during the run, into the per-layer metrics.
func (e *env) perLayer(s *sample, m measured) (measured, error) {
	sc := s.sc
	ont, err := sc.loadOntology()
	if err != nil {
		return nil, err
	}
	inputs := make([]Event, e.replay)
	first := int(s.phases.warm.Seconds() * float64(sc.Rate)) // the first paced input
	for i := range inputs {
		inputs[i] = sc.Events[(first+i)%len(sc.Events)]
	}

	rec := &recorder{t0: time.Now()}
	passes := []pass{
		{name: "web", viaWeb: true, opts: stackOptions{rec: rec}},
		{name: "broker", opts: stackOptions{rec: rec}},
		{name: "plain", opts: stackOptions{}},
		{name: "untraced", opts: stackOptions{traceOff: true}},
	}
	if sc.Servers > 1 {
		passes = append(passes, pass{name: "line", viaWeb: true, line: true, opts: stackOptions{}})
	}
	results := map[string]*passResult{}
	for _, p := range passes {
		if results[p.name], err = e.runPass(sc, ont, inputs, p); err != nil {
			return nil, fmt.Errorf("replay pass %s: %w", p.name, err)
		}
	}
	iso, err := e.isolate(sc, ont, inputs)
	if err != nil {
		return nil, fmt.Errorf("isolated timings: %w", err)
	}

	web, brk := results["web"], results["broker"]
	k := iso.notificationsPerPublish
	// Expansion and matching are read from the replayed engine's own
	// timers, the instruments the server's core.server_* figures come
	// from: timed alone in a loop they keep the index in the processor's
	// cache and come out up to 1.7× lower than inside the pipeline.
	events := float64(web.engine.Events)
	expandUS := us(web.engine.SemanticTime) / events
	matchUS := us(web.engine.MatchTime) / events

	// Times. A span metric is the median over the replayed inputs; the
	// three that are reconciled against the server's own sums (core,
	// semantic, matching) are means per publish, as the server's are.
	corePublish := rec.durations("web", "core.publish")
	m.set("webapp.publish_us", median(web.call), len(web.call))
	m.set("broker.publish_us", median(brk.call), len(brk.call))
	m.set("broker.subscribe_us", median(rec.durations("broker", "broker.subscribe")), len(sc.Subs))
	m.set("core.publish_us", mean(corePublish), len(corePublish))
	m.set("sublang.parse_event_us", median(iso.parseEvent), len(iso.parseEvent))
	m.set("sublang.parse_sub_us", median(iso.parseSub), len(iso.parseSub))
	m.set("semantic.expand_us", expandUS, int(events))
	m.set("matching.match_us", matchUS, int(events))
	m.set("matching.add_us", median(iso.add), len(iso.add))
	m.set("matching.remove_us", median(iso.remove), len(iso.remove))
	m.set("journal.append_us", orZero(iso.journalAppend), len(iso.journalAppend))
	m.set("notify.encode_us", orZero(iso.encode), len(iso.encode))
	m.set("notify.dispatch_us", orZero(iso.dispatch), len(iso.dispatch))
	m.set("notify.queue_wait_us", orZero(iso.wait), len(iso.wait))
	m.set("notify.send_us", orZero(iso.send), len(iso.send))
	m.set("notify.tail_us", median(web.tail), len(web.tail))
	m.set("loadgen.sink_decode_us", orZero(iso.decode), len(iso.decode))
	m.set("loadgen.span_overhead_us", median(brk.call)-median(results["plain"].call), len(brk.call))
	m.set("trace.publish_overhead_us", median(results["plain"].call)-median(results["untraced"].call), len(brk.call))
	hop := 0.0
	if line := results["line"]; line != nil {
		hop = (median(line.deliver) - median(web.deliver)) / float64(sc.Servers-1)
	}
	m.set("overlay.hop_us", hop, len(inputs))

	// Self time is a span less the spans it contains. What the handler
	// contains is known only as whole calls timed elsewhere, so the
	// subtraction is of medians and is floored at zero.
	brokerSelf := max(0, m["broker.publish_us"].Value-median(corePublish)-m["journal.append_us"].Value-k*m["notify.dispatch_us"].Value)
	webSelf := max(0, m["webapp.publish_us"].Value-m["sublang.parse_event_us"].Value-m["broker.publish_us"].Value)
	coreSelf := max(0, m["core.publish_us"].Value-expandUS-matchUS)
	m.set("broker.self_us", brokerSelf, len(brk.call))
	m.set("webapp.self_us", webSelf, len(web.call))
	m.set("core.self_us", coreSelf, len(corePublish))

	s.layerCounts(m)

	// The budget: the steps a publish waits for, in order, against the
	// delivery time the untraced run measured from outside.
	rows := []budgetRow{
		{"loadgen", "HTTP round trip on an idle server (http_rtt_us)", m["loadgen.http_rtt_us"].Value},
		{"webapp", "handler less parse and broker (self_us)", webSelf},
		{"sublang", "parse the event (parse_event_us)", m["sublang.parse_event_us"].Value},
		{"core", "engine publish: expansion, match, bookkeeping (median)", median(corePublish)},
		{"journal", "append and group commit (append_us)", m["journal.append_us"].Value},
		{"broker", "per-match loop less dispatch (self_us)", brokerSelf},
		{"notify", fmt.Sprintf("%.1f dispatches (dispatch_us each)", k), k * m["notify.dispatch_us"].Value},
		{"notify", "publish returned → last send done (tail_us)", m["notify.tail_us"].Value},
		{"overlay", fmt.Sprintf("%d hops over loopback (hop_us each)", sc.Servers-1), float64(sc.Servers-1) * hop},
		{"loadgen", fmt.Sprintf("last send done → decoded at the sink, %.1f decodes queued on one connection", k), orZero(web.sink)},
	}
	attributed := 0.0
	for _, r := range rows {
		attributed += r.US
	}
	deliver := m["deliver_p50_ms"].Value * 1000
	m.set("budget.attributed_us", attributed, 0)
	m.set("budget.unattributed_frac", 1-attributed/deliver, 0)
	rows = append(rows,
		budgetRow{"budget", "attributed (sum of the rows above)", attributed},
		budgetRow{"budget", "unattributed: deliver_p50 of the paced phase less attributed", deliver - attributed},
		budgetRow{"e2e", "deliver_p50_ms of the paced phase, untraced", deliver})
	fmt.Printf("\n   budget for %s, microseconds along the steps one publish waits for\n", sc.Name)
	for _, r := range rows {
		fmt.Printf("   %-8s %-62s %10.1f\n", r.Layer, r.What, r.US)
	}

	tf := traceFile{Workload: sc.Name, Inputs: len(inputs), Budget: rows, Spans: rec.spans,
		Note: "spans of the in-process replay; pass web = webapp.ServeHTTP on a decorated stack, pass broker = Broker.Publish on one; " +
			"self time of a span = its duration less its children's; start_ns/end_ns count from the start of the replay"}
	data, err := json.Marshal(tf)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(e.out, "trace-"+sc.Name+".json"), data, 0o644); err != nil {
		return nil, err
	}
	return m, nil
}
