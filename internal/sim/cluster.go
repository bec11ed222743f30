package sim

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"stopss/internal/broker"
	"stopss/internal/core"
	"stopss/internal/journal"
	"stopss/internal/knowledge"
	"stopss/internal/message"
	"stopss/internal/notify"
	"stopss/internal/overlay"
	"stopss/internal/semantic"
	"stopss/internal/store"
	"stopss/internal/trace"
)

// seqAttr carries the harness's per-publication sequence number inside
// each event, which is how deliveries are matched back to publications.
// Scenario subscriptions must not constrain it.
const seqAttr = "sim_seq"

// Broker is one simulated overlay participant: a real broker.Broker
// and overlay.Node wired over the in-process fabric, with a recording
// notification transport and a publication journal on disk.
type Broker struct {
	Name    string
	B       *broker.Broker
	Node    *overlay.Node
	NT      *notify.Engine
	KB      *knowledge.Base
	J       *journal.Journal
	ST      *store.Store // nil unless the cluster was built WithStore
	jdir    string
	snap    []byte // last SnapshotNow image; consumed by CrashRestart
	rec     *recorder
	crashed bool
}

// Sub is one scenario subscription, tracked so invariants can be
// checked against it later. Active is cleared by Cluster.Unsubscribe.
type Sub struct {
	BrokerIdx int
	Client    string
	ID        message.SubID
	Preds     []message.Predicate
	Active    bool
	Durable   bool
}

// Pub is one scenario publication together with the outcome expected
// of it, frozen at publish time: the set of then-active subscriptions
// that match the event AND whose broker was then reachable from the
// origin.
type Pub struct {
	Seq      int
	Origin   int
	Event    message.Event
	Expected map[*Sub]bool
	// ID is the publication's trace identity (name#epoch/seq) as minted
	// by the origin broker's tracer.
	ID string
	// faultSeq snapshots Cluster.faultSeq at publish time; trace
	// completeness is only asserted for publications whose delivery
	// window saw no fault (trace state is in-memory by design).
	faultSeq int
}

// Cluster wires N brokers over one Network and drives scenarios:
// topology construction, subscriptions, publications, fault injection,
// and invariant verification.
type Cluster struct {
	tb      testing.TB
	Net     *Network
	Brokers []*Broker

	jcfg  journal.Config  // template; Dir is per-broker
	scfg  *store.Config   // template; Path is per-broker; nil = no store
	edges map[[2]int]bool // configured topology
	live  map[[2]int]bool // edges currently connected

	subs []*Sub
	pubs []*Pub
	seq  int
	// faultSeq counts fault injections (crash, restart, partition,
	// offline subscriber). Publications that straddle a fault are exempt
	// from VerifyTraceComplete's full-chain requirement.
	faultSeq int
}

// Option tunes cluster construction.
type Option func(*Cluster)

// WithJournalConfig overrides the per-broker journal template (Dir is
// always assigned per broker). The default is a plain journal with
// small segments and no fsync — scenarios exercising retention or
// crash durability tighten it.
func WithJournalConfig(cfg journal.Config) Option {
	return func(c *Cluster) { c.jcfg = cfg }
}

// WithStore gives every broker a paged subscription store (Path is
// always assigned per broker), enabling Detach/Resume scenarios.
// Scenarios stressing eviction shrink PageSize/Pages in the template.
func WithStore(cfg store.Config) Option {
	return func(c *Cluster) { c.scfg = &cfg }
}

// NewCluster builds n brokers (named b00, b01, …) with started overlay
// nodes listening on the fabric and a publication journal each, but no
// links; callers wire a topology with Wire or Connect. Cleanup is
// registered on tb.
func NewCluster(tb testing.TB, n int, opts ...Option) *Cluster {
	tb.Helper()
	c := &Cluster{
		tb:    tb,
		Net:   NewNetwork(),
		jcfg:  journal.Config{SegmentBytes: 64 << 10},
		edges: make(map[[2]int]bool),
		live:  make(map[[2]int]bool),
	}
	for _, o := range opts {
		o(c)
	}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("b%02d", i)
		rec := newRecorder()
		nt, err := notify.NewEngine(notify.Config{Workers: 2, QueueSize: 1 << 16,
			MaxRetries: 2, Backoff: time.Millisecond}, rec)
		if err != nil {
			tb.Fatal(err)
		}
		base := knowledge.NewBase(nil, nil, nil)
		b := &Broker{
			Name: name,
			B: broker.New(core.NewEngine(base.Stage(semantic.FullConfig()),
				core.WithKnowledge(base)), nt),
			NT:   nt,
			KB:   base,
			jdir: filepath.Join(tb.TempDir(), name),
			rec:  rec,
		}
		jcfg := c.jcfg
		jcfg.Dir = b.jdir
		j, err := journal.Open(jcfg)
		if err != nil {
			tb.Fatal(err)
		}
		b.J = j
		b.B.AttachJournal(j)
		if c.scfg != nil {
			scfg := *c.scfg
			scfg.Path = filepath.Join(b.jdir, "subs.heap")
			st, err := store.Open(scfg)
			if err != nil {
				tb.Fatal(err)
			}
			b.ST = st
			if err := b.B.AttachStore(st); err != nil {
				tb.Fatal(err)
			}
		}
		c.startNode(b)
		c.Brokers = append(c.Brokers, b)
	}
	tb.Cleanup(func() {
		for _, b := range c.Brokers {
			if !b.crashed {
				b.Node.Close()
			}
			b.NT.Close()
			_ = b.J.Close()
			if b.ST != nil {
				_ = b.ST.Close()
			}
		}
	})
	return c
}

// startNode creates and starts a fresh overlay node for b (initial
// start and rejoin share this).
func (c *Cluster) startNode(b *Broker) {
	c.tb.Helper()
	node, err := overlay.NewNode(overlay.Config{
		Name:      b.Name,
		Listen:    b.Name, // fabric addresses are just names
		Transport: c.Net.Host(b.Name),
	}, b.B)
	if err != nil {
		c.tb.Fatal(err)
	}
	if err := node.Start(); err != nil {
		c.tb.Fatal(err)
	}
	b.Node = node
	b.crashed = false
	// Fresh stamping identity per incarnation, mirroring publication
	// epochs: a rejoined broker's new deltas can never collide with its
	// previous life's.
	b.B.SetKnowledgeOrigin(knowledge.NewOrigin(b.Name))
}

// Connect links brokers i and j (j dials i) and records the edge as
// part of the configured topology.
func (c *Cluster) Connect(i, j int) {
	c.tb.Helper()
	if err := c.Brokers[j].Node.Dial(c.Brokers[i].Name); err != nil {
		c.tb.Fatalf("sim: connecting %d-%d: %v", i, j, err)
	}
	e := edge(i, j)
	c.edges[e] = true
	c.live[e] = true
}

// Wire connects every edge of a topology and settles the cluster.
func (c *Cluster) Wire(edges [][2]int) {
	c.tb.Helper()
	for _, e := range edges {
		c.Connect(e[0], e[1])
	}
	c.Settle()
}

// Subscribe registers a fresh client on broker i with a recording
// route and subscribes it. The subscription is tracked for invariant
// checking.
func (c *Cluster) Subscribe(i int, preds ...message.Predicate) *Sub {
	c.tb.Helper()
	b := c.Brokers[i]
	client := fmt.Sprintf("%s-c%d", b.Name, len(c.subs))
	if err := b.B.Register(broker.Client{Name: client, Route: notify.Route{Transport: "sim", Addr: client}}); err != nil {
		c.tb.Fatal(err)
	}
	id, err := b.B.Subscribe(client, preds)
	if err != nil {
		c.tb.Fatal(err)
	}
	s := &Sub{BrokerIdx: i, Client: client, ID: id, Preds: preds, Active: true}
	c.subs = append(c.subs, s)
	return s
}

// SubscribeDurable is Subscribe with at-least-once, journal-backed
// delivery: the subscription's cursor advances only on acknowledged
// delivery and VerifyAtLeastOnce checks it for gaps instead of
// exactly-once.
func (c *Cluster) SubscribeDurable(i int, preds ...message.Predicate) *Sub {
	c.tb.Helper()
	b := c.Brokers[i]
	client := fmt.Sprintf("%s-c%d", b.Name, len(c.subs))
	if err := b.B.Register(broker.Client{Name: client, Route: notify.Route{Transport: "sim", Addr: client}}); err != nil {
		c.tb.Fatal(err)
	}
	id, err := b.B.SubscribeDurable(client, preds)
	if err != nil {
		c.tb.Fatal(err)
	}
	s := &Sub{BrokerIdx: i, Client: client, ID: id, Preds: preds, Active: true, Durable: true}
	c.subs = append(c.subs, s)
	return s
}

// SetSubscriberOffline simulates broker i's notification endpoints
// going away (or coming back): while offline every delivery attempt
// fails, so durable notifications exhaust retries and park.
func (c *Cluster) SetSubscriberOffline(i int, offline bool) {
	c.faultSeq++
	c.Brokers[i].rec.setOffline(offline)
}

// SnapshotNow captures broker i's durable state (what a periodic
// snapshotter would persist); CrashRestart consumes it. Subscriptions
// created after the snapshot do not survive a CrashRestart, so
// scenarios snapshot after their subscription setup.
func (c *Cluster) SnapshotNow(i int) {
	c.tb.Helper()
	var buf bytes.Buffer
	if err := c.Brokers[i].B.Snapshot(&buf); err != nil {
		c.tb.Fatal(err)
	}
	c.Brokers[i].snap = buf.Bytes()
}

// CrashRestart kills broker i's PROCESS — overlay node, notifier and
// broker object all go away, losing every in-memory delivery window —
// and boots a fresh incarnation from the SnapshotNow image plus the
// on-disk journal: restore, cursor merge, catch-up replay, then rejoin
// the overlay. This is the crash model behind the at-least-once
// guarantee; Crash/Rejoin model mere connectivity loss.
func (c *Cluster) CrashRestart(i int) {
	c.tb.Helper()
	b := c.Brokers[i]
	if b.snap == nil {
		c.tb.Fatalf("sim: CrashRestart(%d) needs SnapshotNow(%d) first", i, i)
	}
	c.faultSeq++
	if !b.crashed {
		b.Node.Close()
		b.crashed = true
		for e := range c.live {
			if e[0] == i || e[1] == i {
				delete(c.live, e)
			}
		}
	}
	c.Settle()
	b.NT.Close()
	if err := b.J.Close(); err != nil {
		c.tb.Fatal(err)
	}

	// Fresh incarnation: new notifier (same recording endpoint — the
	// subscriber side survives), new engine/KB, journal reopened from
	// the same directory, state restored from the snapshot.
	nt, err := notify.NewEngine(notify.Config{Workers: 2, QueueSize: 1 << 16,
		MaxRetries: 2, Backoff: time.Millisecond}, b.rec)
	if err != nil {
		c.tb.Fatal(err)
	}
	base := knowledge.NewBase(nil, nil, nil)
	br := broker.New(core.NewEngine(base.Stage(semantic.FullConfig()),
		core.WithKnowledge(base)), nt)
	jcfg := c.jcfg
	jcfg.Dir = b.jdir
	j, err := journal.Open(jcfg)
	if err != nil {
		c.tb.Fatal(err)
	}
	br.AttachJournal(j)
	if b.ST != nil {
		// The old store handle is abandoned unclosed — the crash loses
		// everything its pool had not checkpointed, by design. The new
		// incarnation recovers from the on-disk image (store before
		// Restore: restoreDurable's 3-way cursor merge needs it).
		scfg := *c.scfg
		scfg.Path = filepath.Join(b.jdir, "subs.heap")
		st, err := store.Open(scfg)
		if err != nil {
			c.tb.Fatalf("sim: reopening store of %s: %v", b.Name, err)
		}
		b.ST = st
		if err := br.AttachStore(st); err != nil {
			c.tb.Fatalf("sim: reattaching store of %s: %v", b.Name, err)
		}
	}
	if err := br.Restore(bytes.NewReader(b.snap)); err != nil {
		c.tb.Fatalf("sim: restoring %s: %v", b.Name, err)
	}
	b.B, b.NT, b.KB, b.J = br, nt, base, j
	if _, err := br.CatchUp(); err != nil {
		c.tb.Fatalf("sim: catch-up on %s: %v", b.Name, err)
	}

	c.startNode(b)
	for e := range c.edges {
		if e[0] != i && e[1] != i {
			continue
		}
		other := e[0] + e[1] - i
		if c.Brokers[other].crashed || c.Net.cut(b.Name, c.Brokers[other].Name) {
			continue
		}
		if err := b.Node.Dial(c.Brokers[other].Name); err != nil {
			c.tb.Fatalf("sim: restart dial %d-%d: %v", i, other, err)
		}
		c.live[edge(i, other)] = true
	}
	c.Settle()
}

// Unsubscribe withdraws a tracked subscription; publications after this
// point expect no delivery to it.
func (c *Cluster) Unsubscribe(s *Sub) {
	c.tb.Helper()
	if err := c.Brokers[s.BrokerIdx].B.Unsubscribe(s.Client, s.ID); err != nil {
		c.tb.Fatal(err)
	}
	s.Active = false
}

// Detach pages a durable subscription out to its broker's store
// (requires WithStore). The subscription stays Active for expectation
// purposes: publications while detached are journaled and owed, and
// must arrive after Resume — that is the at-least-once contract under
// paging. Counts as a fault for trace-completeness purposes (replayed
// deliveries rebuild no origin span chain).
func (c *Cluster) Detach(s *Sub) {
	c.tb.Helper()
	c.faultSeq++
	if err := c.Brokers[s.BrokerIdx].B.DetachDurable(s.Client, s.ID); err != nil {
		c.tb.Fatalf("sim: detaching %s/sub %d: %v", s.Client, s.ID, err)
	}
}

// Resume faults a detached subscription back in and replays what it
// missed. Call Settle afterwards before verifying.
func (c *Cluster) Resume(s *Sub) {
	c.tb.Helper()
	c.faultSeq++
	if _, err := c.Brokers[s.BrokerIdx].B.ResumeDurable(s.Client, s.ID); err != nil {
		c.tb.Fatalf("sim: resuming %s/sub %d: %v", s.Client, s.ID, err)
	}
}

// CheckpointStore flushes broker i's subscription store, making every
// detach so far crash-durable (detach durability is checkpoint-
// granular). Scenarios call this before CrashRestart when detached
// records must survive.
func (c *Cluster) CheckpointStore(i int) {
	c.tb.Helper()
	if err := c.Brokers[i].B.CheckpointStore(); err != nil {
		c.tb.Fatal(err)
	}
}

// Publish emits an event (attribute/value pairs as in message.E) from
// broker i, stamping it with a sequence attribute and freezing the
// expected delivery set: active matching subscriptions on brokers
// reachable from i over live links.
func (c *Cluster) Publish(i int, kv ...any) *Pub {
	c.tb.Helper()
	c.seq++
	ev := message.E(append(append([]any{}, kv...), seqAttr, c.seq)...)
	p := &Pub{Seq: c.seq, Origin: i, Event: ev, Expected: make(map[*Sub]bool), faultSeq: c.faultSeq}
	reach := c.reachable(i)
	for _, s := range c.subs {
		if s.Active && reach[s.BrokerIdx] && message.NewSubscription(s.ID, s.Client, s.Preds...).Matches(ev) {
			p.Expected[s] = true
		}
	}
	res, err := c.Brokers[i].B.Publish(ev)
	if err != nil {
		c.tb.Fatal(err)
	}
	p.ID = res.PubID
	c.pubs = append(c.pubs, p)
	return p
}

// PublishExpect emits an event from broker i with an explicitly frozen
// expected delivery set, for scenarios whose matching depends on
// semantic knowledge the harness's syntactic predicate check cannot
// model (synonym rewrites, hierarchy generalization). The caller names
// exactly the subscriptions that must be delivered once; every other
// tracked subscription must receive nothing.
func (c *Cluster) PublishExpect(i int, expected []*Sub, kv ...any) *Pub {
	c.tb.Helper()
	c.seq++
	ev := message.E(append(append([]any{}, kv...), seqAttr, c.seq)...)
	p := &Pub{Seq: c.seq, Origin: i, Event: ev, Expected: make(map[*Sub]bool), faultSeq: c.faultSeq}
	for _, s := range expected {
		p.Expected[s] = true
	}
	res, err := c.Brokers[i].B.Publish(ev)
	if err != nil {
		c.tb.Fatal(err)
	}
	p.ID = res.PubID
	c.pubs = append(c.pubs, p)
	return p
}

// InjectKB stamps (if needed) and applies a knowledge delta at broker
// i; the overlay floods it from there. Call Settle before asserting
// convergence.
func (c *Cluster) InjectKB(i int, d knowledge.Delta) core.KnowledgeReport {
	c.tb.Helper()
	rep, err := c.Brokers[i].B.InjectKnowledge(d)
	if err != nil {
		c.tb.Fatalf("sim: injecting delta at broker %d: %v", i, err)
	}
	return rep
}

// KBVersions snapshots every live broker's knowledge version, indexed
// like Brokers (crashed brokers report their last state too — the base
// survives node crashes).
func (c *Cluster) KBVersions() []knowledge.Version {
	out := make([]knowledge.Version, len(c.Brokers))
	for i, b := range c.Brokers {
		out[i] = b.KB.Version()
	}
	return out
}

// VerifyKBConverged asserts that every non-crashed broker holds the
// same knowledge version (same delta log, digest-equal) AND that each
// probe event saturates to the same pair set on every broker — the
// end-to-end "matching cannot diverge" check. Call after
// Settle.
func (c *Cluster) VerifyKBConverged(probes ...message.Event) {
	c.tb.Helper()
	ref := -1
	for i, b := range c.Brokers {
		if b.crashed {
			continue
		}
		if ref == -1 {
			ref = i
			continue
		}
		want, got := c.Brokers[ref].KB.Version(), b.KB.Version()
		if got.Digest != want.Digest || got.Deltas != want.Deltas || got.Rejected != want.Rejected {
			c.tb.Errorf("sim: KB diverged: %s has %+v, %s has %+v",
				c.Brokers[ref].Name, want, b.Name, got)
		}
	}
	if ref == -1 {
		return
	}
	for _, probe := range probes {
		want := saturation(c.Brokers[ref].B, probe)
		for i, b := range c.Brokers {
			if b.crashed || i == ref {
				continue
			}
			if got := saturation(b.B, probe); got != want {
				c.tb.Errorf("sim: probe %v saturates differently on %s and %s:\n  %s\n  %s",
					probe, c.Brokers[ref].Name, b.Name, want, got)
			}
		}
	}
}

// saturation runs one event through a broker's semantic stage and
// returns the order-insensitive signature of the saturated event.
func saturation(b *broker.Broker, ev message.Event) string {
	return b.Engine().Stage().ProcessEvent(ev).Event.Signature()
}

// Crash closes broker i's overlay node: every link drops, its listener
// closes, and peers detach. The broker itself (subscriptions, clients)
// survives, modelling a connectivity failure of one process.
func (c *Cluster) Crash(i int) {
	c.tb.Helper()
	c.faultSeq++
	b := c.Brokers[i]
	b.Node.Close()
	b.crashed = true
	for e := range c.live {
		if e[0] == i || e[1] == i {
			delete(c.live, e)
		}
	}
	c.Settle()
}

// Rejoin restarts broker i's overlay node on the same broker state and
// re-dials every configured edge whose far end is up and not
// partitioned away.
func (c *Cluster) Rejoin(i int) {
	c.tb.Helper()
	b := c.Brokers[i]
	if !b.crashed {
		c.tb.Fatalf("sim: broker %d is not crashed", i)
	}
	c.startNode(b)
	for e := range c.edges {
		if e[0] != i && e[1] != i {
			continue
		}
		other := e[0] + e[1] - i
		if c.Brokers[other].crashed || c.Net.cut(b.Name, c.Brokers[other].Name) {
			continue
		}
		if err := b.Node.Dial(c.Brokers[other].Name); err != nil {
			c.tb.Fatalf("sim: rejoin dial %d-%d: %v", i, other, err)
		}
		c.live[e] = true
	}
	c.Settle()
}

// Partition splits the cluster: the given brokers on one side,
// everyone else on the other. Links crossing the cut are severed and
// new dials across it fail until Heal.
func (c *Cluster) Partition(group ...int) {
	c.tb.Helper()
	c.faultSeq++
	side := make(map[string]bool)
	in := make(map[int]bool)
	for _, i := range group {
		in[i] = true
		side[c.Brokers[i].Name] = true
	}
	c.Net.SetLinkFilter(func(a, b string) bool { return side[a] != side[b] })
	for e := range c.live {
		if in[e[0]] != in[e[1]] {
			delete(c.live, e)
		}
	}
	c.Settle()
}

// Heal lifts the partition and re-dials every configured edge that is
// currently down between live brokers.
func (c *Cluster) Heal() {
	c.tb.Helper()
	c.Net.SetLinkFilter(nil)
	for e := range c.edges {
		if c.live[e] || c.Brokers[e[0]].crashed || c.Brokers[e[1]].crashed {
			continue
		}
		if err := c.Brokers[e[1]].Node.Dial(c.Brokers[e[0]].Name); err != nil {
			c.tb.Fatalf("sim: heal dial %d-%d: %v", e[0], e[1], err)
		}
		c.live[e] = true
	}
	c.Settle()
}

// Settle blocks until the overlay is quiescent — no bytes on any
// stream, every stream reader parked, no node holding unflushed frames,
// no live node still linked to a peer it lost — stably across several
// consecutive observations, then drains every notifier so delivery
// assertions see all notifications. Draining can itself create
// traffic: delivery hooks emit trace reports back toward each
// publication's origin, so the outer loop settles again until a drain
// pass leaves the network quiet. It never sleeps for effect; the
// deadline exists only to fail loudly instead of hanging if the overlay
// livelocks.
func (c *Cluster) Settle() {
	c.tb.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		c.waitQuiesced(deadline)
		for _, b := range c.Brokers {
			if !b.NT.Drain(10 * time.Second) {
				c.tb.Fatalf("sim: notifier of %s did not drain", b.Name)
			}
		}
		if c.quiesced() {
			return
		}
	}
}

// waitQuiesced spins until the network is stably quiet (three
// consecutive observations) or the deadline passes.
func (c *Cluster) waitQuiesced(deadline time.Time) {
	c.tb.Helper()
	misses := 0
	for quiet := 0; quiet < 3; {
		if time.Now().After(deadline) {
			c.tb.Fatal("sim: cluster did not quiesce within 30s")
		}
		if c.quiesced() {
			quiet++
		} else {
			quiet = 0
			if misses++; misses%256 == 0 {
				time.Sleep(time.Millisecond) // be kind to the scheduler on long settles
			}
		}
		runtime.Gosched()
	}
}

// quiesced reports one observation of a quiet overlay: no bytes in
// flight, no node holding unflushed frames, and no live broker still
// listing a peer it has no live edge to. The last condition waits out
// the detach of links cut by Crash or Partition: until the survivor
// notices, its old link holds the peer's name, and a Rejoin or Heal
// dial would be rejected as a second link with that name.
func (c *Cluster) quiesced() bool {
	if !c.Net.Quiet() {
		return false
	}
	for i, b := range c.Brokers {
		if b.crashed {
			continue
		}
		if b.Node.Pending() != 0 {
			return false
		}
		for _, peer := range b.Node.Peers() {
			if !c.live[edge(i, c.index(peer))] {
				return false
			}
		}
	}
	return true
}

// index returns the position of the broker named name.
func (c *Cluster) index(name string) int {
	for i, b := range c.Brokers {
		if b.Name == name {
			return i
		}
	}
	c.tb.Fatalf("sim: no broker named %q", name)
	return -1
}

// VerifyExactlyOnce asserts the end-to-end routing invariant over the
// whole scenario so far: every publication was delivered exactly once
// to each subscription in its expected set, and never to any other.
// Call after Settle.
func (c *Cluster) VerifyExactlyOnce() {
	c.tb.Helper()
	for _, p := range c.pubs {
		for _, s := range c.subs {
			want := 0
			if p.Expected[s] {
				want = 1
			}
			got := c.Brokers[s.BrokerIdx].rec.count(s.Client, s.ID, p.Seq)
			if got != want {
				c.tb.Errorf("pub %d (from %s): subscriber %s/sub %d on %s delivered %d times, want %d",
					p.Seq, c.Brokers[p.Origin].Name, s.Client, s.ID, c.Brokers[s.BrokerIdx].Name, got, want)
			}
		}
	}
}

// VerifyAtLeastOnce asserts the durable delivery invariant over the
// whole scenario so far: every publication reached each DURABLE
// subscription in its expected set at least once — gaps are fatal,
// duplicates are allowed and returned (the price of at-least-once) —
// and durable subscriptions outside the expected set received nothing.
// Non-durable subscriptions are not checked; use VerifyExactlyOnce in
// scenarios without faults. Call after Settle.
func (c *Cluster) VerifyAtLeastOnce() (duplicates int) {
	c.tb.Helper()
	for _, p := range c.pubs {
		for _, s := range c.subs {
			if !s.Durable {
				continue
			}
			got := c.Brokers[s.BrokerIdx].rec.count(s.Client, s.ID, p.Seq)
			if p.Expected[s] {
				if got == 0 {
					c.tb.Errorf("pub %d (from %s): durable subscriber %s/sub %d on %s NEVER delivered (gap)",
						p.Seq, c.Brokers[p.Origin].Name, s.Client, s.ID, c.Brokers[s.BrokerIdx].Name)
				}
				duplicates += got - 1
			} else if got != 0 {
				c.tb.Errorf("pub %d (from %s): durable subscriber %s/sub %d on %s delivered %d times, want 0",
					p.Seq, c.Brokers[p.Origin].Name, s.Client, s.ID, c.Brokers[s.BrokerIdx].Name, got)
			}
		}
	}
	return duplicates
}

// VerifyTraceComplete asserts the observability invariant (DESIGN §10)
// for every publication whose delivery window was fault-free: the
// ORIGIN broker's tracer must hold the full span chain — publish,
// journal_append and match at the origin, a match and recv span from
// every remote broker expected to deliver, a forward span launching
// the publication into the overlay when remote delivery was expected,
// and one deliver span per expected subscription (reported back along
// the reverse forwarding path) — and each span once: a span crosses
// each link of the reverse path once, so a repeated (Broker, Seq) is a
// re-send. Publications straddling a fault injection are skipped:
// trace state is deliberately in-memory and dies with its process.
// Returns how many publications were checked strictly and how many
// were exempted. Call after Settle.
func (c *Cluster) VerifyTraceComplete() (checked, skipped int) {
	c.tb.Helper()
	for _, p := range c.pubs {
		if p.ID == "" || p.faultSeq != c.faultSeq {
			skipped++
			continue
		}
		checked++
		origin := c.Brokers[p.Origin]
		spans := origin.B.Tracer().Spans(p.ID)
		if len(spans) == 0 {
			c.tb.Errorf("pub %d (%s): origin %s holds no trace", p.Seq, p.ID, origin.Name)
			continue
		}
		type kb struct{ kind, broker string }
		have := make(map[kb]bool, len(spans))
		type del struct {
			client string
			id     message.SubID
		}
		delivered := make(map[del]bool)
		type ident struct {
			broker string
			seq    uint64
		}
		ids := make(map[ident]bool, len(spans))
		forwards := 0
		for _, s := range spans {
			id := ident{s.Broker, s.Seq}
			if ids[id] {
				c.tb.Errorf("pub %d (%s): origin %s holds span %s#%d (%s) twice",
					p.Seq, p.ID, origin.Name, s.Broker, s.Seq, s.Kind)
			}
			ids[id] = true
			have[kb{s.Kind, s.Broker}] = true
			switch s.Kind {
			case trace.KindDeliver:
				delivered[del{s.Sub, message.SubID(s.SubID)}] = true
			case trace.KindForward:
				forwards++
			}
		}
		for _, kind := range []string{trace.KindPublish, trace.KindJournal, trace.KindMatch} {
			if !have[kb{kind, origin.Name}] {
				c.tb.Errorf("pub %d (%s): origin %s trace lacks a %s span (have %v)",
					p.Seq, p.ID, origin.Name, kind, spans)
			}
		}
		remote := false
		for s := range p.Expected {
			if !delivered[del{s.Client, s.ID}] {
				c.tb.Errorf("pub %d (%s): no deliver span for %s/sub %d on %s",
					p.Seq, p.ID, s.Client, s.ID, c.Brokers[s.BrokerIdx].Name)
			}
			if s.BrokerIdx == p.Origin {
				continue
			}
			remote = true
			name := c.Brokers[s.BrokerIdx].Name
			for _, kind := range []string{trace.KindRecv, trace.KindMatch} {
				if !have[kb{kind, name}] {
					c.tb.Errorf("pub %d (%s): delivering broker %s contributed no %s span",
						p.Seq, p.ID, name, kind)
				}
			}
		}
		if remote && forwards == 0 {
			c.tb.Errorf("pub %d (%s): remote delivery expected but the trace has no forward span", p.Seq, p.ID)
		}
	}
	return checked, skipped
}

// reachable returns the set of broker indexes reachable from origin
// over live links (always including origin: local delivery needs no
// overlay).
func (c *Cluster) reachable(origin int) map[int]bool {
	adj := make(map[int][]int)
	for e := range c.live {
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	seen := map[int]bool{origin: true}
	queue := []int{origin}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, next := range adj[cur] {
			if !seen[next] {
				seen[next] = true
				queue = append(queue, next)
			}
		}
	}
	return seen
}

func edge(i, j int) [2]int {
	if i > j {
		i, j = j, i
	}
	return [2]int{i, j}
}

// recorder is the notification transport of simulated brokers: it
// counts deliveries keyed by subscriber, subscription and publication
// sequence. It can be switched offline to model subscriber endpoints
// going away (deliveries fail until it returns).
type recorder struct {
	mu      sync.Mutex
	counts  map[deliveryKey]int
	offline bool
}

type deliveryKey struct {
	subscriber string
	id         message.SubID
	seq        int
}

func newRecorder() *recorder {
	return &recorder{counts: make(map[deliveryKey]int)}
}

func (r *recorder) Name() string { return "sim" }

func (r *recorder) Send(_ string, n notify.Notification) error {
	seq := -1
	if v, ok := n.Event.Get(seqAttr); ok {
		seq = int(v.IntVal())
	}
	r.mu.Lock()
	if r.offline {
		r.mu.Unlock()
		return errEndpointOffline
	}
	r.counts[deliveryKey{n.Subscriber, n.SubID, seq}]++
	r.mu.Unlock()
	return nil
}

var errEndpointOffline = errors.New("sim: subscriber endpoint offline")

func (r *recorder) setOffline(v bool) {
	r.mu.Lock()
	r.offline = v
	r.mu.Unlock()
}

func (r *recorder) Close() error { return nil }

func (r *recorder) count(subscriber string, id message.SubID, seq int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counts[deliveryKey{subscriber, id, seq}]
}
