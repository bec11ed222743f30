package overlay

import (
	"fmt"
	"sync"
	"time"

	"stopss/internal/broker"
	"stopss/internal/core"
	"stopss/internal/knowledge"
	"stopss/internal/message"
	"stopss/internal/metrics"
	"stopss/internal/trace"
)

// Config describes one overlay node.
type Config struct {
	// Name is the node's overlay-wide identity; it must be unique among
	// connected brokers (it keys hop lists and routing state).
	Name string
	// Listen is the TCP address to accept peer links on; empty means
	// the node only dials out.
	Listen string
	// Peers are addresses dialed at Start. A dial is retried briefly so
	// a fleet can start in any order.
	Peers []string
	// Transport supplies connections; nil means TCP() — real sockets.
	// Simulation harnesses (internal/sim) inject in-process transports
	// here to run large topologies and fault scenarios deterministically.
	Transport Transport
	// Registry receives the overlay counters; nil allocates a private
	// one (see Node.Registry).
	Registry *metrics.Registry
	// TraceSample is the tracer's head-based sampling rate: keep 1 in
	// TraceSample publications. 0 defaults to 1 (trace everything);
	// negative disables tracing (see trace.Config.Sample).
	TraceSample int
	// TraceCapacity bounds the tracer's in-memory ring of recent traces
	// (0 = trace package default, 1024).
	TraceCapacity int
	// OpsInterval, when positive, refreshes the node's health summary
	// into the ops gossip at this period (ops.go). Zero disables the
	// ticker — summaries still flow on every link establishment, which
	// keeps the clock-free simulation harness quiescence-detectable.
	OpsInterval time.Duration
	// OpsStaleAfter is the age past which a gossiped peer summary is
	// flagged stale in ClusterView (0 = 30s default).
	OpsStaleAfter time.Duration
	// Logf, when set, receives one line per link event.
	Logf func(format string, args ...any)
}

// Node connects a local broker into the overlay. It implements
// broker.Forwarder: the broker reports local activity, the node routes
// it to peers, and frames arriving from peers are applied back onto the
// broker (DeliverRemote) or propagated onward.
type Node struct {
	cfg       Config
	b         *broker.Broker
	reg       *metrics.Registry
	transport Transport

	ln Listener
	wg sync.WaitGroup

	mu     sync.Mutex
	links  []*link
	closed bool

	// Publication duplicate suppression: origin-scoped IDs in a bounded
	// FIFO set (cycles in the peer graph can deliver a publication on
	// several paths).
	seen  map[string]bool
	seenQ []string

	// Cluster introspection gossip (ops.go): the per-incarnation epoch
	// and sequence identifying this node's own summaries, and the
	// eventually-consistent view of every broker's last summary.
	opsEpoch string
	opsSeq   uint64
	opsView  map[string]*opsEntry
	opsStop  chan struct{}

	// trc is the tracer NewNode installs on the broker: it mints the
	// node-named publication IDs (`name#epoch/seq`; the per-incarnation
	// epoch keeps a restarted broker's fresh IDs out of peers' stale
	// dedup windows — found by the internal/sim crash/rejoin scenario)
	// and records the span chain tracing each publication's journey.
	trc *trace.Tracer

	subsForwarded, subsPruned, subsReissued  *metrics.Counter
	pubsForwarded, pubsReceived, pubsDeduped *metrics.Counter
	kbForwarded, kbReceived, kbDeduped       *metrics.Counter
	opsForwarded, opsReceived                *metrics.Counter
	framesOversized                          *metrics.Counter
	kbDeltas                                 *metrics.Gauge
}

// seenCap bounds the duplicate-suppression window.
const seenCap = 8192

// NewNode wires a node onto a broker (installing itself as the broker's
// Forwarder and remote-stats source) but opens no connections until
// Start.
func NewNode(cfg Config, b *broker.Broker) (*Node, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("overlay: node needs a name")
	}
	if len(cfg.Name) > maxNodeName {
		return nil, fmt.Errorf("overlay: node name of %d bytes exceeds %d", len(cfg.Name), maxNodeName)
	}
	reg := cfg.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	tr := cfg.Transport
	if tr == nil {
		tr = TCP()
	}
	n := &Node{
		cfg:       cfg,
		b:         b,
		reg:       reg,
		transport: tr,
		seen:      make(map[string]bool),
		opsEpoch:  newOpsEpoch(),
		opsView:   make(map[string]*opsEntry),
		opsStop:   make(chan struct{}),

		subsForwarded:   reg.Counter("overlay.subs_forwarded"),
		subsPruned:      reg.Counter("overlay.subs_pruned"),
		subsReissued:    reg.Counter("overlay.subs_reissued"),
		pubsForwarded:   reg.Counter("overlay.pubs_forwarded"),
		pubsReceived:    reg.Counter("overlay.pubs_received"),
		pubsDeduped:     reg.Counter("overlay.pubs_deduped"),
		kbForwarded:     reg.Counter("overlay.kb_forwarded"),
		kbReceived:      reg.Counter("overlay.kb_received"),
		kbDeduped:       reg.Counter("overlay.kb_deduped"),
		opsForwarded:    reg.Counter("overlay.ops_forwarded"),
		opsReceived:     reg.Counter("overlay.ops_received"),
		framesOversized: reg.Counter("overlay.frames_oversized"),
		kbDeltas:        reg.Gauge("overlay.kb_deltas"),
	}
	// The node owns the broker's tracer: publication IDs must carry the
	// node's overlay name (peers dedup and trace by them), and the
	// tracer's reporter needs the links to send trace reports upstream.
	n.trc = trace.New(trace.Config{
		Broker:   cfg.Name,
		Sample:   cfg.TraceSample,
		Capacity: cfg.TraceCapacity,
		Registry: reg,
	})
	n.trc.SetReporter(n.sendTraceReport)
	b.SetTracer(n.trc)
	b.SetForwarder(n)
	b.SetRemoteStatsSource(n.remoteStats)
	return n, nil
}

// Tracer exposes the node's publication tracer (shared with the
// broker).
func (n *Node) Tracer() *trace.Tracer { return n.trc }

// Registry exposes the node's metrics registry.
func (n *Node) Registry() *metrics.Registry { return n.reg }

// Name reports the node's overlay identity.
func (n *Node) Name() string { return n.cfg.Name }

// Addr reports the listen address ("" when not listening), usable by
// peers once Start has returned.
func (n *Node) Addr() string {
	if n.ln == nil {
		return ""
	}
	return n.ln.Addr()
}

// Start opens the listener (when configured) and dials every configured
// peer, synchronizing current broker state onto each link.
func (n *Node) Start() error {
	if n.cfg.Listen != "" {
		ln, err := n.transport.Listen(n.cfg.Listen)
		if err != nil {
			return fmt.Errorf("overlay: listen %s: %w", n.cfg.Listen, err)
		}
		n.ln = ln
		n.wg.Add(1)
		go n.acceptLoop(ln)
	}
	for _, addr := range n.cfg.Peers {
		if err := n.Dial(addr); err != nil {
			n.Close()
			return err
		}
	}
	if n.cfg.OpsInterval > 0 {
		n.wg.Add(1)
		go n.opsLoop(n.cfg.OpsInterval)
	}
	return nil
}

// Dial connects to a peer broker, retrying briefly so fleets can start
// in any order.
func (n *Node) Dial(addr string) error {
	var conn Conn
	var err error
	for attempt := 0; attempt < 20; attempt++ {
		conn, err = n.transport.Dial(addr, handshakeTimeout)
		if err == nil {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if err != nil {
		return fmt.Errorf("overlay: dialing peer %s: %w", addr, err)
	}
	return n.attach(conn)
}

func (n *Node) acceptLoop(ln Listener) {
	defer n.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		// Handshake per connection in its own goroutine: one slow or
		// silent dialer must not stall every other incoming peer for
		// the handshake timeout.
		go func(conn Conn) {
			if err := n.attach(conn); err != nil {
				n.logf("overlay %s: %v", n.cfg.Name, err)
			}
		}(conn)
	}
}

// attach performs the hello exchange, registers the link, synchronizes
// the node's current routing state onto it, and starts its read loop.
func (n *Node) attach(conn Conn) error {
	l, err := newLink(conn, n.cfg.Name)
	if err != nil {
		return err
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		l.close()
		return fmt.Errorf("overlay: node closed")
	}
	for _, existing := range n.links {
		if existing.peer == l.peer {
			n.mu.Unlock()
			l.close()
			return fmt.Errorf("overlay: rejecting second link named %q from %s (names must be overlay-unique)",
				l.peer, conn.RemoteAddr())
		}
	}
	l.sent = n.reg.Counter("overlay.link." + l.peer + ".frames_sent")
	l.recv = n.reg.Counter("overlay.link." + l.peer + ".frames_recv")
	l.qwait = n.reg.Histogram("overlay.link." + l.peer + ".queue_wait")
	l.oversized = n.framesOversized
	l.logf = n.cfg.Logf
	n.links = append(n.links, l)
	n.wg.Add(1)
	go l.writer(&n.wg)
	n.syncLink(l)
	n.mu.Unlock()
	n.logf("overlay %s: link established with %s (%s)", n.cfg.Name, l.peer, conn.RemoteAddr())

	n.wg.Add(1)
	go n.readLoop(l)
	// Flood a fresh health summary now that the topology changed — the
	// event-driven emission that keeps the gossip current (and the sim's
	// clock-free Settle converging) without any ticker.
	n.PublishOps()
	return nil
}

// syncLink pushes every known subscription and applied knowledge delta
// to a fresh link: local broker state plus entries learned from other
// links. The knowledge-log replay is what lets a healed partition or a
// restarted broker catch up — receivers fold the deltas through
// ordinary duplicate-suppressed application, so replay is idempotent.
// Callers hold n.mu.
func (n *Node) syncLink(l *link) {
	for _, d := range n.b.KnowledgeLog() {
		d := d
		if l.send(Frame{Type: frameKB, Origin: d.Origin, KB: &d, Hops: []string{n.cfg.Name}}) == nil {
			n.kbForwarded.Inc()
		}
	}
	for _, sub := range n.b.Subscriptions() {
		rid := routeID{Origin: n.cfg.Name, ID: sub.ID}
		n.offerSub(l, rid, routeEntry{raw: sub, canon: n.canonicalize(sub), hops: []string{n.cfg.Name}})
	}
	// Detached durable subscriptions are paged out of the engine but
	// their delivery obligation survives (DESIGN §11): after a broker
	// restart the link re-sync must re-forward them too, or remote
	// publications stop flowing here until the subscriber resumes.
	for _, sub := range n.b.DetachedSubscriptions() {
		rid := routeID{Origin: n.cfg.Name, ID: sub.ID}
		n.offerSub(l, rid, routeEntry{raw: sub, canon: n.canonicalize(sub), hops: []string{n.cfg.Name}})
	}
	for _, other := range n.links {
		if other == l {
			continue
		}
		for rid, e := range other.interests {
			fwd := routeEntry{raw: e.raw, canon: e.canon, hops: appendHop(e.hops, n.cfg.Name)}
			if visited(fwd.hops, l.peer) {
				continue
			}
			n.offerSub(l, rid, fwd)
		}
	}
	n.syncOps(l)
}

// readLoop pumps frames off one link until it fails, then detaches it.
func (n *Node) readLoop(l *link) {
	defer n.wg.Done()
	for {
		f, err := readFrameBinary(l.br, &l.rbuf, l.rdict)
		if err != nil {
			n.detach(l)
			return
		}
		l.recv.Inc()
		n.handleFrame(l, f)
	}
}

// detach removes a failed link. Its interests are dropped; a production
// deployment would additionally withdraw them from other peers, which
// is future work recorded in DESIGN.md.
func (n *Node) detach(l *link) {
	l.close()
	n.mu.Lock()
	for i, x := range n.links {
		if x == l {
			n.links = append(n.links[:i], n.links[i+1:]...)
			break
		}
	}
	// A direct link failing is the one deterministic down signal the
	// gossip has; the flag clears when a fresh summary arrives.
	n.markPeerDown(l.peer)
	closed := n.closed
	n.mu.Unlock()
	if !closed {
		n.logf("overlay %s: link to %s closed", n.cfg.Name, l.peer)
	}
}

// Close tears down the listener and every link and unhooks the broker.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	links := append([]*link(nil), n.links...)
	n.mu.Unlock()

	close(n.opsStop)

	n.b.SetForwarder(nil)
	n.b.SetRemoteStatsSource(nil)
	if n.ln != nil {
		n.ln.Close()
	}
	for _, l := range links {
		l.close()
	}
	n.wg.Wait()
	return nil
}

// Pending reports the number of outbound frames this node has accepted
// for transmission but not yet fully serialized onto a connection
// (queued on a link or sitting in a writer's flush batch). Simulation
// harnesses combine it with transport-level idleness to detect overlay
// quiescence without wall-clock waits; production code has no use for
// it.
func (n *Node) Pending() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	total := int64(0)
	for _, l := range n.links {
		select {
		case <-l.done:
			// A closed link still registered here awaits its detach: its
			// peer slot is not yet reusable, so quiescence must not be
			// declared (a harness could otherwise re-dial and be rejected
			// as a duplicate peer name). Its inflight count, however, is
			// dead weight and must NOT be included: send can win the race
			// against close (done-check, then enqueue) and strand a
			// counted frame in a queue no writer will ever drain — the
			// stranded count would wedge quiescence forever.
			total++
		default:
			total += l.inflight.Load()
		}
	}
	return int(total)
}

// Peers lists the names of currently connected peers.
func (n *Node) Peers() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]string, len(n.links))
	for i, l := range n.links {
		out[i] = l.peer
	}
	return out
}

// --- broker.Forwarder ---

// SubscriptionChanged implements broker.Forwarder for local
// subscriptions.
func (n *Node) SubscriptionChanged(sub message.Subscription, added bool) {
	rid := routeID{Origin: n.cfg.Name, ID: sub.ID}
	n.mu.Lock()
	defer n.mu.Unlock()
	if added {
		e := routeEntry{raw: sub, canon: n.canonicalize(sub), hops: []string{n.cfg.Name}}
		for _, l := range n.links {
			n.offerSub(l, rid, e)
		}
		return
	}
	n.withdrawSub(rid, []string{n.cfg.Name}, nil)
}

// PublicationAccepted implements broker.Forwarder for local
// publications. The broker's tracer (which this node installed) minted
// pubID, so it already carries this node's name and incarnation epoch.
func (n *Node) PublicationAccepted(ev message.Event, pubID string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.markSeen(pubID)
	n.routePub(ev, pubID, []string{n.cfg.Name}, nil)
}

// KnowledgeChanged implements broker.Forwarder for locally injected
// knowledge deltas: the delta (already applied to the local base) is
// flooded to every peer, and — when it actually changed the semantic
// structures — the node's routing state is re-canonicalized under the
// new knowledge.
func (n *Node) KnowledgeChanged(d knowledge.Delta, rep core.KnowledgeReport) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.markSeen("kb|" + d.ID())
	n.routeKB(d, []string{n.cfg.Name}, nil)
	if set := affectedTerms(rep); set != nil {
		n.reindexRouting(set)
	}
	n.kbDeltas.Set(int64(rep.Version.Deltas))
}

// affectedTerms returns the changed-canonical-term set of an applied
// delta, or nil when routing state cannot have changed: subscriptions
// pass only the synonym stage, and the base reports exactly the terms
// whose canonical form changed — even across a suffix refold, where the
// old and new synonym tables are diffed. So concept/is-a/mapping deltas
// (empty set) never trigger the O(links × subscriptions) reindexing
// sweep, and synonym deltas re-canonicalize only entries mentioning one
// of the changed terms.
func affectedTerms(rep core.KnowledgeReport) map[string]bool {
	if !rep.Changed || len(rep.Affected) == 0 {
		return nil
	}
	set := make(map[string]bool, len(rep.Affected))
	for _, t := range rep.Affected {
		set[t] = true
	}
	return set
}

// --- frame handling ---

func (n *Node) handleFrame(l *link, f Frame) {
	switch f.Type {
	case frameSub:
		if f.Sub == nil || f.Origin == "" || f.Origin == n.cfg.Name || visited(f.Hops, n.cfg.Name) {
			return
		}
		rid := routeID{Origin: f.Origin, ID: f.Sub.ID}
		e := routeEntry{raw: *f.Sub, canon: n.canonicalize(*f.Sub), hops: f.Hops}
		n.mu.Lock()
		l.interests[rid] = e
		fwd := routeEntry{raw: e.raw, canon: e.canon, hops: appendHop(f.Hops, n.cfg.Name)}
		for _, other := range n.links {
			if other == l || visited(fwd.hops, other.peer) {
				continue
			}
			n.offerSub(other, rid, fwd)
		}
		n.mu.Unlock()

	case frameUnsub:
		if f.Origin == "" || f.Origin == n.cfg.Name || visited(f.Hops, n.cfg.Name) {
			return
		}
		rid := routeID{Origin: f.Origin, ID: f.SubID}
		n.mu.Lock()
		delete(l.interests, rid)
		n.withdrawSub(rid, appendHop(f.Hops, n.cfg.Name), l)
		n.mu.Unlock()

	case frameKB:
		if f.KB == nil || visited(f.Hops, n.cfg.Name) {
			return
		}
		id := "kb|" + f.KB.ID()
		n.mu.Lock()
		if n.seen[id] {
			n.kbDeduped.Inc()
			n.mu.Unlock()
			return
		}
		n.markSeen(id)
		n.mu.Unlock()

		// Application runs outside n.mu: it takes engine and base locks
		// and must not nest under routing state.
		rep, err := n.b.DeliverRemoteKnowledge(*f.KB)
		n.kbReceived.Inc()
		if err != nil {
			// Forward anyway: a broker that cannot apply the delta
			// (no knowledge base bound) must not sever the flood for
			// the federation behind it — every broker needs every
			// delta, or digests diverge permanently. Hop lists and the
			// seen window still bound the traffic; only the
			// newly-applied backstop is unavailable here.
			n.logf("overlay %s: remote knowledge delta rejected: %v", n.cfg.Name, err)
			n.mu.Lock()
			n.routeKB(*f.KB, appendHop(f.Hops, n.cfg.Name), l)
			n.mu.Unlock()
			return
		}
		if !rep.Applied {
			// The base had it already (seen-window eviction or snapshot
			// restore); whoever applied it first propagated it.
			n.kbDeduped.Inc()
			return
		}
		n.mu.Lock()
		n.routeKB(*f.KB, appendHop(f.Hops, n.cfg.Name), l)
		if set := affectedTerms(rep); set != nil {
			n.reindexRouting(set)
		}
		n.kbDeltas.Set(int64(rep.Version.Deltas))
		n.mu.Unlock()

	case framePub:
		if f.Event == nil || f.PubID == "" || visited(f.Hops, n.cfg.Name) {
			return
		}
		n.mu.Lock()
		if n.seen[f.PubID] {
			n.pubsDeduped.Inc()
			n.mu.Unlock()
			return
		}
		n.markSeen(f.PubID)
		n.mu.Unlock()

		n.pubsReceived.Inc()
		// Inherit the origin's sampling decision: spans on the frame
		// mean the publication is traced.
		n.trc.StampRemote(f.PubID, l.peer, f.Trace, time.Now())
		// Local delivery runs outside n.mu: it takes broker and engine
		// locks and must not nest under routing state.
		if _, err := n.b.DeliverRemotePub(*f.Event, f.PubID); err != nil {
			n.logf("overlay %s: remote publication rejected: %v", n.cfg.Name, err)
		}
		n.mu.Lock()
		n.routePub(*f.Event, f.PubID, appendHop(f.Hops, n.cfg.Name), l)
		n.mu.Unlock()

	case frameOps:
		if f.Ops == nil {
			return
		}
		n.handleOps(l, f)

	case frameTrace:
		if f.PubID == "" || len(f.Trace) == 0 {
			return
		}
		// Fold the downstream broker's new spans into ours; the tracer
		// passes them on upstream unless we are the origin.
		n.trc.Merge(f.PubID, f.Trace)
	}
}

// sendTraceReport is the tracer's Reporter: it sends a trace frame to
// the named peer, if a link to it is up (trace reports are best-effort
// diagnostics: a torn link loses the report, never the delivery). Runs
// on notify worker and link reader goroutines — send only enqueues.
func (n *Node) sendTraceReport(pubID, peer string, spans []trace.Span) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, l := range n.links {
		if l.peer == peer {
			l.send(Frame{Type: frameTrace, PubID: pubID, Trace: spans})
			return
		}
	}
}

// --- routing helpers (callers hold n.mu) ---

// offerSub runs one subscription through the link's cover table and
// sends it when the table does not prune it.
func (n *Node) offerSub(l *link, rid routeID, e routeEntry) {
	if !l.out.add(rid, e) {
		n.subsPruned.Inc()
		return
	}
	raw := e.raw.Clone()
	if err := l.send(Frame{Type: frameSub, Origin: rid.Origin, Sub: &raw, Hops: e.hops}); err != nil {
		return
	}
	n.subsForwarded.Inc()
}

// withdrawSub removes rid from every link's cover table (except from,
// the link the withdrawal arrived on), sending unsubs for entries the
// peers had seen and re-forwarding entries the removal uncovered.
func (n *Node) withdrawSub(rid routeID, hops []string, from *link) {
	for _, l := range n.links {
		if l == from || visited(hops, l.peer) {
			continue
		}
		wasForwarded, reissue := l.out.remove(rid)
		if wasForwarded {
			l.send(Frame{Type: frameUnsub, Origin: rid.Origin, SubID: rid.ID, Hops: hops})
		}
		for _, rs := range reissue {
			raw := rs.e.raw.Clone()
			if err := l.send(Frame{Type: frameSub, Origin: rs.id.Origin, Sub: &raw, Hops: rs.e.hops}); err != nil {
				continue
			}
			n.subsReissued.Inc()
		}
	}
}

// routePub forwards a publication along every link with a matching
// recorded interest, excluding the arrival link and visited peers.
// Traced publications carry this node's accumulated span set on the
// frame (the receiving hop inherits the sampling decision from its
// presence), with a forward span recorded per link first.
func (n *Node) routePub(ev message.Event, pubID string, hops []string, from *link) {
	var routed *message.Event // the saturated event, computed on first need
	// evShared is one defensive clone of the event, made lazily and
	// shared by every forwarded frame: link writers only READ the frame
	// while encoding it, so the per-link copies this used to make were
	// pure allocation overhead (the hop list is shared the same way).
	var evShared *message.Event
	for _, l := range n.links {
		if l == from || visited(hops, l.peer) {
			continue
		}
		if len(l.interests) == 0 {
			continue
		}
		if routed == nil {
			sat := n.expandForRouting(ev)
			routed = &sat
		}
		if !interestsMatch(l, *routed) {
			continue
		}
		spans := n.trc.Forward(pubID, l.peer, time.Now())
		if evShared == nil {
			evCopy := ev.Clone()
			evShared = &evCopy
		}
		if err := l.send(Frame{Type: framePub, Origin: hops[0], Event: evShared, PubID: pubID, Hops: hops, Trace: spans}); err != nil {
			continue
		}
		n.pubsForwarded.Inc()
	}
}

// routeKB floods a knowledge delta to every link except the arrival
// link and peers already on the hop list. Unlike publications, deltas
// are not interest-filtered: every broker needs every delta, or
// matching diverges.
func (n *Node) routeKB(d knowledge.Delta, hops []string, from *link) {
	for _, l := range n.links {
		if l == from || visited(hops, l.peer) {
			continue
		}
		dd := d
		if err := l.send(Frame{Type: frameKB, Origin: d.Origin, KB: &dd, Hops: hops}); err != nil {
			continue
		}
		n.kbForwarded.Inc()
	}
}

// reindexRouting re-canonicalizes the node's routing state after the
// knowledge base changed the canonical form of the given terms:
// recorded remote interests (the publication forwarding predicate) and
// per-link cover tables are recomputed under the new stage, and
// suppressed subscriptions that the new knowledge uncovers are forwarded
// now. Without this, a subscription recorded under old knowledge could
// silently stop routing publications phrased in the new terms, or stay
// pruned forever after the knowledge made it uncovered.
//
// Only entries whose RAW form mentions an affected term are
// re-canonicalized (the semantic-stage pass per entry is the expensive
// part of the sweep); everything else keeps its cached canonical form,
// which by the changed-term diff is still exact.
func (n *Node) reindexRouting(affected map[string]bool) {
	touches := func(s message.Subscription) bool { return s.TouchesTerms(affected) }
	for _, l := range n.links {
		for rid, e := range l.interests {
			if !touches(e.raw) {
				continue
			}
			e.canon = n.canonicalize(e.raw)
			l.interests[rid] = e
		}
		for _, rs := range l.out.recanonicalize(n.canonicalize, touches) {
			raw := rs.e.raw.Clone()
			if err := l.send(Frame{Type: frameSub, Origin: rs.id.Origin, Sub: &raw, Hops: rs.e.hops}); err != nil {
				continue
			}
			n.subsReissued.Inc()
		}
	}
}

// interestsMatch reports whether any interest on the link matches the
// saturated event.
func interestsMatch(l *link, ev message.Event) bool {
	for _, e := range l.interests {
		if e.canon.Matches(ev) {
			return true
		}
	}
	return false
}

// canonicalize maps a subscription into the local engine's indexed form
// so routing-table covering and matching agree with the engine.
func (n *Node) canonicalize(sub message.Subscription) message.Subscription {
	eng := n.b.Engine()
	if eng.Mode() != core.Semantic {
		return sub.Clone()
	}
	canon, _ := eng.Stage().ProcessSubscription(sub)
	return canon
}

// expandForRouting saturates the event as the local engine would before
// matching it, making the forwarding predicate semantically faithful.
func (n *Node) expandForRouting(ev message.Event) message.Event {
	eng := n.b.Engine()
	if eng.Mode() != core.Semantic {
		return ev
	}
	return eng.Stage().ProcessEvent(ev).Event
}

// markSeen records a publication ID in the bounded dedup window.
// Callers hold n.mu.
func (n *Node) markSeen(id string) {
	if n.seen[id] {
		return
	}
	n.seen[id] = true
	n.seenQ = append(n.seenQ, id)
	if len(n.seenQ) > seenCap {
		old := n.seenQ[0]
		n.seenQ = n.seenQ[1:]
		delete(n.seen, old)
	}
}

// appendHop returns hops + name in a fresh slice (frames alias their
// hop lists; sharing backing arrays across links would corrupt paths).
func appendHop(hops []string, name string) []string {
	out := make([]string, 0, len(hops)+1)
	out = append(out, hops...)
	return append(out, name)
}

func (n *Node) logf(format string, args ...any) {
	if n.cfg.Logf != nil {
		n.cfg.Logf(format, args...)
	}
}

// remoteStats snapshots the node's routing counters for broker.Stats.
func (n *Node) remoteStats() broker.RemoteStats {
	n.mu.Lock()
	peers := len(n.links)
	remoteSubs := 0
	for _, l := range n.links {
		remoteSubs += len(l.interests)
	}
	n.mu.Unlock()
	return broker.RemoteStats{
		Peers:         peers,
		RemoteSubs:    remoteSubs,
		SubsForwarded: n.subsForwarded.Value(),
		SubsPruned:    n.subsPruned.Value(),
		SubsReissued:  n.subsReissued.Value(),
		PubsForwarded: n.pubsForwarded.Value(),
		PubsReceived:  n.pubsReceived.Value(),
		PubsDeduped:   n.pubsDeduped.Value(),
		KBForwarded:   n.kbForwarded.Value(),
		KBReceived:    n.kbReceived.Value(),
		KBDeduped:     n.kbDeduped.Value(),
	}
}
