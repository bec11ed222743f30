package overlay

import (
	"crypto/rand"
	"encoding/hex"
	"sort"
	"strconv"
	"time"

	"stopss/internal/metrics"
)

// Cluster introspection gossip (DESIGN §10). Each node periodically —
// and on every link (re)establishment — floods a compact summary of
// its own health: link backpressure, journal head/floor, store
// residency, knowledge version, cache hit rates, process vitals. The
// summaries ride the same hop-list/dedup flood machinery as
// publications (dedup key "ops|origin#epoch/seq"), so every broker
// converges on an eventually-consistent view of the whole federation
// — served at GET /api/v1/cluster — with no coordinator and no
// full-mesh scrape fan-out.
//
// Ordering is (Stamp, Seq): Seq is per-incarnation monotonic and the
// origin's wall-clock stamp dominates across incarnations, so a
// restarted broker's fresh summaries replace its previous life's even
// though its sequence counter reset (clock skew between brokers only
// skews the ops view, never routing). Staleness is local: an entry is
// flagged stale when its locally observed receive time ages past
// Config.OpsStaleAfter, and flagged down immediately when the direct
// link to that broker fails — the event-driven signal that keeps the
// simulation's clock-free fault scenarios deterministic.

// OpsLink is one peer link's health as seen by the reporting broker.
type OpsLink struct {
	Peer     string `json:"peer"`
	Queue    int    `json:"queue"`    // frames waiting in the outbound queue
	Inflight int64  `json:"inflight"` // queued + writer-batched frames
	Sent     uint64 `json:"sent"`
	Recv     uint64 `json:"recv"`
}

// OpsSummary is one broker's self-reported health, gossiped on ops
// frames. It is deliberately small (a few hundred bytes of JSON): the
// whole cluster view must stay cheap to flood at a low rate.
type OpsSummary struct {
	Origin string `json:"origin"`
	// Epoch identifies the broker incarnation that produced the
	// summary (restart detection for operators; ordering uses Stamp).
	Epoch string `json:"epoch"`
	// Seq is per-incarnation monotonic; with Stamp it orders summaries.
	Seq uint64 `json:"seq"`
	// Stamp is the origin's wall clock at summary build time.
	Stamp time.Time `json:"stamp"`

	Links []OpsLink `json:"links,omitempty"`

	Subscriptions int    `json:"subscriptions"`
	Durable       int    `json:"durable"`
	Detached      int    `json:"detached,omitempty"`
	Published     uint64 `json:"published"`
	Delivered     uint64 `json:"delivered"`
	Parked        uint64 `json:"parked,omitempty"`
	DeadLetters   int    `json:"dead_letters,omitempty"`

	JournalHead   uint64 `json:"journal_head,omitempty"`
	JournalFloor  uint64 `json:"journal_floor,omitempty"`
	RetentionLost uint64 `json:"retention_lost,omitempty"`

	StoreResident int `json:"store_resident,omitempty"`
	StorePages    int `json:"store_pages,omitempty"`

	KBVersion string `json:"kb_version,omitempty"`
	KBDeltas  uint64 `json:"kb_deltas,omitempty"`

	// ExpansionHitRate is the semantic expansion cache's hit fraction
	// in [0,1]; -1 when the cache has seen no traffic.
	ExpansionHitRate float64 `json:"expansion_hit_rate"`

	Goroutines int64  `json:"goroutines"`
	HeapBytes  uint64 `json:"heap_bytes"`
}

// opsEntry is one stored peer summary plus the local metadata the view
// derives staleness from.
type opsEntry struct {
	summary OpsSummary
	hops    []string  // travel path, origin first (relayed on link sync)
	recvAt  time.Time // local receive time; staleness ages against it
	down    bool      // direct link to the origin failed since receipt
}

// ClusterEntry is one broker's row in the federation health view.
type ClusterEntry struct {
	Broker string `json:"broker"`
	Self   bool   `json:"self,omitempty"`
	// AgeMS is milliseconds since this broker last heard from the
	// entry's origin (0 for self).
	AgeMS int64 `json:"age_ms"`
	// Stale means the summary can no longer be trusted: the direct
	// link to the origin failed (Down) or the summary aged past the
	// node's staleness threshold.
	Stale bool `json:"stale"`
	// Down means a direct link to this broker failed and no fresh
	// summary has arrived since.
	Down    bool       `json:"down,omitempty"`
	Summary OpsSummary `json:"summary"`
}

// defaultOpsStaleAfter is the staleness threshold when the Config
// leaves OpsStaleAfter zero.
const defaultOpsStaleAfter = 30 * time.Second

// newOpsEpoch mints a per-incarnation ops epoch (restart detection).
func newOpsEpoch() string {
	var b [4]byte
	_, _ = rand.Read(b[:])
	return hex.EncodeToString(b[:])
}

// opsKey is the flood-dedup key of one summary.
func opsKey(s OpsSummary) string {
	return "ops|" + s.Origin + "#" + s.Epoch + "/" + strconv.FormatUint(s.Seq, 10)
}

// buildOps assembles this node's current health summary. It reads
// broker stats (broker/engine locks) and therefore must run OUTSIDE
// n.mu — broker.Stats calls back into the node's remote-stats source,
// which takes n.mu. Seq/Stamp are filled by the caller under n.mu.
func (n *Node) buildOps() OpsSummary {
	st := n.b.Stats()
	rt := metrics.ReadRuntime()
	s := OpsSummary{
		Origin:        n.cfg.Name,
		Epoch:         n.opsEpoch,
		Subscriptions: st.Subscriptions,
		Durable:       st.Durable,
		Detached:      st.Detached,
		Published:     st.Published,
		Delivered:     st.Notify.Delivered,
		Parked:        st.Parked,
		DeadLetters:   st.Notify.DeadLetters,
		KBVersion:     st.Engine.KBVersion,
		KBDeltas:      st.Engine.KBDeltas,
		Goroutines:    rt.Goroutines,
		HeapBytes:     rt.HeapBytes,
	}
	if st.JournalEnabled {
		s.JournalHead = st.Journal.NextSeq - 1
		s.JournalFloor = st.Journal.FirstSeq
		s.RetentionLost = st.Journal.RetentionLostRecords
	}
	if st.StoreEnabled {
		s.StoreResident = st.Store.Resident
		s.StorePages = st.Store.Pages
	}
	if hits, misses := st.Engine.ExpansionHits, st.Engine.ExpansionMisses; hits+misses > 0 {
		s.ExpansionHitRate = float64(hits) / float64(hits+misses)
	} else {
		s.ExpansionHitRate = -1
	}
	n.mu.Lock()
	s.Links = make([]OpsLink, 0, len(n.links))
	for _, l := range n.links {
		s.Links = append(s.Links, OpsLink{
			Peer:     l.peer,
			Queue:    len(l.outq),
			Inflight: l.inflight.Load(),
			Sent:     l.sent.Value(),
			Recv:     l.recv.Value(),
		})
	}
	n.mu.Unlock()
	sort.Slice(s.Links, func(i, j int) bool { return s.Links[i].Peer < s.Links[j].Peer })
	return s
}

// PublishOps builds a fresh health summary and floods it to every
// peer. Called on link establishment (attach), by the optional
// refresh ticker (Config.OpsInterval), and by anything that wants the
// federation to see current numbers now.
func (n *Node) PublishOps() {
	s := n.buildOps()
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.opsSeq++
	s.Seq = n.opsSeq
	s.Stamp = time.Now()
	hops := []string{n.cfg.Name}
	n.markSeen(opsKey(s))
	n.storeOps(s, hops)
	for _, l := range n.links {
		n.sendOps(l, s, hops)
	}
	n.mu.Unlock()
}

// storeOps folds one summary into the local cluster view, newest-wins
// by (Stamp, Seq). Returns whether the summary was fresh (and so worth
// relaying). Callers hold n.mu.
func (n *Node) storeOps(s OpsSummary, hops []string) bool {
	if e, ok := n.opsView[s.Origin]; ok {
		old := e.summary
		if s.Stamp.Before(old.Stamp) || (s.Stamp.Equal(old.Stamp) && s.Seq <= old.Seq) {
			return false
		}
	}
	n.opsView[s.Origin] = &opsEntry{summary: s, hops: hops, recvAt: time.Now()}
	return true
}

// sendOps transmits one summary on a link. Callers hold n.mu.
func (n *Node) sendOps(l *link, s OpsSummary, hops []string) {
	ss := s
	if l.send(Frame{Type: frameOps, Origin: s.Origin, Ops: &ss, Hops: hops}) == nil {
		n.opsForwarded.Inc()
	}
}

// handleOps processes one inbound ops frame: dedup, fold into the
// view, relay to the remaining links.
func (n *Node) handleOps(l *link, f Frame) {
	s := *f.Ops
	if s.Origin == "" || s.Origin == n.cfg.Name || visited(f.Hops, n.cfg.Name) {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	id := opsKey(s)
	if n.seen[id] {
		return
	}
	n.markSeen(id)
	n.opsReceived.Inc()
	hops := appendHop(f.Hops, n.cfg.Name)
	if !n.storeOps(s, hops) {
		return
	}
	for _, other := range n.links {
		if other == l || visited(hops, other.peer) {
			continue
		}
		n.sendOps(other, s, hops)
	}
}

// syncOps relays every stored peer summary to a fresh link, so a new
// or healed peer converges on the cluster view without waiting for the
// next refresh from each origin. Stored hops already end with this
// node (handleOps appends it before storing), so they are relayed
// as-is. Callers hold n.mu.
func (n *Node) syncOps(l *link) {
	for origin, e := range n.opsView {
		if origin == n.cfg.Name || e.down {
			continue
		}
		if visited(e.hops, l.peer) {
			continue
		}
		n.sendOps(l, e.summary, e.hops)
	}
}

// markPeerDown flags the view entry of a directly linked peer whose
// link just failed. The flag clears when a fresh summary arrives
// (storeOps replaces the entry). Callers hold n.mu.
func (n *Node) markPeerDown(peer string) {
	if e, ok := n.opsView[peer]; ok {
		e.down = true
	}
}

// ClusterView renders the node's current federation health view: one
// entry per known broker (self included, built fresh), sorted by
// name. Staleness is evaluated at call time against
// Config.OpsStaleAfter (default 30s).
func (n *Node) ClusterView() []ClusterEntry {
	staleAfter := n.cfg.OpsStaleAfter
	if staleAfter <= 0 {
		staleAfter = defaultOpsStaleAfter
	}
	self := n.buildOps()
	now := time.Now()
	n.mu.Lock()
	self.Seq = n.opsSeq
	self.Stamp = now
	out := make([]ClusterEntry, 0, len(n.opsView)+1)
	out = append(out, ClusterEntry{Broker: n.cfg.Name, Self: true, Summary: self})
	for origin, e := range n.opsView {
		if origin == n.cfg.Name {
			continue
		}
		age := now.Sub(e.recvAt)
		out = append(out, ClusterEntry{
			Broker:  origin,
			AgeMS:   age.Milliseconds(),
			Stale:   e.down || age > staleAfter,
			Down:    e.down,
			Summary: e.summary,
		})
	}
	n.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Broker < out[j].Broker })
	return out
}

// opsLoop is the optional low-rate refresh ticker (Config.OpsInterval
// > 0): production clusters keep the view fresh without any link
// churn; the clock-free simulation harness leaves it off and relies on
// the event-driven emissions.
func (n *Node) opsLoop(interval time.Duration) {
	defer n.wg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-n.opsStop:
			return
		case <-t.C:
			n.PublishOps()
		}
	}
}
