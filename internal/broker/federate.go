package broker

import (
	"sort"

	"stopss/internal/core"
	"stopss/internal/knowledge"
	"stopss/internal/message"
)

// Federation hooks: a broker participating in a multi-broker overlay
// (internal/overlay) needs three things from the dispatcher — to hear
// about local subscription changes, accepted publications and knowledge
// deltas (so they can be routed to peers), to accept publications
// arriving from peers without bouncing them back out (DeliverRemote in
// broker.go), and to fold the overlay's routing counters into Stats.

// Forwarder observes local broker activity for inter-broker routing.
// Callbacks are invoked synchronously after the local operation has
// succeeded, never while the broker's own lock is held. Implementations
// may call back into the broker.
type Forwarder interface {
	// SubscriptionChanged reports a local subscription being added
	// (added=true) or removed. The subscription is the original,
	// pre-canonicalization form.
	SubscriptionChanged(sub message.Subscription, added bool)
	// PublicationAccepted reports a locally published event after local
	// matching and notification dispatch, together with the publication
	// ID the broker's tracer minted (`broker#epoch/seq`) — the overlay
	// uses it both as the federation-wide dedup key and as the trace
	// identity carried on pub frames. Publications injected by
	// DeliverRemote are not reported.
	PublicationAccepted(ev message.Event, pubID string)
	// KnowledgeChanged reports a locally injected knowledge delta that
	// was newly applied to the broker's knowledge base (duplicates are
	// not reported; deterministically rejected deltas ARE — peers need
	// them for version digests to converge). The report carries the
	// engine-level outcome (Changed, Version) so the overlay can skip
	// routing re-canonicalization for no-op deltas. Deltas arriving
	// from peers via DeliverRemoteKnowledge are not reported: the
	// overlay owns inter-broker propagation.
	KnowledgeChanged(d knowledge.Delta, rep core.KnowledgeReport)
}

// SetForwarder installs (or clears, with nil) the overlay hook.
func (b *Broker) SetForwarder(f Forwarder) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.forwarder = f
}

// RemoteStats summarizes the overlay routing activity of one broker.
// The overlay node fills it via SetRemoteStatsSource; a standalone
// broker reports zeros.
type RemoteStats struct {
	Peers         int    // connected peer links
	SubsForwarded uint64 // subscriptions sent to peers
	SubsPruned    uint64 // subscriptions suppressed by a covering sub
	SubsReissued  uint64 // suppressed subs re-forwarded after un-covering
	PubsForwarded uint64 // publications sent along matching links
	PubsReceived  uint64 // publications accepted from peers
	PubsDeduped   uint64 // duplicate publications dropped
	RemoteSubs    int    // remote subscriptions currently routed
	KBForwarded   uint64 // knowledge deltas sent to peers
	KBReceived    uint64 // knowledge deltas accepted from peers
	KBDeduped     uint64 // duplicate knowledge deltas dropped
}

// SetRemoteStatsSource installs the overlay's stats callback; Stats()
// invokes it to populate Stats.Remote.
func (b *Broker) SetRemoteStatsSource(fn func() RemoteStats) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.remoteStats = fn
}

// Subscriptions returns every live local subscription in its original
// form, ascending by ID. The overlay uses it to synchronize state onto
// a freshly connected peer link.
func (b *Broker) Subscriptions() []message.Subscription {
	b.mu.Lock()
	ids := make([]message.SubID, 0, len(b.subs))
	for id := range b.subs {
		ids = append(ids, id)
	}
	b.mu.Unlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]message.Subscription, 0, len(ids))
	for _, id := range ids {
		if s, ok := b.engine.Subscription(id); ok {
			out = append(out, s)
		}
	}
	return out
}
