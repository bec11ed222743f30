package broker

import (
	"sort"
	"sync/atomic"
	"time"

	"stopss/internal/message"
)

// Per-subscription delivery accounting (DESIGN §10). The observability
// layer of PR 6 answers "where did THIS publication go"; this one
// answers the operator's standing question "which subscriptions are
// falling behind". Every subscription carries a small block of atomic
// counters updated on the paths that already exist — the engine match
// loop in publish and the notifier's delivery hook — so the hot path
// pays a map lookup plus a handful of atomic adds, no new locks and no
// blocking in the hook (which runs on notify worker goroutines).
//
// The counters live in a sync.Map keyed by SubID: subscription churn
// is rare next to delivery traffic, so the map is read-mostly exactly
// where sync.Map is cheap. An entry is created where its subscription
// becomes resident and dropped where it stops being resident
// (unsubscribe, detach), both under b.mu beside b.subs. The hot paths
// only load: a notification still in flight at unsubscribe finds no
// block and counts nothing, instead of bringing the block back for
// good. A resumed subscription starts its activity counters afresh (the
// durable cursor, not these diagnostics, is the correctness state).

// subCounters is one subscription's accounting block.
type subCounters struct {
	matched      atomic.Uint64 // engine matches on the live publish path
	delivered    atomic.Uint64 // acknowledged deliveries
	retried      atomic.Uint64 // extra delivery attempts beyond the first
	parked       atomic.Uint64 // park events (journal will redeliver)
	deadLettered atomic.Uint64 // retry-exhausted, not journal-claimed
	lastDelivery atomic.Int64  // unix nanos of the last successful delivery
}

// subCountersFor returns the accounting block for id, or nil when the
// subscription is not resident; callers skip a nil block.
func (b *Broker) subCountersFor(id message.SubID) *subCounters {
	if c, ok := b.subStats.Load(id); ok {
		return c.(*subCounters)
	}
	return nil
}

// addSubCounters gives a subscription that just became resident a fresh
// accounting block. Callers hold b.mu.
func (b *Broker) addSubCounters(id message.SubID) {
	b.subStats.Store(id, &subCounters{})
}

// dropSubCounters forgets a subscription's accounting (unsubscribe,
// detach). Callers hold b.mu.
func (b *Broker) dropSubCounters(id message.SubID) {
	b.subStats.Delete(id)
}

// SubStat is the operator-facing accounting snapshot of one resident
// subscription, served by GET /api/v1/subs.
type SubStat struct {
	ID           message.SubID `json:"id"`
	Client       string        `json:"client"`
	Durable      bool          `json:"durable"`
	Matched      uint64        `json:"matched"`
	Delivered    uint64        `json:"delivered"`
	Retried      uint64        `json:"retried,omitempty"`
	Parked       uint64        `json:"parked,omitempty"`
	DeadLettered uint64        `json:"dead_lettered,omitempty"`
	Pending      int           `json:"pending,omitempty"` // dispatched-but-unacked seqs (durable)
	Cursor       uint64        `json:"cursor,omitempty"`  // acked journal cursor (durable)
	// Lag is the consumer-lag signal: journal head minus acked cursor,
	// i.e. how many journaled publications this durable subscription
	// has not yet acknowledged. 0 for fire-and-forget subscriptions.
	Lag uint64 `json:"lag"`
	// LastDeliveryAgeMS is milliseconds since the last acknowledged
	// delivery; -1 when nothing was ever delivered.
	LastDeliveryAgeMS int64 `json:"last_delivery_age_ms"`
}

// SubStats snapshots per-subscription delivery accounting for every
// resident subscription, sorted laggiest-first (then most-matched,
// then by ID — a stable, operator-useful order). Detached
// subscriptions are excluded: while paged out they accrue no delivery
// activity and their owed history is pinned by the journal floor, not
// a live cursor.
func (b *Broker) SubStats() []SubStat {
	type durSnap struct {
		cursor  uint64
		pending int
	}
	b.mu.Lock()
	subs := make(map[message.SubID]string, len(b.subs))
	for id, client := range b.subs {
		subs[id] = client
	}
	dur := make(map[message.SubID]durSnap, len(b.durable))
	for id, st := range b.durable {
		dur[id] = durSnap{cursor: st.cursor, pending: len(st.pending)}
	}
	j := b.journal
	b.mu.Unlock()

	var head uint64
	if j != nil {
		head = j.NextSeq() - 1
	}
	now := time.Now().UnixNano()
	out := make([]SubStat, 0, len(subs))
	for id, client := range subs {
		s := SubStat{ID: id, Client: client, LastDeliveryAgeMS: -1}
		if d, ok := dur[id]; ok {
			s.Durable = true
			s.Cursor = d.cursor
			s.Pending = d.pending
			if head > d.cursor {
				s.Lag = head - d.cursor
			}
		}
		if c, ok := b.subStats.Load(id); ok {
			sc := c.(*subCounters)
			s.Matched = sc.matched.Load()
			s.Delivered = sc.delivered.Load()
			s.Retried = sc.retried.Load()
			s.Parked = sc.parked.Load()
			s.DeadLettered = sc.deadLettered.Load()
			if last := sc.lastDelivery.Load(); last != 0 {
				s.LastDeliveryAgeMS = (now - last) / int64(time.Millisecond)
			}
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Lag != out[j].Lag {
			return out[i].Lag > out[j].Lag
		}
		if out[i].Matched != out[j].Matched {
			return out[i].Matched > out[j].Matched
		}
		return out[i].ID < out[j].ID
	})
	return out
}
