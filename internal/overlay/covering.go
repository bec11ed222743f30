package overlay

import (
	"sort"

	"stopss/internal/matching"
	"stopss/internal/message"
)

// routeID identifies a routed subscription overlay-wide: broker-local
// SubIDs collide between brokers, so routing state is keyed by the
// originating broker plus its local ID.
type routeID struct {
	Origin string
	ID     message.SubID
}

// routeEntry is one routed subscription in both the form it travels in
// (raw — each broker canonicalizes against its own stage) and the form
// this node reasons with (canon — the local semantic canonicalization,
// which makes Covers and Matches agree with the local engine).
type routeEntry struct {
	raw   message.Subscription
	canon message.Subscription
	// hops is the broker path the subscription travelled to reach this
	// node (origin first, this node excluded); forwarding appends the
	// local name and never targets a peer already on the path.
	hops []string
}

// coverTable tracks what this node has told one peer: forwarded holds
// entries actually sent, suppressed holds entries pruned because a
// forwarded entry covers them. The table preserves the routing
// invariant that every suppressed subscription is covered by at least
// one forwarded subscription, so the peer routes a superset of the
// publications the suppressed entries would have requested.
//
// coverTable is not safe for concurrent use; the Node serializes access.
type coverTable struct {
	forwarded  map[routeID]routeEntry
	suppressed map[routeID]routeEntry
}

func newCoverTable() *coverTable {
	return &coverTable{
		forwarded:  make(map[routeID]routeEntry),
		suppressed: make(map[routeID]routeEntry),
	}
}

// add records a subscription headed for the peer and reports whether it
// must actually be sent: false means an already-forwarded subscription
// covers it and the entry was suppressed instead.
func (t *coverTable) add(id routeID, e routeEntry) bool {
	if _, dup := t.forwarded[id]; dup {
		return false
	}
	if _, dup := t.suppressed[id]; dup {
		return false
	}
	for _, f := range t.forwarded {
		if matching.Covers(f.canon, e.canon) {
			t.suppressed[id] = e
			return false
		}
	}
	t.forwarded[id] = e
	return true
}

// routeSend pairs a routing identity with its entry, for frames that
// must name the originating broker.
type routeSend struct {
	id routeID
	e  routeEntry
}

// remove withdraws a subscription. It reports whether the peer had
// actually been sent the entry (and so must receive an unsub) and which
// suppressed entries became uncovered by the removal and must be
// forwarded now. Promotion is iterative in deterministic order: a
// promoted entry may itself cover later candidates.
func (t *coverTable) remove(id routeID) (wasForwarded bool, reissue []routeSend) {
	if _, ok := t.suppressed[id]; ok {
		delete(t.suppressed, id)
		return false, nil
	}
	if _, ok := t.forwarded[id]; !ok {
		return false, nil
	}
	delete(t.forwarded, id)

	ids := make([]routeID, 0, len(t.suppressed))
	for sid := range t.suppressed {
		ids = append(ids, sid)
	}
	sort.Slice(ids, func(i, j int) bool {
		if ids[i].Origin != ids[j].Origin {
			return ids[i].Origin < ids[j].Origin
		}
		return ids[i].ID < ids[j].ID
	})
	for _, sid := range ids {
		s := t.suppressed[sid]
		covered := false
		for _, f := range t.forwarded {
			if matching.Covers(f.canon, s.canon) {
				covered = true
				break
			}
		}
		if covered {
			continue
		}
		delete(t.suppressed, sid)
		t.forwarded[sid] = s
		reissue = append(reissue, routeSend{id: sid, e: s})
	}
	return true, reissue
}

// size reports (forwarded, suppressed) entry counts.
func (t *coverTable) size() (int, int) {
	return len(t.forwarded), len(t.suppressed)
}

// recanonicalize recomputes entries' canonical forms (a knowledge
// delta may have changed how raw subscriptions canonicalize) and
// repairs the covering invariant: suppressed entries no longer covered
// by any forwarded entry are promoted and returned so the caller can
// forward them now — without this, a subscription suppressed under the
// old knowledge could remain unknown to a peer that now needs it.
// Previously forwarded entries stay forwarded even if the new
// knowledge would cover them: the peer holding extra routing state is
// harmless (a superset routes a superset).
//
// touches (nil = every entry) limits the canonical recomputation to
// entries whose raw form the knowledge change could have altered; the
// coverage re-check still runs over ALL suppressed entries, because an
// untouched suppressed entry can lose its cover when the entry
// covering it was re-canonicalized.
func (t *coverTable) recanonicalize(canon func(message.Subscription) message.Subscription, touches func(message.Subscription) bool) []routeSend {
	for id, e := range t.forwarded {
		if touches != nil && !touches(e.raw) {
			continue
		}
		e.canon = canon(e.raw)
		t.forwarded[id] = e
	}
	ids := make([]routeID, 0, len(t.suppressed))
	for sid := range t.suppressed {
		ids = append(ids, sid)
	}
	sort.Slice(ids, func(i, j int) bool {
		if ids[i].Origin != ids[j].Origin {
			return ids[i].Origin < ids[j].Origin
		}
		return ids[i].ID < ids[j].ID
	})
	var promote []routeSend
	for _, sid := range ids {
		e := t.suppressed[sid]
		if touches == nil || touches(e.raw) {
			e.canon = canon(e.raw)
		}
		covered := false
		for _, f := range t.forwarded {
			if matching.Covers(f.canon, e.canon) {
				covered = true
				break
			}
		}
		if covered {
			t.suppressed[sid] = e
			continue
		}
		delete(t.suppressed, sid)
		t.forwarded[sid] = e
		promote = append(promote, routeSend{id: sid, e: e})
	}
	return promote
}
