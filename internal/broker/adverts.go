package broker

import (
	"fmt"
	"sort"

	"stopss/internal/matching"
	"stopss/internal/message"
)

// Advertisement support: publishers may declare their event space; the
// broker then (a) rejects publications that leave the advertised space
// and (b) can report which subscriptions a publisher could ever match.
// Advertisements are broker-local: the overlay routes subscriptions
// only, so an advertisement never leaves the broker it was made at.

// Advertise records (or replaces) the advertisement of a registered
// client.
func (b *Broker) Advertise(client string, preds []message.Predicate) error {
	b.mu.Lock()
	if _, ok := b.clients[client]; !ok {
		b.mu.Unlock()
		return fmt.Errorf("broker: %w %q", ErrUnknownClient, client)
	}
	a := matching.NewAdvertisement(client, preds...)
	if err := a.Validate(); err != nil {
		b.mu.Unlock()
		return fmt.Errorf("broker: advertisement of %q: %w", client, err)
	}
	if b.adverts == nil {
		b.adverts = make(map[string]matching.Advertisement)
	}
	b.adverts[client] = a
	b.mu.Unlock()
	return nil
}

// Unadvertise removes a client's advertisement; subsequent publications
// from it are unconstrained again.
func (b *Broker) Unadvertise(client string) {
	b.mu.Lock()
	delete(b.adverts, client)
	b.mu.Unlock()
}

// Advertisements returns every live local advertisement, sorted by
// publisher, for snapshots.
func (b *Broker) Advertisements() []matching.Advertisement {
	b.mu.Lock()
	out := make([]matching.Advertisement, 0, len(b.adverts))
	for _, a := range b.adverts {
		out = append(out, a)
	}
	b.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Publisher < out[j].Publisher })
	return out
}

// AdvertisementOf returns the client's advertisement.
func (b *Broker) AdvertisementOf(client string) (matching.Advertisement, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	a, ok := b.adverts[client]
	return a, ok
}

// PublishFrom publishes on behalf of a named client. When the client has
// an advertisement, the event must conform to it; non-conforming
// publications are rejected before entering the pipeline.
func (b *Broker) PublishFrom(client string, ev message.Event) (PublishResult, error) {
	b.mu.Lock()
	a, advertised := b.adverts[client]
	b.mu.Unlock()
	if advertised && !a.ConformsTo(ev) {
		b.mu.Lock()
		b.rejectedNonConforming++
		b.mu.Unlock()
		return PublishResult{}, fmt.Errorf("broker: publication %v leaves the advertised space of %q", ev, client)
	}
	return b.Publish(ev)
}

// OverlappingSubscriptions reports the subscriptions a publisher could
// ever match, given its advertisement — ascending IDs. Without an
// advertisement every subscription is reachable.
func (b *Broker) OverlappingSubscriptions(client string) ([]message.SubID, error) {
	b.mu.Lock()
	a, advertised := b.adverts[client]
	ids := make([]message.SubID, 0, len(b.subs))
	for id := range b.subs {
		ids = append(ids, id)
	}
	b.mu.Unlock()
	sortSubIDs(ids)
	if !advertised {
		return ids, nil
	}
	var out []message.SubID
	for _, id := range ids {
		sub, ok := b.engine.Subscription(id)
		if !ok {
			continue
		}
		// Overlap is computed against the canonicalized (indexed) form
		// when in semantic mode, so synonym-level overlap is honoured.
		canon, _ := b.engine.Stage().ProcessSubscription(sub)
		canonAdv, _ := b.engine.Stage().ProcessSubscription(
			message.Subscription{ID: 0, Preds: a.Preds})
		if matching.Overlaps(matching.NewAdvertisement(client, canonAdv.Preds...), canon) {
			out = append(out, id)
		}
	}
	return out, nil
}

func sortSubIDs(ids []message.SubID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j-1] > ids[j]; j-- {
			ids[j-1], ids[j] = ids[j], ids[j-1]
		}
	}
}
