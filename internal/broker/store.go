package broker

import (
	"encoding/json"
	"fmt"
	"sort"

	"stopss/internal/message"
	"stopss/internal/store"
)

// Detached durable subscriptions (DESIGN.md §11): with a subscription
// store attached, a durable subscription whose subscriber is offline
// can be paged out entirely — removed from the matching engine, the
// broker's maps, and the journal's cursor table — and persisted as one
// record in the paged store. Only the store's buffer-pool budget stays
// resident, so millions of offline durable subscribers cost disk, not
// RAM. ResumeDurable faults the record back in and replays from its
// cursor; at-least-once delivery is preserved because (a) the detach
// cursor is the last *acked* position and (b) the store's minimum
// cursor pins the journal's compaction floor (SetFloorFunc) so the
// records a detached subscriber still owes are retained.
//
// While detached, the subscription does not match locally. Publications
// that arrive meanwhile are journaled (they are appended before
// fan-out regardless of match results) and redelivered by the resume
// replay. Overlay interest propagation is intentionally NOT retracted
// on detach — peers keep forwarding matching publications so they land
// in this broker's journal; see ROADMAP for the crash-restart re-sync
// caveat.

// storedSub is the store's record payload for one detached durable
// subscription.
type storedSub struct {
	Client string               `json:"client"`
	Cursor uint64               `json:"cursor"`
	Sub    message.Subscription `json:"sub"`
}

// AttachStore binds a subscription store to the broker. Call after
// AttachJournal and before Restore/traffic. The store becomes the
// durable authority for detached subscriptions and their cursors; the
// journal's compaction floor is extended to cover them.
func (b *Broker) AttachStore(st *store.Store) error {
	// Recompute the detached floor and the ID watermark from the
	// store's surviving records (recovery may have dropped torn pages).
	var (
		minCursor uint64
		count     int64
		maxID     uint64
	)
	err := st.Scan(func(key uint64, val []byte) error {
		var rec storedSub
		if err := json.Unmarshal(val, &rec); err != nil {
			return fmt.Errorf("broker: store record %d corrupt: %w", key, err)
		}
		if count == 0 || rec.Cursor < minCursor {
			minCursor = rec.Cursor
		}
		count++
		if key > maxID {
			maxID = key
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.mu.Lock()
	b.store = st
	if message.SubID(maxID) >= b.nextID {
		// Detached IDs must never be re-issued to new subscriptions.
		b.nextID = message.SubID(maxID)
	}
	b.detachedFloor.Store(minCursor)
	b.detachedCount.Store(count)
	j := b.journal
	b.mu.Unlock()
	if j != nil {
		j.SetFloorFunc(b.storeFloor)
	}
	return nil
}

// Store exposes the attached subscription store (nil when none).
func (b *Broker) Store() *store.Store {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.store
}

// storeFloor is the journal's external ack-floor source: the minimum
// cursor over detached subscriptions. It runs under the journal lock,
// so it reads atomics only. The value is maintained monotonically
// downward at runtime (detaches lower it; resumes never raise it) and
// recomputed exactly at AttachStore — stale-low is safe, it only
// delays compaction.
func (b *Broker) storeFloor() (uint64, bool) {
	if b.detachedCount.Load() == 0 {
		return 0, false
	}
	return b.detachedFloor.Load(), true
}

// DetachDurable pages a durable subscription out to the store: the
// record (subscription + acked cursor) is persisted, and the resident
// state — engine entry, broker maps, journal cursor — is released.
// The overlay forwarder is NOT notified, so peer brokers keep
// forwarding matching publications into the journal. In-flight
// deliveries settle as no-ops; anything unacked at detach time is
// redelivered by the resume replay.
func (b *Broker) DetachDurable(client string, id message.SubID) error {
	b.mu.Lock()
	st := b.store
	if st == nil {
		b.mu.Unlock()
		return fmt.Errorf("broker: detaching needs an attached store")
	}
	owner, ok := b.subs[id]
	if !ok {
		b.mu.Unlock()
		return fmt.Errorf("broker: %w %d", ErrUnknownSubscription, id)
	}
	if owner != client {
		b.mu.Unlock()
		return fmt.Errorf("broker: subscription %d belongs to %q, not %q: %w", id, owner, client, ErrNotOwner)
	}
	dst, durable := b.durable[id]
	if !durable {
		b.mu.Unlock()
		return fmt.Errorf("broker: subscription %d: %w", id, ErrNotDurable)
	}
	cursor := dst.cursor
	b.mu.Unlock()

	sub, ok := b.engine.Subscription(id)
	if !ok {
		return fmt.Errorf("broker: subscription %d vanished from the engine", id)
	}
	data, err := json.Marshal(storedSub{Client: client, Cursor: cursor, Sub: sub})
	if err != nil {
		return fmt.Errorf("broker: encoding subscription %d: %w", id, err)
	}
	// Persist first, then lower the compaction floor, then release the
	// resident state — at every crash point the subscription is covered
	// by at least one authority.
	if err := st.Put(uint64(id), data); err != nil {
		return fmt.Errorf("broker: storing subscription %d: %w", id, err)
	}
	b.mu.Lock()
	if b.detachedCount.Load() == 0 || cursor < b.detachedFloor.Load() {
		b.detachedFloor.Store(cursor)
	}
	b.detachedCount.Add(1)
	delete(b.subs, id)
	b.dropSubCounters(id)
	delete(b.durable, id)
	b.detaches++
	j := b.journal
	b.mu.Unlock()
	if j != nil {
		j.DeleteCursor(cursorKey(id))
	}
	b.engine.Unsubscribe(id)
	return nil
}

// faultIn loads a detached subscription back into residency: engine,
// maps, journal cursor. Caller replays afterwards.
func (b *Broker) faultIn(client string, id message.SubID) error {
	b.mu.Lock()
	st := b.store
	j := b.journal
	b.mu.Unlock()
	if st == nil {
		return fmt.Errorf("broker: %w %d", ErrUnknownSubscription, id)
	}
	data, ok, err := st.Get(uint64(id))
	if err != nil {
		return fmt.Errorf("broker: loading subscription %d: %w", id, err)
	}
	if !ok {
		return fmt.Errorf("broker: %w %d", ErrUnknownSubscription, id)
	}
	var rec storedSub
	if err := json.Unmarshal(data, &rec); err != nil {
		return fmt.Errorf("broker: stored subscription %d corrupt: %w", id, err)
	}
	if rec.Client != client {
		return fmt.Errorf("broker: subscription %d belongs to %q, not %q: %w", id, rec.Client, client, ErrNotOwner)
	}
	// Merge with any journal cursor that survived (non-ephemeral mode).
	if j != nil {
		if jc, ok := j.Cursor(cursorKey(id)); ok && jc > rec.Cursor {
			rec.Cursor = jc
		}
	}
	if err := b.engine.Subscribe(rec.Sub); err != nil {
		return fmt.Errorf("broker: re-indexing subscription %d: %w", id, err)
	}
	b.mu.Lock()
	b.subs[id] = client
	b.addSubCounters(id)
	b.durable[id] = &durableState{cursor: rec.Cursor, maxSeen: rec.Cursor, pending: make(map[uint64]bool)}
	b.faultedIn++
	b.mu.Unlock()
	// Seed the journal cursor BEFORE dropping the store record: the
	// floor never gaps. The detached floor itself is not raised —
	// stale-low only delays compaction.
	if j != nil {
		j.SetCursor(cursorKey(id), rec.Cursor)
	}
	if err := st.Delete(uint64(id)); err != nil {
		return fmt.Errorf("broker: releasing stored subscription %d: %w", id, err)
	}
	b.detachedCount.Add(-1)
	return nil
}

// dropDetached removes a detached subscription's store record during
// an unsubscribe-while-detached. Returns the stored subscription for
// forwarder retraction, or ok=false when the store has no record.
func (b *Broker) dropDetached(client string, id message.SubID) (message.Subscription, bool, error) {
	b.mu.Lock()
	st := b.store
	j := b.journal
	b.mu.Unlock()
	if st == nil {
		return message.Subscription{}, false, nil
	}
	data, ok, err := st.Get(uint64(id))
	if err != nil || !ok {
		return message.Subscription{}, false, err
	}
	var rec storedSub
	if err := json.Unmarshal(data, &rec); err != nil {
		return message.Subscription{}, false, fmt.Errorf("broker: stored subscription %d corrupt: %w", id, err)
	}
	if rec.Client != client {
		return message.Subscription{}, false, fmt.Errorf("broker: subscription %d belongs to %q, not %q: %w", id, rec.Client, client, ErrNotOwner)
	}
	if err := st.Delete(uint64(id)); err != nil {
		return message.Subscription{}, false, err
	}
	b.detachedCount.Add(-1)
	if j != nil {
		j.DeleteCursor(cursorKey(id))
	}
	return rec.Sub, true, nil
}

// DetachedSubscriptions returns every subscription currently paged out
// to the store, in its original form, ascending by ID. The overlay's
// link re-sync uses it to re-advertise detached interests after a
// broker restart: a detached subscriber's interest must keep routing
// remote publications into this broker's journal even though no
// resident subscription carries it (the DESIGN §11 crash-restart
// caveat). Corrupt records are skipped — re-advertisement is
// best-effort diagnostics-free routing state, and recovery already
// counted any torn pages.
func (b *Broker) DetachedSubscriptions() []message.Subscription {
	b.mu.Lock()
	st := b.store
	b.mu.Unlock()
	if st == nil {
		return nil
	}
	var out []message.Subscription
	_ = st.Scan(func(key uint64, val []byte) error {
		var rec storedSub
		if err := json.Unmarshal(val, &rec); err != nil {
			return nil
		}
		out = append(out, rec.Sub)
		return nil
	})
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// CheckpointStore flushes the subscription store to stable storage
// (no-op without a store). Detach durability is checkpoint-granular:
// records written since the last checkpoint can be lost by a crash, in
// which case the subscription falls back to its snapshot/journal
// authorities.
func (b *Broker) CheckpointStore() error {
	b.mu.Lock()
	st := b.store
	b.mu.Unlock()
	if st == nil {
		return nil
	}
	return st.Checkpoint()
}
