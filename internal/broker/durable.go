package broker

import (
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"stopss/internal/core"
	"stopss/internal/journal"
	"stopss/internal/message"
	"stopss/internal/notify"
	"stopss/internal/trace"
)

// Durable subscriptions (DESIGN.md §9): when a journal is attached,
// every accepted publication — local or federation-routed — is
// appended to it before notification fan-out, and subscriptions
// created with SubscribeDurable get a per-subscription cursor that
// advances only on acknowledged delivery. A delivery that fails, or a
// broker that crashes, leaves the cursor behind; catch-up replay
// (CatchUp after restart, ResumeDurable on subscriber reconnect) then
// re-delivers everything past the cursor — at-least-once semantics
// (duplicates possible, gaps impossible up to the journal's retention
// contract).

// durableState tracks one durable subscription's delivery window.
//
// Invariant: the cursor never advances past a journal seq this
// subscription still owes a delivery for. Two mechanisms uphold it:
// pending registration is atomic with journal sequence assignment
// (journal.AppendFunc runs the registration under the journal lock, so
// an ack of seq N can never race ahead of the bookkeeping for N-1),
// and replays freeze the cursor (barriers) while they scan, because
// replayed records are by definition not yet in pending.
type durableState struct {
	// cursor: every journal seq <= cursor is fully handled; replay
	// starts at cursor+1.
	cursor uint64
	// pending maps dispatched-but-unacked journal seqs to whether the
	// delivery is parked (retry-exhausted or undispatchable — only
	// replay will retry it). A pending seq pins the cursor below it.
	pending map[uint64]bool
	// maxSeen is the highest journal seq ever dispatched to this
	// subscription; the cursor jumps to it when pending drains.
	maxSeen uint64
	// barriers counts replays in progress over this subscription; the
	// cursor is frozen while any are active.
	barriers int
}

// advance returns the cursor position the delivery window currently
// supports: just below the oldest pending seq, or the newest
// dispatched seq when nothing is pending. Frozen during replays.
func (st *durableState) advance() (uint64, bool) {
	if st.barriers > 0 {
		return 0, false
	}
	newCursor := st.maxSeen
	for p := range st.pending {
		if p-1 < newCursor {
			newCursor = p - 1
		}
	}
	if newCursor <= st.cursor {
		return 0, false
	}
	st.cursor = newCursor
	return newCursor, true
}

func cursorKey(id message.SubID) string {
	return "sub-" + strconv.FormatUint(uint64(id), 10)
}

// AttachJournal binds a publication journal to the broker. The
// delivery-acknowledgement hook that drives durable ack/park is
// installed by New (deliveryOutcome in broker.go — it also closes
// trace span chains, so it is live with or without a journal). Must be
// called before publishing; typically right after New and before
// Restore (so restored durable cursors merge with the journal's own).
func (b *Broker) AttachJournal(j *journal.Journal) {
	b.mu.Lock()
	b.journal = j
	b.mu.Unlock()
}

// Journal exposes the attached journal (nil when none).
func (b *Broker) Journal() *journal.Journal {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.journal
}

// SubscribeDurable stores a subscription with at-least-once delivery:
// its cursor starts at the journal head (no history replay for a new
// subscription) and advances only on acknowledged delivery.
func (b *Broker) SubscribeDurable(client string, preds []message.Predicate) (message.SubID, error) {
	b.mu.Lock()
	j := b.journal
	b.mu.Unlock()
	if j == nil {
		return 0, fmt.Errorf("broker: durable subscriptions need an attached journal (-journal-dir): %w", ErrNoJournal)
	}
	id, err := b.Subscribe(client, preds)
	if err != nil {
		return 0, err
	}
	cursor := j.NextSeq() - 1
	b.mu.Lock()
	b.durable[id] = &durableState{cursor: cursor, maxSeen: cursor, pending: make(map[uint64]bool)}
	b.mu.Unlock()
	j.SetCursor(cursorKey(id), cursor)
	return id, nil
}

// restoreDurable re-creates a durable subscription's state during
// Restore, merging the snapshot's cursor with the journal's persisted
// one and any store record for the same ID (three-way max — each
// authority only ever lags the acked truth, so the max is still
// conservative). A store record here means the subscription was
// detached after the snapshot was taken; the snapshot re-creates it
// resident, so the store copy is absorbed and dropped.
func (b *Broker) restoreDurable(id message.SubID, cursor uint64) {
	b.mu.Lock()
	j := b.journal
	st := b.store
	b.mu.Unlock()
	if j != nil {
		if jc, ok := j.Cursor(cursorKey(id)); ok && jc > cursor {
			cursor = jc
		}
	}
	if st != nil {
		if data, ok, err := st.Get(uint64(id)); err == nil && ok {
			var rec storedSub
			if json.Unmarshal(data, &rec) == nil && rec.Cursor > cursor {
				cursor = rec.Cursor
			}
			if st.Delete(uint64(id)) == nil {
				b.detachedCount.Add(-1)
			}
		}
	}
	b.mu.Lock()
	b.durable[id] = &durableState{cursor: cursor, maxSeen: cursor, pending: make(map[uint64]bool)}
	b.mu.Unlock()
	if j != nil {
		j.SetCursor(cursorKey(id), cursor)
	}
}

// Durable reports whether a subscription is durable.
func (b *Broker) Durable(id message.SubID) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	_, ok := b.durable[id]
	return ok
}

// DurableCursor returns a durable subscription's acked cursor.
func (b *Broker) DurableCursor(id message.SubID) (uint64, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	st, ok := b.durable[id]
	if !ok {
		return 0, false
	}
	return st.cursor, true
}

// durableMatches filters a match set down to the durable IDs. Called
// on the publish path before the journal append.
func (b *Broker) durableMatches(matches []message.SubID) []message.SubID {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.durable) == 0 {
		return nil
	}
	var out []message.SubID
	for _, id := range matches {
		if _, ok := b.durable[id]; ok {
			out = append(out, id)
		}
	}
	return out
}

// registerPending records seq as dispatched-but-unacked for the given
// durable subscriptions. Runs under the journal lock via AppendFunc on
// the publish path (atomic with seq assignment) and under b.mu alone
// during replay (where barriers protect ordering instead).
func (b *Broker) registerPending(ids []message.SubID, seq uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, id := range ids {
		st, ok := b.durable[id]
		if !ok {
			continue
		}
		if _, have := st.pending[seq]; !have {
			st.pending[seq] = false
		}
		if seq > st.maxSeen {
			st.maxSeen = seq
		}
	}
}

// ackDurable acknowledges one delivered journal seq and advances the
// cursor as far as the delivery window allows. Runs on notifier worker
// goroutines.
func (b *Broker) ackDurable(id message.SubID, seq uint64) {
	b.mu.Lock()
	st, ok := b.durable[id]
	if !ok {
		b.mu.Unlock()
		return
	}
	delete(st.pending, seq)
	b.acked++
	newCursor, advanced := st.advance()
	j := b.journal
	b.mu.Unlock()
	if advanced && j != nil {
		j.SetCursor(cursorKey(id), newCursor)
	}
}

// parkDurable marks a delivery attempt as parked: the seq stays
// pending (pinning the cursor) but only a replay will retry it. It
// reports whether the subscription is (still) durable — when true the
// notifier skips its dead-letter list, because the journal retains the
// publication.
func (b *Broker) parkDurable(id message.SubID, seq uint64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	st, ok := b.durable[id]
	if !ok {
		return false
	}
	if wasParked, have := st.pending[seq]; !have || !wasParked {
		st.pending[seq] = true
		b.parked++
		if sc := b.subCountersFor(id); sc != nil {
			sc.parked.Add(1)
		}
	}
	if seq > st.maxSeen {
		st.maxSeen = seq
	}
	return true
}

// dropDurable forgets a durable subscription's state on unsubscribe.
func (b *Broker) dropDurable(id message.SubID) {
	b.mu.Lock()
	_, was := b.durable[id]
	delete(b.durable, id)
	j := b.journal
	b.mu.Unlock()
	if was && j != nil {
		j.DeleteCursor(cursorKey(id))
	}
}

// ResumeDurable re-attaches a durable subscriber after a reconnect:
// everything past the subscription's cursor that matches it is
// re-dispatched. Returns the number of notifications re-dispatched.
// When the subscription was paged out to the store (DetachDurable), it
// is faulted back into residency first.
func (b *Broker) ResumeDurable(client string, id message.SubID) (int, error) {
	b.mu.Lock()
	owner, ok := b.subs[id]
	if !ok {
		b.mu.Unlock()
		if err := b.faultIn(client, id); err != nil {
			return 0, err
		}
		return b.replay([]message.SubID{id})
	}
	if owner != client {
		b.mu.Unlock()
		return 0, fmt.Errorf("broker: subscription %d belongs to %q, not %q: %w", id, owner, client, ErrNotOwner)
	}
	if _, durable := b.durable[id]; !durable {
		b.mu.Unlock()
		return 0, fmt.Errorf("broker: subscription %d: %w", id, ErrNotDurable)
	}
	b.mu.Unlock()
	return b.replay([]message.SubID{id})
}

// CatchUp replays every durable subscription from its cursor — the
// restart path: call it after Restore (with the journal attached) to
// re-dispatch everything the previous incarnation never acknowledged.
func (b *Broker) CatchUp() (int, error) {
	b.mu.Lock()
	ids := make([]message.SubID, 0, len(b.durable))
	for id := range b.durable {
		ids = append(ids, id)
	}
	b.mu.Unlock()
	if len(ids) == 0 {
		return 0, nil
	}
	return b.replay(ids)
}

// replay scans the journal once and re-dispatches, for each target
// subscription, every record past its cursor that matches it —
// skipping seqs with a live in-flight delivery (they will ack or park
// on their own) but re-dispatching parked ones. Target cursors are
// frozen for the duration: a record the scan has not reached yet is
// not in pending, so without the freeze a concurrent ack could walk
// the cursor over it.
func (b *Broker) replay(ids []message.SubID) (int, error) {
	b.mu.Lock()
	j := b.journal
	if j == nil {
		b.mu.Unlock()
		return 0, fmt.Errorf("broker: %w", ErrNoJournal)
	}
	if b.notifier == nil {
		b.mu.Unlock()
		return 0, fmt.Errorf("broker: replay needs a notifier")
	}
	type target struct {
		id     message.SubID
		client string
		from   uint64
		sub    message.Subscription // canonicalized form, matched per record
	}
	targets := make([]target, 0, len(ids))
	minFrom := uint64(0)
	for _, id := range ids {
		st, ok := b.durable[id]
		if !ok {
			continue
		}
		st.barriers++
		t := target{id: id, client: b.subs[id], from: st.cursor + 1}
		targets = append(targets, t)
		if minFrom == 0 || t.from < minFrom {
			minFrom = t.from
		}
	}
	b.mu.Unlock()
	if len(targets) == 0 {
		return 0, nil
	}
	defer func() {
		// Lift the barriers and let the cursors catch up with whatever
		// acked while they were frozen.
		b.mu.Lock()
		type adv struct {
			id  message.SubID
			cur uint64
		}
		var advs []adv
		for _, t := range targets {
			st, ok := b.durable[t.id]
			if !ok {
				continue
			}
			st.barriers--
			if st.barriers == 0 {
				if cur, ok := st.advance(); ok {
					advs = append(advs, adv{t.id, cur})
				}
			}
		}
		b.mu.Unlock()
		for _, a := range advs {
			j.SetCursor(cursorKey(a.id), a.cur)
		}
	}()

	// Canonicalize each target's subscription ONCE (in semantic mode
	// the stage rewrites its terms), and saturate each record's event
	// ONCE — matching is then the reference Subscription.Matches on
	// the saturated event, exactly what Publish matches, instead of a
	// full per-(record×target) Explain whose repeated saturation would
	// make catch-up O(records × subs) in stage work.
	mode := b.engine.Mode()
	stage := b.engine.Stage()
	semanticMode := mode == core.Semantic && stage != nil
	live := targets[:0]
	for _, t := range targets {
		sub, ok := b.engine.Subscription(t.id)
		if !ok {
			continue // raced with unsubscribe; barrier lifts in the defer
		}
		t.sub = sub.Clone()
		if semanticMode {
			t.sub, _ = stage.ProcessSubscription(t.sub)
		}
		live = append(live, t)
	}
	targets = live

	redispatched := 0
	err := j.Scan(minFrom, func(rec journal.Record) error {
		ev := rec.Event
		if semanticMode {
			ev = stage.ProcessEvent(rec.Event).Event
		}
		for _, t := range targets {
			if rec.Seq < t.from || !t.sub.Matches(ev) {
				continue
			}
			// Claim the seq atomically with the skip checks so a
			// concurrent ack cannot slip between decision and
			// registration.
			b.mu.Lock()
			st, stillDurable := b.durable[t.id]
			claim := stillDurable && rec.Seq > st.cursor
			if claim {
				if parked, inflight := st.pending[rec.Seq]; inflight && !parked {
					claim = false // live delivery in flight; it will settle itself
				}
			}
			if claim {
				st.pending[rec.Seq] = false
				if rec.Seq > st.maxSeen {
					st.maxSeen = rec.Seq
				}
			}
			b.mu.Unlock()
			if !claim {
				continue
			}
			n := notify.Notification{
				SubID:      t.id,
				Subscriber: t.client,
				Event:      rec.Event,
				Mode:       mode.String(),
				JournalSeq: rec.Seq,
				PubID:      rec.PubID,
			}
			b.tracer.Load().Observe(rec.PubID, trace.KindReplay, time.Now(), 0)
			if _, routed := b.notifier.RouteOf(t.client); !routed {
				b.parkDurable(t.id, rec.Seq)
				continue
			}
			if err := b.notifier.Dispatch(n); err != nil {
				b.parkDurable(t.id, rec.Seq)
				continue
			}
			redispatched++
		}
		return nil
	})
	b.mu.Lock()
	b.replayed += uint64(redispatched)
	b.mu.Unlock()
	return redispatched, err
}
