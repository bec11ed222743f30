// Package broker implements the event dispatcher of a pub/sub system
// (paper §1): it records client registrations and subscriptions, runs
// every publication through the S-ToPSS engine, and forwards matches to
// the notification engine.
//
// The broker is the composition root of Figure 2's server side:
//
//	web app / workload generator → Broker → core.Engine → notify.Engine
package broker

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"stopss/internal/core"
	"stopss/internal/journal"
	"stopss/internal/knowledge"
	"stopss/internal/matching"
	"stopss/internal/message"
	"stopss/internal/notify"
	"stopss/internal/store"
	"stopss/internal/trace"
)

// Client is a registered participant: a company (subscriber) or a
// candidate (publisher) in the job-finder scenario. One client may both
// publish and subscribe.
type Client struct {
	Name  string
	Route notify.Route // where notifications go; zero Route means none
}

// Stats summarizes broker activity.
type Stats struct {
	Clients               int
	Subscriptions         int
	Durable               int // durable subscriptions (journal-backed)
	Published             uint64
	Notified              uint64
	RemoteDelivered       uint64 // publications accepted from peer brokers
	DropsNoRoute          uint64
	RejectedNonConforming uint64
	Acked                 uint64 // durable deliveries acknowledged
	Parked                uint64 // durable deliveries parked for replay
	Replayed              uint64 // notifications re-dispatched by catch-up replay
	Detached              int    // durable subscriptions paged out to the store
	Detaches              uint64 // DetachDurable calls
	FaultedIn             uint64 // detached subscriptions faulted back in by resume
	KBLocal               uint64 // knowledge deltas injected locally
	KBRemote              uint64 // knowledge deltas applied from peer brokers
	JournalEnabled        bool
	StoreEnabled          bool
	Journal               journal.Stats       // zero when no journal attached
	Store                 store.Stats         // zero when no store attached
	Notify                notify.Stats        // dead-letter/park counters; zero without a notifier
	Engine                core.Stats          // includes KBDeltas/KBVersion (federation skew check)
	Remote                RemoteStats         // overlay routing counters; zero when standalone
	Trace                 trace.Stats         // tracer ring/sampling counters
	Stages                trace.StageSnapshot // per-stage latency histograms (DESIGN §10)
}

// Broker is the event dispatcher.
type Broker struct {
	engine   core.PubSub
	notifier *notify.Engine
	// tracer mints publication IDs and records the per-stage span chain
	// (DESIGN §10). Never nil — New installs a default; SetTracer
	// replaces it (before traffic, so one identity mints every ID).
	tracer atomic.Pointer[trace.Tracer]

	mu      sync.Mutex
	clients map[string]Client
	subs    map[message.SubID]string // sub → client name
	nextID  message.SubID

	adverts map[string]matching.Advertisement

	journal *journal.Journal                // durable publication log; nil when not attached
	durable map[message.SubID]*durableState // delivery windows of durable subscriptions

	// store pages detached durable subscriptions out of RAM (store.go).
	// detachedFloor/detachedCount back the journal's external ack floor;
	// they are atomics because the journal reads them under its own lock
	// (writers hold b.mu, readers don't).
	store         *store.Store
	detachedFloor atomic.Uint64
	detachedCount atomic.Int64

	forwarder   Forwarder          // overlay hook; nil when standalone
	remoteStats func() RemoteStats // overlay stats source; nil when standalone
	kbOrigin    *knowledge.Origin  // stamps unstamped local deltas

	// subStats holds per-subscription delivery accounting blocks
	// (substats.go): SubID → *subCounters, updated lock-free on the
	// publish and delivery-hook paths.
	subStats sync.Map

	published             uint64
	notified              uint64
	remoteDelivered       uint64
	dropsNoRoute          uint64
	rejectedNonConforming uint64
	acked                 uint64
	parked                uint64
	replayed              uint64
	detaches              uint64
	faultedIn             uint64
	kbLocal               uint64
	kbRemote              uint64
}

// New builds a broker over an engine and an optional notifier (nil means
// matches are returned to the publisher but not delivered anywhere).
func New(engine core.PubSub, notifier *notify.Engine) *Broker {
	b := &Broker{
		engine:   engine,
		notifier: notifier,
		clients:  make(map[string]Client),
		subs:     make(map[message.SubID]string),
		durable:  make(map[message.SubID]*durableState),
	}
	b.tracer.Store(trace.New(trace.Config{}))
	if notifier != nil {
		// One delivery hook serves both consumers of per-delivery
		// outcomes: the tracer (terminal deliver/dead-letter/park spans,
		// end-to-end latency) and the durable journal (ack/park via
		// JournalSeq) — see deliveryOutcome.
		notifier.SetDeliveryHook(b.deliveryOutcome)
	}
	return b
}

// Engine exposes the underlying S-ToPSS engine (mode switching, stats).
func (b *Broker) Engine() core.PubSub { return b.engine }

// Tracer exposes the broker's publication tracer.
func (b *Broker) Tracer() *trace.Tracer { return b.tracer.Load() }

// SetTracer replaces the broker's tracer (overlay nodes and servers
// install one carrying the node name). Call before any traffic: IDs
// minted by the previous tracer stay resolvable only through it.
func (b *Broker) SetTracer(t *trace.Tracer) {
	if t != nil {
		b.tracer.Store(t)
	}
}

// deliveryOutcome is the notifier's DeliveryHook: it closes the
// publication's span chain for this subscriber and drives the durable
// ack/park state machine. Returning true claims a failed durable
// delivery for journal replay (skipping the dead-letter list).
func (b *Broker) deliveryOutcome(n notify.Notification, _ notify.Route, err error, attempts int) bool {
	tr := b.tracer.Load()
	sc := b.subCountersFor(n.SubID)
	if attempts > 1 {
		sc.retried.Add(uint64(attempts - 1))
	}
	if err == nil {
		sc.delivered.Add(1)
		sc.lastDelivery.Store(time.Now().UnixNano())
		if n.JournalSeq != 0 {
			b.ackDurable(n.SubID, n.JournalSeq)
		}
		tr.Outcome(n.PubID, trace.KindDeliver, n.Subscriber, uint64(n.SubID), time.Now(), 0, "")
		return false
	}
	parked := false
	if n.JournalSeq != 0 {
		parked = b.parkDurable(n.SubID, n.JournalSeq)
	}
	if !parked {
		sc.deadLettered.Add(1)
	}
	kind := trace.KindDeadLetter
	if parked {
		kind = trace.KindPark
	}
	tr.Outcome(n.PubID, kind, n.Subscriber, uint64(n.SubID), time.Now(), 0, err.Error())
	return parked
}

// Register adds or updates a client. When the client has a route and a
// notifier is attached, the route is installed.
func (b *Broker) Register(c Client) error {
	if c.Name == "" {
		return fmt.Errorf("broker: client needs a name")
	}
	if b.notifier != nil && c.Route.Transport != "" {
		if err := b.notifier.SetRoute(c.Name, c.Route); err != nil {
			return fmt.Errorf("broker: registering %q: %w", c.Name, err)
		}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.clients[c.Name] = c
	return nil
}

// Clients lists registered client names, sorted.
func (b *Broker) Clients() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]string, 0, len(b.clients))
	for n := range b.clients {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Subscribe stores a subscription for the named client and returns its
// assigned ID.
func (b *Broker) Subscribe(client string, preds []message.Predicate) (message.SubID, error) {
	b.mu.Lock()
	if _, ok := b.clients[client]; !ok {
		b.mu.Unlock()
		return 0, fmt.Errorf("broker: %w %q", ErrUnknownClient, client)
	}
	b.nextID++
	id := b.nextID
	b.mu.Unlock()

	s := message.NewSubscription(id, client, preds...)
	if err := b.engine.Subscribe(s); err != nil {
		return 0, err
	}
	b.mu.Lock()
	b.subs[id] = client
	f := b.forwarder
	b.mu.Unlock()
	if f != nil {
		f.SubscriptionChanged(s, true)
	}
	return id, nil
}

// Unsubscribe removes a subscription. Only the owning client may remove
// it.
func (b *Broker) Unsubscribe(client string, id message.SubID) error {
	b.mu.Lock()
	owner, ok := b.subs[id]
	if !ok {
		f := b.forwarder
		b.mu.Unlock()
		// Not resident — it may be a detached durable subscription whose
		// record lives only in the store.
		sub, had, err := b.dropDetached(client, id)
		if err != nil {
			return err
		}
		if !had {
			return fmt.Errorf("broker: %w %d", ErrUnknownSubscription, id)
		}
		b.dropSubCounters(id)
		if f != nil {
			// Detach kept the overlay interest alive; a real unsubscribe
			// finally retracts it.
			f.SubscriptionChanged(sub, false)
		}
		return nil
	}
	if owner != client {
		b.mu.Unlock()
		return fmt.Errorf("broker: subscription %d belongs to %q, not %q: %w", id, owner, client, ErrNotOwner)
	}
	delete(b.subs, id)
	f := b.forwarder
	b.mu.Unlock()
	b.dropDurable(id)
	b.dropSubCounters(id)
	sub, had := b.engine.Subscription(id)
	b.engine.Unsubscribe(id)
	if f != nil && had {
		f.SubscriptionChanged(sub, false)
	}
	return nil
}

// SubscriptionsOf lists the subscription IDs of one client, ascending.
func (b *Broker) SubscriptionsOf(client string) []message.SubID {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []message.SubID
	for id, owner := range b.subs {
		if owner == client {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// PublishResult reports one publication's outcome to the publisher.
type PublishResult struct {
	Matches  []message.SubID
	Notified int // notifications successfully enqueued
	Dropped  int // matches without a routable subscriber
	// Parked counts durable matches that could not be dispatched now
	// (no route, full queue): the journal retains them and catch-up
	// replay will redeliver — parked, not lost.
	Parked int
	// JournalSeq is the publication's journal sequence number (0 when
	// no journal is attached).
	JournalSeq uint64
	// PubID is the publication's federation-wide trace identity
	// (`broker#epoch/seq`); feed it to GET /api/v1/trace/<pubID>.
	PubID string
}

// Publish runs the publication through the engine and dispatches one
// notification per match. Publishing does not require registration —
// candidates in the demo scenario submit resumes anonymously.
func (b *Broker) Publish(ev message.Event) (PublishResult, error) {
	tr := b.tracer.Load()
	pubID := tr.NewPubID()
	t0 := time.Now()
	tr.StampLocal(pubID, t0)
	res, err := b.publish(ev, pubID, false)
	if err == nil {
		tr.Observe(pubID, trace.KindPublish, t0, time.Since(t0))
	}
	return res, err
}

// DeliverRemote accepts a publication forwarded by a peer broker: it is
// matched and notified locally exactly like Publish, but is NOT offered
// to the forwarder again — the overlay layer owns inter-broker
// propagation (and its loop prevention).
func (b *Broker) DeliverRemote(ev message.Event) (PublishResult, error) {
	return b.publish(ev, "", true)
}

// DeliverRemotePub is DeliverRemote carrying the publication's
// federation-wide identity, so local matching/journal/delivery spans
// land on the trace the origin broker started. The overlay node stamps
// the trace (Tracer.StampRemote) before calling this.
func (b *Broker) DeliverRemotePub(ev message.Event, pubID string) (PublishResult, error) {
	return b.publish(ev, pubID, true)
}

func (b *Broker) publish(ev message.Event, pubID string, remote bool) (PublishResult, error) {
	tr := b.tracer.Load()
	tMatch := time.Now()
	res, err := b.engine.Publish(ev)
	if err != nil {
		return PublishResult{}, err
	}
	tr.Observe(pubID, trace.KindMatch, tMatch, time.Since(tMatch))
	out := PublishResult{Matches: res.Matches, PubID: pubID}

	// Journal append BEFORE notification fan-out: once the record is
	// in the log, a crash anywhere downstream cannot lose a durable
	// delivery — the cursor stays behind and replay redelivers. The
	// durable matches are registered as pending atomically with
	// sequence assignment (AppendFunc) so a concurrent ack of a later
	// seq can never advance a cursor over this one.
	b.mu.Lock()
	j := b.journal
	b.mu.Unlock()
	var durableIDs map[message.SubID]bool
	if j != nil {
		ids := b.durableMatches(res.Matches)
		tAppend := time.Now()
		out.JournalSeq, err = j.AppendTraced(ev, remote, pubID, func(seq uint64) {
			b.registerPending(ids, seq)
		})
		if err != nil {
			return PublishResult{}, fmt.Errorf("broker: journaling publication: %w", err)
		}
		tr.Observe(pubID, trace.KindJournal, tAppend, time.Since(tAppend))
		if len(ids) > 0 {
			durableIDs = make(map[message.SubID]bool, len(ids))
			for _, id := range ids {
				durableIDs[id] = true
			}
		}
	}

	b.mu.Lock()
	if remote {
		b.remoteDelivered++
	} else {
		b.published++
	}
	f := b.forwarder
	b.mu.Unlock()
	if f != nil && !remote {
		f.PublicationAccepted(ev, pubID)
	}

	if b.notifier == nil {
		return out, nil
	}
	mode := b.engine.Mode().String()
	for _, id := range res.Matches {
		sub, ok := b.engine.Subscription(id)
		if !ok {
			continue // raced with unsubscribe
		}
		b.subCountersFor(id).matched.Add(1)
		n := notify.Notification{
			SubID:      id,
			Subscriber: sub.Subscriber,
			Event:      ev,
			Mode:       mode,
			PubID:      pubID,
		}
		if durableIDs[id] {
			n.JournalSeq = out.JournalSeq
		}
		if _, routed := b.notifier.RouteOf(sub.Subscriber); !routed {
			if durableIDs[id] {
				// No endpoint right now: the journal keeps the event;
				// replay on reconnect redelivers it.
				b.parkDurable(id, out.JournalSeq)
				tr.Outcome(pubID, trace.KindPark, sub.Subscriber, uint64(id), time.Now(), 0, "no route")
				out.Parked++
				continue
			}
			out.Dropped++
			tr.Outcome(pubID, trace.KindUndeliverab, sub.Subscriber, uint64(id), time.Now(), 0, "no route")
			b.mu.Lock()
			b.dropsNoRoute++
			b.mu.Unlock()
			continue
		}
		if err := b.notifier.Dispatch(n); err != nil {
			if durableIDs[id] {
				b.parkDurable(id, out.JournalSeq)
				tr.Outcome(pubID, trace.KindPark, sub.Subscriber, uint64(id), time.Now(), 0, err.Error())
				out.Parked++
				continue
			}
			out.Dropped++
			tr.Outcome(pubID, trace.KindUndeliverab, sub.Subscriber, uint64(id), time.Now(), 0, err.Error())
			b.mu.Lock()
			b.dropsNoRoute++
			b.mu.Unlock()
			continue
		}
		out.Notified++
	}
	b.mu.Lock()
	b.notified += uint64(out.Notified)
	b.mu.Unlock()
	return out, nil
}

// Stats snapshots broker counters.
func (b *Broker) Stats() Stats {
	b.mu.Lock()
	s := Stats{
		Clients:               len(b.clients),
		Subscriptions:         len(b.subs),
		Durable:               len(b.durable),
		Published:             b.published,
		Notified:              b.notified,
		RemoteDelivered:       b.remoteDelivered,
		DropsNoRoute:          b.dropsNoRoute,
		RejectedNonConforming: b.rejectedNonConforming,
		Acked:                 b.acked,
		Parked:                b.parked,
		Replayed:              b.replayed,
		Detaches:              b.detaches,
		FaultedIn:             b.faultedIn,
		KBLocal:               b.kbLocal,
		KBRemote:              b.kbRemote,
	}
	rs := b.remoteStats
	j := b.journal
	st := b.store
	b.mu.Unlock()
	if j != nil {
		s.JournalEnabled = true
		s.Journal = j.Stats()
	}
	if st != nil {
		s.StoreEnabled = true
		s.Store = st.Stats()
		s.Detached = s.Store.Records
	}
	if b.notifier != nil {
		s.Notify = b.notifier.Stats()
	}
	s.Engine = b.engine.Stats()
	if rs != nil {
		s.Remote = rs()
	}
	tr := b.tracer.Load()
	s.Trace = tr.Stats()
	s.Stages = tr.Stages()
	return s
}
