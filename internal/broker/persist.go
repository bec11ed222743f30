package broker

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"stopss/internal/knowledge"
	"stopss/internal/message"
	"stopss/internal/notify"
)

// Snapshot / Restore persist the broker's durable state — clients,
// routes, advertisements, the applied knowledge-delta log, and
// subscriptions — as a stream of JSON lines, so a restarted event
// dispatcher resumes with the same subscription base AND the same
// knowledge-base version: on rejoin it replays only deltas it has not
// seen instead of re-flooding (or re-receiving) the federation's whole
// knowledge history from zero. Transient state (counters, in-flight
// notifications) is deliberately excluded.
//
// Format: one header line, then one line per record. Knowledge deltas
// precede subscriptions so restored subscriptions index under the
// restored knowledge:
//
//	{"kind":"header","version":1,"next_id":42}
//	{"kind":"client","client":{...}}
//	{"kind":"kbdelta","kb":{...}}
//	{"kind":"advertisement","adv":{...}}
//	{"kind":"subscription","sub":{...}}
//	{"kind":"subscription","sub":{...},"durable":true,"cursor":17}
//
// Durable subscriptions carry their journal cursor: on Restore (with
// the journal attached first) the cursor merges with the journal's own
// persisted one — max wins, both only ever lag the acked truth — so a
// restarted broker resumes at-least-once delivery where it left off.

const snapshotVersion = 1

type snapRecord struct {
	Kind    string                `json:"kind"`
	Version int                   `json:"version,omitempty"`
	NextID  message.SubID         `json:"next_id,omitempty"`
	Client  *snapClient           `json:"client,omitempty"`
	Sub     *message.Subscription `json:"sub,omitempty"`
	Durable bool                  `json:"durable,omitempty"`
	Cursor  uint64                `json:"cursor,omitempty"`
	Adv     *snapAdvert           `json:"adv,omitempty"`
	KB      *knowledge.Delta      `json:"kb,omitempty"`
}

type snapClient struct {
	Name      string `json:"name"`
	Transport string `json:"transport,omitempty"`
	Addr      string `json:"addr,omitempty"`
}

type snapAdvert struct {
	Publisher string              `json:"publisher"`
	Preds     []message.Predicate `json:"preds"`
}

// Snapshot writes the broker's durable state to w.
func (b *Broker) Snapshot(w io.Writer) error {
	b.mu.Lock()
	header := snapRecord{Kind: "header", Version: snapshotVersion, NextID: b.nextID}
	clients := make([]snapClient, 0, len(b.clients))
	for _, c := range b.clients {
		clients = append(clients, snapClient{Name: c.Name, Transport: c.Route.Transport, Addr: c.Route.Addr})
	}
	ids := make([]message.SubID, 0, len(b.subs))
	for id := range b.subs {
		ids = append(ids, id)
	}
	b.mu.Unlock()
	sort.Slice(clients, func(i, j int) bool { return clients[i].Name < clients[j].Name })
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(header); err != nil {
		return fmt.Errorf("broker: writing snapshot header: %w", err)
	}
	for i := range clients {
		if err := enc.Encode(snapRecord{Kind: "client", Client: &clients[i]}); err != nil {
			return fmt.Errorf("broker: writing client: %w", err)
		}
	}
	for _, d := range b.KnowledgeLog() {
		d := d
		if err := enc.Encode(snapRecord{Kind: "kbdelta", KB: &d}); err != nil {
			return fmt.Errorf("broker: writing knowledge delta %s: %w", d.ID(), err)
		}
	}
	for _, a := range b.Advertisements() {
		if err := enc.Encode(snapRecord{Kind: "advertisement",
			Adv: &snapAdvert{Publisher: a.Publisher, Preds: a.Preds}}); err != nil {
			return fmt.Errorf("broker: writing advertisement of %q: %w", a.Publisher, err)
		}
	}
	for _, id := range ids {
		sub, ok := b.engine.Subscription(id)
		if !ok {
			continue // raced with unsubscribe
		}
		rec := snapRecord{Kind: "subscription", Sub: &sub}
		b.mu.Lock()
		if st, durable := b.durable[id]; durable {
			rec.Durable = true
			rec.Cursor = st.cursor
		}
		b.mu.Unlock()
		if err := enc.Encode(rec); err != nil {
			return fmt.Errorf("broker: writing subscription %d: %w", id, err)
		}
	}
	return bw.Flush()
}

// Restore loads a snapshot into an EMPTY broker (one with no clients,
// subscriptions, advertisements or applied knowledge deltas).
// Restoring into a non-empty broker is rejected to avoid silently
// merging states — for the knowledge log in particular, folding a
// snapshot's deltas over an already-evolved base would produce a
// digest matching neither history, a divergence no later check could
// explain.
func (b *Broker) Restore(r io.Reader) error {
	b.mu.Lock()
	kbDeltas := 0
	if kb := b.engine.Knowledge(); kb != nil {
		kbDeltas = kb.Len()
	}
	if len(b.clients) != 0 || len(b.subs) != 0 || len(b.adverts) != 0 || kbDeltas != 0 {
		b.mu.Unlock()
		return fmt.Errorf("broker: restore requires an empty broker (%d clients, %d subscriptions, %d advertisements, %d knowledge deltas present)",
			len(b.clients), len(b.subs), len(b.adverts), kbDeltas)
	}
	b.mu.Unlock()

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 8*1024*1024)
	line := 0
	sawHeader := false
	var maxID message.SubID
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec snapRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return fmt.Errorf("broker: snapshot line %d: %w", line, err)
		}
		switch rec.Kind {
		case "header":
			if rec.Version != snapshotVersion {
				return fmt.Errorf("broker: snapshot version %d unsupported (want %d)", rec.Version, snapshotVersion)
			}
			sawHeader = true
			b.mu.Lock()
			// Never lower the watermark: AttachStore may already have
			// raised it past detached IDs the snapshot predates.
			if rec.NextID > b.nextID {
				b.nextID = rec.NextID
			}
			b.mu.Unlock()
		case "client":
			if !sawHeader {
				return fmt.Errorf("broker: snapshot line %d: record before header", line)
			}
			if rec.Client == nil {
				return fmt.Errorf("broker: snapshot line %d: client record without payload", line)
			}
			c := Client{Name: rec.Client.Name}
			if rec.Client.Transport != "" {
				c.Route = notify.Route{Transport: rec.Client.Transport, Addr: rec.Client.Addr}
			}
			if err := b.Register(c); err != nil {
				return fmt.Errorf("broker: snapshot line %d: %w", line, err)
			}
		case "kbdelta":
			if !sawHeader {
				return fmt.Errorf("broker: snapshot line %d: record before header", line)
			}
			if rec.KB == nil {
				return fmt.Errorf("broker: snapshot line %d: kbdelta record without payload", line)
			}
			// Applied directly on the engine: the delta keeps its original
			// stamp and must not be re-offered to a forwarder here — the
			// overlay replays the restored log itself when links come up.
			if _, err := b.engine.ApplyKnowledge(*rec.KB); err != nil {
				return fmt.Errorf("broker: snapshot line %d: %w", line, err)
			}
		case "advertisement":
			if !sawHeader {
				return fmt.Errorf("broker: snapshot line %d: record before header", line)
			}
			if rec.Adv == nil {
				return fmt.Errorf("broker: snapshot line %d: advertisement record without payload", line)
			}
			if err := b.Advertise(rec.Adv.Publisher, rec.Adv.Preds); err != nil {
				return fmt.Errorf("broker: snapshot line %d: %w", line, err)
			}
		case "subscription":
			if !sawHeader {
				return fmt.Errorf("broker: snapshot line %d: record before header", line)
			}
			if rec.Sub == nil {
				return fmt.Errorf("broker: snapshot line %d: subscription record without payload", line)
			}
			s := *rec.Sub
			if err := b.engine.Subscribe(s); err != nil {
				return fmt.Errorf("broker: snapshot line %d: %w", line, err)
			}
			b.mu.Lock()
			b.subs[s.ID] = s.Subscriber
			b.addSubCounters(s.ID)
			b.mu.Unlock()
			if rec.Durable {
				b.restoreDurable(s.ID, rec.Cursor)
			}
			if s.ID > maxID {
				maxID = s.ID
			}
		default:
			return fmt.Errorf("broker: snapshot line %d: unknown record kind %q", line, rec.Kind)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("broker: reading snapshot: %w", err)
	}
	if !sawHeader {
		return fmt.Errorf("broker: snapshot has no header")
	}
	// Guard against a header that under-reports the ID watermark.
	b.mu.Lock()
	if maxID > b.nextID {
		b.nextID = maxID
	}
	b.mu.Unlock()
	return nil
}
