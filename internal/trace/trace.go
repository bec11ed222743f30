// Package trace implements per-publication distributed tracing across
// the whole S-ToPSS delivery path (DESIGN.md §10).
//
// Every publication a broker accepts is assigned a federation-unique
// trace ID — its publication ID `broker#epoch/seq`, the same identity
// the overlay already uses for duplicate suppression. Each stage the
// publication passes through (publish admission, journal append,
// match, per-link forward, remote receive, terminal deliver/ack or
// dead-letter) records a Span against that ID. Spans travel with the
// publication: overlay pub frames carry the accumulated span records
// of every broker already visited, and terminal delivery outcomes on a
// remote broker are reported BACK along the reverse forwarding path,
// so the publishing broker (and every broker en route) ends up holding
// the assembled span tree. `GET /api/v1/trace/<pubID>` serves it. A
// report carries only the spans its sender has not sent before, and a
// broker accepts a publication once, so each span crosses each link of
// the reverse path exactly once.
//
// Traces live in a bounded in-memory ring with head-based sampling:
// the origin broker decides at publish time whether a publication is
// traced (keep 1 in Config.Sample), and downstream brokers inherit the
// decision through the presence of span records on the frame.
// Retry-exhausted and dead-lettered deliveries are ALWAYS kept — a
// failed delivery forces a (possibly partial) trace into a separate
// ring that ordinary churn cannot evict — because the slowest and the
// failing deliveries are exactly the ones worth inspecting.
//
// The tracer doubles as the per-stage latency instrumentation point:
// every span boundary feeds a stage histogram (match ns, journal
// append+commit ns, end-to-end publish→ack, …) in the tracer's metrics
// registry, which the Prometheus exposition handler (/metrics) renders.
package trace

import (
	cryptorand "crypto/rand"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"stopss/internal/metrics"
)

// Span kinds, in rough delivery-path order.
const (
	KindPublish     = "publish"        // publication admitted at its origin broker
	KindJournal     = "journal_append" // journal append + group commit
	KindMatch       = "match"          // engine matching (semantic expansion + index probe)
	KindForward     = "forward"        // frame enqueued toward a peer (Link = peer)
	KindRecv        = "recv"           // publication accepted from a peer (Link = peer)
	KindDeliver     = "deliver"        // notification acknowledged by the subscriber transport
	KindDeadLetter  = "dead_letter"    // retries exhausted, parked on the dead-letter list
	KindPark        = "park"           // durable delivery parked for journal replay
	KindReplay      = "replay"         // notification re-dispatched by catch-up replay
	KindUndeliverab = "undeliverable"  // no route for a non-durable match
)

// Span is one timed step of a publication's journey. Broker+Seq
// identify a span federation-wide (Seq is per-tracer monotonic).
type Span struct {
	Broker string    `json:"broker"`
	Seq    uint64    `json:"seq"`
	Kind   string    `json:"kind"`
	Start  time.Time `json:"start"`
	Dur    int64     `json:"dur_ns,omitempty"`
	Link   string    `json:"link,omitempty"`   // peer name for forward/recv
	Sub    string    `json:"sub,omitempty"`    // subscriber for delivery outcomes
	SubID  uint64    `json:"sub_id,omitempty"` // subscription for delivery outcomes
	Err    string    `json:"err,omitempty"`
}

// Config tunes a tracer.
type Config struct {
	// Broker is the identity stamped on every local span and into
	// minted publication IDs. Must be federation-unique (use the
	// overlay node name); empty generates a random identity.
	Broker string
	// Sample keeps 1 in Sample publications (head-based, decided at
	// publish admission on the origin broker). 0 (the zero value)
	// defaults to 1, tracing everything; a negative value disables
	// tracing entirely — publication IDs are still minted (the overlay
	// needs them for dedup), but no spans are recorded except forced
	// dead-letter/park traces.
	Sample int
	// Capacity bounds the ring of recent traces (default 1024). The
	// forced ring (dead-lettered/parked deliveries) holds up to
	// Capacity/4 extra traces.
	Capacity int
	// Registry receives the per-stage latency histograms; nil
	// allocates a private one.
	Registry *metrics.Registry
}

// Reporter carries a publication's spans toward its origin. The
// overlay node installs one that sends a trace report frame on the
// upstream link; spans are the publication's spans this tracer has not
// sent upstream before — its own new spans and those merged from
// downstream reports. Called synchronously from delivery worker and
// link reader goroutines — implementations must not block.
type Reporter func(pubID, upstream string, spans []Span)

// Stats summarizes tracer activity.
type Stats struct {
	Stamped    uint64 `json:"stamped"`     // publications stamped (traced)
	SampledOut uint64 `json:"sampled_out"` // publications skipped by head sampling
	Spans      uint64 `json:"spans"`       // local spans recorded
	Merged     uint64 `json:"merged"`      // remote spans merged from frames/reports
	Evicted    uint64 `json:"evicted"`     // traces dropped by the ring bound
	Forced     uint64 `json:"forced"`      // traces pinned by a failed delivery
	Held       int    `json:"held"`        // traces currently in memory
}

// pubTrace is one publication's accumulated state.
type pubTrace struct {
	spans    []Span
	sent     int       // spans[:sent] are already held upstream
	upstream string    // peer the publication arrived from ("" at origin)
	start    time.Time // publish/recv time, for the end-to-end histogram
	origin   bool      // minted here (publish→ack observed here)
	forced   bool      // pinned in the forced ring
}

// Tracer collects spans for recent publications on one broker.
type Tracer struct {
	broker string
	epoch  string
	sample int
	cap    int

	pubSeq    atomic.Uint64 // publication IDs
	sampleSeq atomic.Uint64 // local stamps, for head sampling

	mu       sync.Mutex
	spanSeq  uint64
	traces   map[string]*pubTrace
	ring     []string // eviction order for unforced traces
	forcedQ  []string // eviction order for forced traces
	reporter Reporter
	stats    Stats

	reg        *metrics.Registry
	hMatch     *metrics.Histogram
	hJournal   *metrics.Histogram
	hPublish   *metrics.Histogram
	hDeliver   *metrics.Histogram
	hEndToEnd  *metrics.Histogram
	cSpans     *metrics.Counter
	cSampled   *metrics.Counter
	cSampleOut *metrics.Counter
}

// New builds a tracer.
func New(cfg Config) *Tracer {
	if cfg.Broker == "" {
		cfg.Broker = "broker-" + newEpoch()
	}
	switch {
	case cfg.Sample == 0:
		cfg.Sample = 1 // zero value: trace everything
	case cfg.Sample < 0:
		cfg.Sample = 0 // explicit off
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = 1024
	}
	reg := cfg.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return &Tracer{
		broker: cfg.Broker,
		epoch:  newEpoch(),
		sample: cfg.Sample,
		cap:    cfg.Capacity,
		traces: make(map[string]*pubTrace),
		reg:    reg,

		hMatch:     reg.Histogram("stage.match"),
		hJournal:   reg.Histogram("stage.journal_append"),
		hPublish:   reg.Histogram("stage.publish"),
		hDeliver:   reg.Histogram("stage.deliver"),
		hEndToEnd:  reg.Histogram("stage.publish_to_ack"),
		cSpans:     reg.Counter("trace.spans"),
		cSampled:   reg.Counter("trace.stamped"),
		cSampleOut: reg.Counter("trace.sampled_out"),
	}
}

// Broker returns the tracer's broker identity.
func (t *Tracer) Broker() string { return t.broker }

// Registry exposes the tracer's metrics registry (stage histograms).
func (t *Tracer) Registry() *metrics.Registry { return t.reg }

// SetReporter installs (or clears, with nil) the upstream report hook.
func (t *Tracer) SetReporter(r Reporter) {
	t.mu.Lock()
	t.reporter = r
	t.mu.Unlock()
}

// NewPubID mints the next publication ID, `broker#epoch/seq`. The
// epoch separates tracer incarnations so a restarted broker's fresh
// IDs never collide with its previous life's.
func (t *Tracer) NewPubID() string {
	return t.broker + "#" + t.epoch + "/" + strconv.FormatUint(t.pubSeq.Add(1), 10)
}

// StampLocal starts a trace for a locally published event and reports
// whether it is sampled. Unsampled publications record nothing (until
// a failed delivery forces a partial trace).
func (t *Tracer) StampLocal(pubID string, start time.Time) bool {
	if t.sample == 0 || (t.sample > 1 && t.sampleSeq.Add(1)%uint64(t.sample) != 0) {
		t.cSampleOut.Inc()
		t.mu.Lock()
		t.stats.SampledOut++
		t.mu.Unlock()
		return false
	}
	t.cSampled.Inc()
	t.mu.Lock()
	t.insertLocked(pubID, &pubTrace{start: start, origin: true})
	t.stats.Stamped++
	t.mu.Unlock()
	return true
}

// StampRemote starts a trace for a publication that arrived from a
// peer: it holds the span records the frame carried, which the
// upstream peer already has, and records this hop's recv span. The
// sampling decision is inherited: a frame without spans means the
// origin sampled the publication out, and no trace is created.
func (t *Tracer) StampRemote(pubID, upstream string, spans []Span, start time.Time) bool {
	if len(spans) == 0 {
		return false
	}
	pt := &pubTrace{spans: make([]Span, 0, len(spans)+1), upstream: upstream, start: start}
	for _, s := range spans {
		if s.Broker != "" { // peer input: a span without its broker is dropped
			pt.spans = append(pt.spans, s)
		}
	}
	pt.sent = len(pt.spans)
	t.mu.Lock()
	t.stats.Merged += uint64(pt.sent)
	t.insertLocked(pubID, pt)
	t.stats.Stamped++
	t.addSpanLocked(pubID, Span{Kind: KindRecv, Start: start, Link: upstream}, false)
	t.mu.Unlock()
	t.cSampled.Inc()
	return true
}

// insertLocked registers a fresh trace under pubID, evicting the
// oldest unforced trace past capacity. Callers hold t.mu.
func (t *Tracer) insertLocked(pubID string, pt *pubTrace) {
	if _, dup := t.traces[pubID]; dup {
		return // raced re-stamp; keep the original
	}
	t.traces[pubID] = pt
	t.ring = append(t.ring, pubID)
	for len(t.ring) > t.cap {
		old := t.ring[0]
		t.ring = t.ring[1:]
		if got := t.traces[old]; got != nil && !got.forced {
			delete(t.traces, old)
			t.stats.Evicted++
		}
	}
}

// Traced reports whether pubID has an active trace.
func (t *Tracer) Traced(pubID string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.traces[pubID] != nil
}

// Observe records one local span against pubID (no-op when the
// publication is not traced) and feeds the matching stage histogram
// regardless — per-stage latency is collected even for sampled-out
// publications, so sampling does not bias the histograms.
func (t *Tracer) Observe(pubID, kind string, start time.Time, dur time.Duration) {
	t.observeStage(kind, dur)
	t.mu.Lock()
	t.addSpanLocked(pubID, Span{Kind: kind, Start: start, Dur: int64(dur)}, false)
	t.mu.Unlock()
}

// Forward records a forward span toward the named peer and returns the
// span set the pub frame to that peer carries, or nil when pubID is
// not traced — the peer inherits the sampling decision from it.
// Duration is unknown at enqueue time (the frame leaves on the writer
// goroutine); the per-link queue-wait histogram covers it instead.
func (t *Tracer) Forward(pubID, peer string, start time.Time) []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	pt := t.addSpanLocked(pubID, Span{Kind: KindForward, Start: start, Link: peer}, false)
	if pt == nil {
		return nil
	}
	return append([]Span(nil), pt.spans...)
}

// Outcome records a terminal delivery outcome span for one
// subscription and reports it upstream for remote-origin publications.
// Failed outcomes (dead_letter, park, undeliverable) force-keep the
// trace even when the publication was sampled out.
func (t *Tracer) Outcome(pubID, kind string, sub string, subID uint64, start time.Time, dur time.Duration, errMsg string) {
	if kind == KindDeliver {
		t.hDeliver.Observe(dur)
	}
	forced := kind == KindDeadLetter || kind == KindPark || kind == KindUndeliverab
	t.mu.Lock()
	pt := t.addSpanLocked(pubID, Span{Kind: kind, Start: start, Dur: int64(dur), Sub: sub, SubID: subID, Err: errMsg}, forced)
	if pt == nil {
		t.mu.Unlock()
		return
	}
	if pt.origin && kind == KindDeliver {
		t.hEndToEnd.Observe(time.Since(pt.start))
	}
	t.report(pubID, pt)
}

// Merge folds the spans a downstream broker reported into pubID's
// trace and passes them on upstream. Unknown publications are ignored
// (evicted or sampled out locally).
func (t *Tracer) Merge(pubID string, spans []Span) {
	t.mu.Lock()
	pt := t.traces[pubID]
	if pt == nil {
		t.mu.Unlock()
		return
	}
	for _, s := range spans {
		if s.Broker == "" { // peer input: a span without its broker is dropped
			continue
		}
		pt.spans = append(pt.spans, s)
		t.stats.Merged++
		// A deliver span reported back from a remote broker closes the
		// publish→ack window at the origin, same as a local delivery.
		if pt.origin && s.Kind == KindDeliver {
			t.hEndToEnd.Observe(time.Since(pt.start))
		}
	}
	t.report(pubID, pt)
}

// report ends Outcome and Merge. Called with t.mu held, it takes the
// spans of pt not yet sent upstream, advances the watermark past them
// and releases the lock before handing them to the reporter.
func (t *Tracer) report(pubID string, pt *pubTrace) {
	rep := t.reporter
	var spans []Span
	if rep != nil && pt.upstream != "" && pt.sent < len(pt.spans) {
		spans = append([]Span(nil), pt.spans[pt.sent:]...)
		pt.sent = len(pt.spans)
	}
	t.mu.Unlock()
	if spans != nil {
		rep(pubID, pt.upstream, spans)
	}
}

// addSpanLocked appends one local span to pubID's trace and returns
// the trace, or nil when pubID is not traced. force creates a partial
// trace for unknown publications (the always-keep path for failed
// deliveries). Callers hold t.mu.
func (t *Tracer) addSpanLocked(pubID string, s Span, force bool) *pubTrace {
	if pubID == "" {
		return nil
	}
	pt := t.traces[pubID]
	if pt == nil {
		if !force {
			return nil
		}
		pt = &pubTrace{start: s.Start}
		t.insertLocked(pubID, pt)
		t.stats.Stamped++
	}
	if force && !pt.forced {
		pt.forced = true
		t.stats.Forced++
		t.forcedQ = append(t.forcedQ, pubID)
		// The forced ring is bounded too: past cap/4 the oldest forced
		// trace loses its pin and ordinary eviction can reclaim it.
		for len(t.forcedQ) > t.cap/4+1 {
			old := t.forcedQ[0]
			t.forcedQ = t.forcedQ[1:]
			if got := t.traces[old]; got != nil {
				got.forced = false
			}
		}
	}
	s.Broker = t.broker
	t.spanSeq++
	s.Seq = t.spanSeq
	pt.spans = append(pt.spans, s)
	t.stats.Spans++
	t.cSpans.Inc()
	return pt
}

// Spans returns a copy of pubID's span set, ordered by start time
// (ties broken by broker and span seq for determinism).
func (t *Tracer) Spans(pubID string) []Span {
	t.mu.Lock()
	pt := t.traces[pubID]
	var out []Span
	if pt != nil {
		out = append(out, pt.spans...)
	}
	t.mu.Unlock()
	sortSpans(out)
	return out
}

func sortSpans(out []Span) {
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.Before(out[j].Start)
		}
		if out[i].Broker != out[j].Broker {
			return out[i].Broker < out[j].Broker
		}
		return out[i].Seq < out[j].Seq
	})
}

// Stats snapshots tracer counters.
func (t *Tracer) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.stats
	s.Held = len(t.traces)
	return s
}

// StageSnapshot reports the main stage histograms for broker.Stats.
type StageSnapshot struct {
	Match        metrics.Snapshot `json:"match"`
	Journal      metrics.Snapshot `json:"journal_append"`
	Publish      metrics.Snapshot `json:"publish"`
	Deliver      metrics.Snapshot `json:"deliver"`
	PublishToAck metrics.Snapshot `json:"publish_to_ack"`
}

// Stages snapshots the per-stage latency histograms.
func (t *Tracer) Stages() StageSnapshot {
	return StageSnapshot{
		Match:        t.hMatch.Snapshot(),
		Journal:      t.hJournal.Snapshot(),
		Publish:      t.hPublish.Snapshot(),
		Deliver:      t.hDeliver.Snapshot(),
		PublishToAck: t.hEndToEnd.Snapshot(),
	}
}

func (t *Tracer) observeStage(kind string, dur time.Duration) {
	switch kind {
	case KindMatch:
		t.hMatch.Observe(dur)
	case KindJournal:
		t.hJournal.Observe(dur)
	case KindPublish:
		t.hPublish.Observe(dur)
	}
}

// newEpoch returns an 8-hex-char incarnation tag (mirrors the overlay
// node's publication epoch; falls back to a process counter without an
// entropy source).
func newEpoch() string {
	var b [4]byte
	if _, err := cryptorand.Read(b[:]); err != nil {
		return fmt.Sprintf("e%d", epochFallback.Add(1))
	}
	return hex.EncodeToString(b[:])
}

var epochFallback atomic.Uint64
