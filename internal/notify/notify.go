// Package notify implements the notification engine of the S-ToPSS
// demonstration (paper §4, Figure 2): when a publication matches a
// subscription, the engine delivers a notification to the subscriber
// over one of several transports — TCP, UDP, SMTP or SMS.
//
// TCP, UDP and SMTP are real protocol implementations over the loopback
// network; SMS is simulated by an in-process gateway with message
// segmentation and rate limiting (DESIGN.md §2 records the
// substitution). Delivery is asynchronous through a bounded queue with
// retry, exponential backoff and a bounded dead-letter list; a
// delivery hook reports per-delivery outcomes so the broker's durable
// journal can acknowledge or park each notification.
package notify

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"stopss/internal/message"
	"stopss/internal/metrics"
)

// Notification is what a subscriber receives when a publication matches
// one of its subscriptions.
type Notification struct {
	SubID      message.SubID `json:"sub_id"`
	Subscriber string        `json:"subscriber"`
	Event      message.Event `json:"event"`
	Mode       string        `json:"mode,omitempty"` // semantic | syntactic
	Seq        uint64        `json:"seq,omitempty"`  // dispatcher sequence number
	// JournalSeq carries the publication's journal sequence number for
	// durable subscriptions (internal/journal); 0 means fire-and-forget.
	// The broker's delivery hook uses it to advance the durable cursor
	// on acknowledged delivery.
	JournalSeq uint64 `json:"journal_seq,omitempty"`
	// PubID is the publication's federation-wide trace identity
	// (internal/trace, `broker#epoch/seq`). The broker's delivery hook
	// closes the publication's span chain with it; subscribers can use
	// it to correlate a notification with `GET /api/v1/trace/<pubID>`.
	PubID string `json:"pub_id,omitempty"`
}

// Encode renders the notification as one JSON line (no trailing
// newline): the fields in declaration order under their tag names, with
// the tags' omitempty rules, byte-identical to json.Marshal(n) but
// appended by hand, without reflection.
func (n Notification) Encode() ([]byte, error) {
	b := append(make([]byte, 0, 256), `{"sub_id":`...)
	b = strconv.AppendUint(b, uint64(n.SubID), 10)
	b = append(b, `,"subscriber":`...)
	b = message.AppendJSONString(b, n.Subscriber)
	b = append(b, `,"event":`...)
	b, err := n.Event.AppendJSON(b)
	if err != nil {
		return nil, fmt.Errorf("notify: encoding notification: %w", err)
	}
	if n.Mode != "" {
		b = append(b, `,"mode":`...)
		b = message.AppendJSONString(b, n.Mode)
	}
	if n.Seq != 0 {
		b = append(b, `,"seq":`...)
		b = strconv.AppendUint(b, n.Seq, 10)
	}
	if n.JournalSeq != 0 {
		b = append(b, `,"journal_seq":`...)
		b = strconv.AppendUint(b, n.JournalSeq, 10)
	}
	if n.PubID != "" {
		b = append(b, `,"pub_id":`...)
		b = message.AppendJSONString(b, n.PubID)
	}
	return append(b, '}'), nil
}

// DecodeNotification parses one JSON line.
func DecodeNotification(b []byte) (Notification, error) {
	var n Notification
	if err := json.Unmarshal(b, &n); err != nil {
		return Notification{}, fmt.Errorf("notify: decoding notification: %w", err)
	}
	return n, nil
}

// Transport delivers notifications to an address whose format is
// transport-specific (host:port for TCP/UDP, mailbox for SMTP, phone
// number for SMS). Implementations must be safe for concurrent use.
type Transport interface {
	Name() string
	Send(addr string, n Notification) error
	Close() error
}

// Route binds a subscriber to a transport and address.
type Route struct {
	Transport string
	Addr      string
}

// ErrQueueFull is returned by Dispatch when the engine's bounded queue
// is saturated; callers may retry or drop.
var ErrQueueFull = errors.New("notify: queue full")

// ErrClosed is returned after Close.
var ErrClosed = errors.New("notify: engine closed")

// Config tunes the dispatcher.
type Config struct {
	QueueSize  int           // bounded queue length (default 1024)
	Workers    int           // delivery goroutines (default 4)
	MaxRetries int           // attempts per notification beyond the first (default 3)
	Backoff    time.Duration // base backoff, doubled per retry (default 1ms)
	// DeadLetterLimit bounds the dead-letter list (DESIGN §2): when a
	// retry-exhausted notification would push past the cap, the OLDEST
	// dead letter is evicted and counted in Stats.DeadLettersDropped.
	// Default 1024; negative means unlimited (the pre-cap behaviour).
	DeadLetterLimit int
}

func (c Config) withDefaults() Config {
	if c.QueueSize <= 0 {
		c.QueueSize = 1024
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	} else if c.MaxRetries == 0 {
		c.MaxRetries = 3
	}
	if c.Backoff <= 0 {
		c.Backoff = time.Millisecond
	}
	if c.DeadLetterLimit == 0 {
		c.DeadLetterLimit = 1024
	}
	return c
}

// DeadLetter records a notification that exhausted its retries.
type DeadLetter struct {
	Notification Notification
	Route        Route
	Err          error
	Attempts     int
}

type job struct {
	n Notification
	r Route
}

// transport is a registered Transport with its per-delivery
// instruments, resolved once in NewEngine so a delivery does no
// registry lookup.
type transport struct {
	Transport
	lat               *metrics.Histogram // latency.<name>
	delivered, failed *metrics.Counter   // delivered.<name>, attempts_failed.<name>
}

// DeliveryHook observes every delivery's final outcome: err is nil on
// success and the last transport error when retries were exhausted.
// On failure, returning true claims the notification — it is "parked"
// (the durable journal will redeliver it) instead of being appended to
// the dead-letter list. The hook runs on delivery worker goroutines
// and must not block.
type DeliveryHook func(n Notification, r Route, err error, attempts int) bool

// Stats summarizes dispatcher state beyond the metrics registry.
type Stats struct {
	DeadLetters        int    // dead letters currently held
	DeadLettersDropped uint64 // dead letters evicted by the size cap
	Parked             uint64 // failed deliveries claimed by the hook (journal-parked)
	Delivered          uint64 // successful deliveries, all transports
	Retried            uint64 // extra attempts beyond the first (success or not)
}

// Engine is the notification dispatcher of Figure 2.
type Engine struct {
	cfg        Config
	transports map[string]*transport
	queue      chan job
	done       chan struct{} // closed by Close: queued jobs fail, retries stop
	wg         sync.WaitGroup
	inflight   atomic.Int64
	delivered  atomic.Uint64
	retried    atomic.Uint64

	mu          sync.Mutex
	routes      map[string]Route // subscriber → route
	dead        []DeadLetter
	deadDropped uint64
	parked      uint64
	hook        DeliveryHook
	closed      bool
	seq         uint64

	reg                *metrics.Registry
	enqueued, rejected *metrics.Counter // Dispatch admission outcomes
}

// NewEngine builds a dispatcher over the given transports.
func NewEngine(cfg Config, transports ...Transport) (*Engine, error) {
	cfg = cfg.withDefaults()
	e := &Engine{
		cfg:        cfg,
		transports: make(map[string]*transport, len(transports)),
		queue:      make(chan job, cfg.QueueSize),
		done:       make(chan struct{}),
		routes:     make(map[string]Route),
		reg:        metrics.NewRegistry(),
	}
	// Registered up front so an exposition shows both at 0 before the
	// first dispatch: a queue that never overflowed reports rejected 0
	// rather than no series at all.
	e.enqueued, e.rejected = e.reg.Counter("enqueued"), e.reg.Counter("rejected")
	for _, tr := range transports {
		name := tr.Name()
		if name == "" {
			return nil, fmt.Errorf("notify: transport with empty name")
		}
		if _, dup := e.transports[name]; dup {
			return nil, fmt.Errorf("notify: duplicate transport %q", name)
		}
		e.transports[name] = &transport{
			Transport: tr,
			lat:       e.reg.Histogram("latency." + name),
			delivered: e.reg.Counter("delivered." + name),
			failed:    e.reg.Counter("attempts_failed." + name),
		}
	}
	for i := 0; i < cfg.Workers; i++ {
		e.wg.Add(1)
		go e.worker()
	}
	return e, nil
}

// SetDeliveryHook installs (or clears, with nil) the per-delivery
// outcome callback. The broker uses it to acknowledge durable
// deliveries (advancing the journal cursor) and to park
// retry-exhausted durable notifications in the journal instead of the
// dead-letter list.
func (e *Engine) SetDeliveryHook(h DeliveryHook) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.hook = h
}

// SetRoute binds a subscriber to a transport/address. The transport must
// be registered.
func (e *Engine) SetRoute(subscriber string, r Route) error {
	if _, ok := e.transports[r.Transport]; !ok {
		return fmt.Errorf("notify: unknown transport %q", r.Transport)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.routes[subscriber] = r
	return nil
}

// RouteOf returns the subscriber's route.
func (e *Engine) RouteOf(subscriber string) (Route, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	r, ok := e.routes[subscriber]
	return r, ok
}

// Dispatch enqueues a notification for the subscriber it names. The
// call never blocks: a full queue returns ErrQueueFull.
func (e *Engine) Dispatch(n Notification) error {
	// The enqueue happens under e.mu, where Close sets closed, so a
	// Dispatch racing Close never sends on the closed queue.
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	r, ok := e.routes[n.Subscriber]
	if !ok {
		return fmt.Errorf("notify: no route for subscriber %q", n.Subscriber)
	}
	e.seq++
	n.Seq = e.seq

	// inflight counts accepted-but-not-yet-delivered notifications
	// (queued or executing), so Drain has no dequeue/track gap.
	e.inflight.Add(1)
	select {
	case e.queue <- job{n: n, r: r}:
		e.enqueued.Inc()
		return nil
	default:
		e.inflight.Add(-1)
		e.rejected.Inc()
		return ErrQueueFull
	}
}

func (e *Engine) worker() {
	defer e.wg.Done()
	for j := range e.queue {
		e.deliver(j)
		e.inflight.Add(-1)
	}
}

func (e *Engine) deliver(j job) {
	tr := e.transports[j.r.Transport]
	e.mu.Lock()
	hook := e.hook
	e.mu.Unlock()
	err := ErrClosed // a job still queued at Close is never sent
	backoff := e.cfg.Backoff
	attempts := 0
	for attempt := 0; attempt <= e.cfg.MaxRetries && !e.stopping(); attempt++ {
		attempts++
		t0 := time.Now()
		err = tr.Send(j.r.Addr, j.n)
		if err == nil {
			tr.lat.Observe(time.Since(t0))
			tr.delivered.Inc()
			e.delivered.Add(1)
			if attempt > 0 {
				e.reg.Counter("recovered").Add(uint64(attempt))
				e.retried.Add(uint64(attempt))
			}
			if hook != nil {
				hook(j.n, j.r, nil, attempts)
			}
			return
		}
		tr.failed.Inc()
		if attempt < e.cfg.MaxRetries {
			select {
			case <-e.done:
			case <-time.After(backoff):
			}
			backoff *= 2
		}
	}
	if attempts > 1 {
		e.retried.Add(uint64(attempts - 1))
	}
	if hook != nil && hook(j.n, j.r, err, attempts) {
		// Claimed: the durable journal retains the publication, so the
		// dead-letter list (a lossy diagnostic buffer) is not involved.
		e.reg.Counter("parked").Inc()
		e.mu.Lock()
		e.parked++
		e.mu.Unlock()
		return
	}
	e.reg.Counter("dead_lettered").Inc()
	e.mu.Lock()
	if e.cfg.DeadLetterLimit > 0 && len(e.dead) >= e.cfg.DeadLetterLimit {
		drop := len(e.dead) - e.cfg.DeadLetterLimit + 1
		copy(e.dead, e.dead[drop:])
		e.dead = e.dead[:len(e.dead)-drop]
		e.deadDropped += uint64(drop)
		e.reg.Counter("dead_dropped").Add(uint64(drop))
	}
	e.dead = append(e.dead, DeadLetter{Notification: j.n, Route: j.r, Err: err, Attempts: attempts})
	e.mu.Unlock()
}

// stopping reports whether Close has begun.
func (e *Engine) stopping() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// DeadLetters returns a copy of the dead-letter list.
func (e *Engine) DeadLetters() []DeadLetter {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]DeadLetter, len(e.dead))
	copy(out, e.dead)
	return out
}

// Stats snapshots dispatcher state.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return Stats{
		DeadLetters:        len(e.dead),
		DeadLettersDropped: e.deadDropped,
		Parked:             e.parked,
		Delivered:          e.delivered.Load(),
		Retried:            e.retried.Load(),
	}
}

// Metrics exposes the dispatcher's registry.
func (e *Engine) Metrics() *metrics.Registry { return e.reg }

// Drain blocks until the queue is empty and every in-flight delivery
// has finished, or the timeout elapses. It reports whether the engine
// fully drained.
func (e *Engine) Drain(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if e.inflight.Load() == 0 {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return e.inflight.Load() == 0
}

// Close stops accepting work, closes every transport and waits for the
// workers. It does not deliver what is still queued: those jobs fail at
// once with ErrClosed, and a delivery that fails during Close is not
// retried; both reach the delivery hook or the dead-letter list as any
// failure does. Closing the transports before the wait unblocks a worker
// stuck writing to a subscriber that stopped reading. Call Drain first
// to deliver the queue. Safe to call once.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	e.closed = true
	e.mu.Unlock()

	close(e.done)
	close(e.queue)
	var firstErr error
	for _, tr := range e.transports {
		if err := tr.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	e.wg.Wait()
	return firstErr
}
