package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"stopss/internal/notify"
)

// conn is one load connection. Each has a client of its own limited to
// one socket, so "two publisher connections" means two sockets.
type conn struct {
	client *http.Client
	url    string
}

func newConn(url string) *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return &conn{client: &http.Client{Transport: tr, Timeout: 10 * time.Second}, url: url}
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// post sends one JSON request and decodes the 200 response into out
// (nil discards it). Any other status is an error carrying the body.
func (c *conn) post(path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	resp, err := c.client.Post(c.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: %s: %s", path, resp.Status, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// Request and response bodies of the /api/v1 routes the harness uses.
type (
	registerReq struct {
		Name      string `json:"name"`
		Transport string `json:"transport,omitempty"`
		Addr      string `json:"addr,omitempty"`
	}
	subscribeReq struct {
		Client       string `json:"client"`
		Subscription string `json:"subscription"`
		Durable      bool   `json:"durable,omitempty"`
	}
	subscribeResp struct {
		IDs []uint64 `json:"ids"`
	}
	unsubscribeReq struct {
		Client string `json:"client"`
		ID     uint64 `json:"id"`
	}
	publishReq struct {
		Event string `json:"event"`
	}
	publishResp struct {
		PubID string `json:"pub_id"`
	}
)

// subKey identifies a subscription in a notification. Sub IDs are per
// server, client names are not, and a client lives on one server.
type subKey struct {
	subscriber string
	id         uint64
}

// pub is one publish from intended send to last expected notification.
type pub struct {
	event    *Event
	intended time.Time // when the schedule said to send; latencies start here
	sent     time.Time // when the request actually left
	acked    time.Time // HTTP 200 read
	last     time.Time // last expected notification decoded at the sink
	err      error     // request failed, or delivery timed out in the closed loop

	seen []bool        // per expected subscription: notification received
	got  int           // distinct expected notifications so far
	done chan struct{} // closed once acknowledged and got == len(event.Expect)
}

// completed is when the publish was both acknowledged and fully
// delivered.
func (p *pub) completed() time.Time {
	if p.last.After(p.acked) {
		return p.last
	}
	return p.acked
}

// complete reports whether every expected notification arrived.
func (p *pub) complete() bool { return p.err == nil && p.got == len(p.event.Expect) }

// arrival is a notification that reached the sink before the publish
// response that names its pub_id was read; it is joined at the ack.
type arrival struct {
	key subKey
	at  time.Time
}

// tracker joins publishes and notifications on pub_id, whichever of the
// HTTP response and the notifications arrives first. Events carry no
// identifier of their own: a unique attribute would make every event
// shape distinct and bypass the expansion cache under test.
type tracker struct {
	mu         sync.Mutex
	subs       map[subKey]int32
	pubs       map[string]*pub
	early      map[string][]arrival
	received   int // every notification decoded, the sentinel's included
	unexpected int // notifications for a subscription the oracle did not predict
	duplicates int // second and later copies of an expected notification
	// sentinel is closed when a notification for the sentinel subscriber
	// arrives (line readiness probe, see cluster.populate).
	sentinel chan struct{}
}

func newTracker() *tracker {
	return &tracker{
		subs:     make(map[subKey]int32),
		pubs:     make(map[string]*pub),
		early:    make(map[string][]arrival),
		sentinel: make(chan struct{}),
	}
}

// sentinelClient subscribes last on the line's far broker; see populate.
const sentinelClient = "sentinel"

// notified is the sink's callback.
func (t *tracker) notified(n notify.Notification) {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.received++
	if n.Subscriber == sentinelClient {
		select {
		case <-t.sentinel:
		default:
			close(t.sentinel)
		}
		return
	}
	a := arrival{key: subKey{n.Subscriber, uint64(n.SubID)}, at: now}
	if p := t.pubs[n.PubID]; p != nil {
		t.apply(p, a)
		return
	}
	t.early[n.PubID] = append(t.early[n.PubID], a)
}

// acked records the publish response and joins any notifications that
// overtook it.
func (t *tracker) acked(id string, p *pub) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.pubs[id] = p
	for _, a := range t.early[id] {
		t.apply(p, a)
	}
	delete(t.early, id)
	if len(p.event.Expect) == 0 {
		close(p.done)
	}
}

// apply accounts one notification against its publish, which has been
// acknowledged. Callers hold mu.
func (t *tracker) apply(p *pub, a arrival) {
	exp := p.event.Expect
	sub, known := t.subs[a.key]
	pos := sort.Search(len(exp), func(i int) bool { return exp[i] >= sub })
	switch {
	case !known || pos == len(exp) || exp[pos] != sub:
		t.unexpected++
	case p.seen[pos]:
		t.duplicates++
	default:
		p.seen[pos] = true
		p.got++
		p.last = a.at
		if p.got == len(exp) {
			close(p.done)
		}
	}
}

// orphans counts notifications whose pub_id no publish response ever
// named. Call after the run has drained.
func (t *tracker) orphans() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, as := range t.early {
		n += len(as)
	}
	return n
}

// publish sends one event on c and registers it with the tracker.
func (t *tracker) publish(c *conn, ev *Event, intended time.Time) *pub {
	p := &pub{event: ev, intended: intended, seen: make([]bool, len(ev.Expect)), done: make(chan struct{})}
	p.sent = time.Now()
	var resp publishResp
	if err := c.post("/api/v1/publish", publishReq{Event: ev.Text}, &resp); err != nil {
		p.err = err
		return p
	}
	if resp.PubID == "" {
		p.err = fmt.Errorf("publish response without pub_id")
		return p
	}
	p.acked = time.Now()
	t.acked(resp.PubID, p)
	return p
}

// sleepUntil returns at t as exactly as the scheduler allows: it sleeps
// to just short of t and yields for the rest, because a timer alone
// overshoots by a varying tenth of a millisecond.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - 150*time.Microsecond; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// publishers is how many connections publish at once: at most one per
// CPU of the box, so the generator cannot out-schedule the server.
func publishers() int { return min(2, runtime.NumCPU()) }

// openLoop publishes events[first], events[first+1], … at a fixed rate
// for the given time, on the publisher connections. Publish i is due at
// start + i/rate whatever happened to the ones before it, and every
// latency is taken from that due time: when the server stalls, the
// publishes queued behind the stall are charged the wait.
func (t *tracker) openLoop(url string, events []Event, first, rate int, dur time.Duration) []*pub {
	n := int(dur.Seconds() * float64(rate))
	out := make([]*pub, n)
	interval := time.Second / time.Duration(rate)
	start := time.Now().Add(time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < publishers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newConn(url)
			defer c.close()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				sleepUntil(due)
				out[i] = t.publish(c, &events[(first+i)%len(events)], due)
			}
		}()
	}
	wg.Wait()
	return out
}

// deliveryTimeout bounds how long a publish may wait for its expected
// notifications before it counts as failed.
const deliveryTimeout = 3 * time.Second

// await waits for the publish's expected notifications, until the
// deadline at the latest.
func (p *pub) await(deadline time.Time) {
	if p.err != nil {
		return
	}
	select {
	case <-p.done:
	case <-time.After(time.Until(deadline)):
		p.err = fmt.Errorf("delivery incomplete after %v", deliveryTimeout)
	}
}

// awaitAll waits for every publish of a finished phase. The phase shares
// one deadline: when notifications were lost, the wait is one timeout,
// not one per publish.
func awaitAll(pubs []*pub) {
	deadline := time.Now().Add(deliveryTimeout)
	for _, p := range pubs {
		p.await(deadline)
	}
}

// closedLoop runs one virtual publisher per connection for the given
// time. Each sends its next publish only when the previous one has been
// acknowledged and every notification it must cause has arrived, so no
// backlog builds and a full queue cannot pass for throughput.
func (t *tracker) closedLoop(url string, events []Event, first int, dur time.Duration) (pubs []*pub, perSecond float64) {
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for w := 0; w < publishers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newConn(url)
			defer c.close()
			var mine []*pub
			for time.Now().Before(deadline) {
				i := int(next.Add(1)) - 1
				p := t.publish(c, &events[(first+i)%len(events)], time.Now())
				p.await(time.Now().Add(deliveryTimeout))
				mine = append(mine, p)
			}
			mu.Lock()
			pubs = append(pubs, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return pubs, deliveredPerSecond(pubs, start, dur)
}

// deliveredPerSecond is the closed loop's rate of fully delivered
// publishes: the median over the phase's windows of the rate between the
// first and the last completion inside the window.
func deliveredPerSecond(pubs []*pub, start time.Time, dur time.Duration) float64 {
	type span struct {
		first, last time.Time
		n           int
	}
	per := make([]span, windows)
	for _, p := range pubs {
		at := p.completed()
		w := int(at.Sub(start) / (dur / windows))
		if !p.complete() || w >= windows {
			continue
		}
		if per[w].n == 0 || at.Before(per[w].first) {
			per[w].first = at
		}
		if at.After(per[w].last) {
			per[w].last = at
		}
		per[w].n++
	}
	var rates []float64
	for _, s := range per {
		if s.n >= 2 {
			rates = append(rates, float64(s.n-1)/s.last.Sub(s.first).Seconds())
		}
	}
	return median(rates)
}

// churner is the churn connection: at a fixed rate it subscribes and
// then unsubscribes the same subscription, cycling through the
// scenario's churn texts. It is paced, not closed-loop, so a server whose
// index updates get slower still receives as many of them, and the cost
// shows in the publish path's latency and CPU beside it.
type churner struct {
	stop   chan struct{}
	exited chan struct{}
	due    []time.Time // when each pair was due
	done   []time.Time // when its unsubscribe was acknowledged
	failed int
}

func startChurn(url string, texts []string, rate int) *churner {
	ch := &churner{stop: make(chan struct{}), exited: make(chan struct{})}
	go func() {
		defer close(ch.exited)
		c := newConn(url)
		defer c.close()
		interval := time.Second / time.Duration(rate)
		start := time.Now().Add(time.Millisecond)
		for i := 0; ; i++ {
			due := start.Add(time.Duration(i) * interval)
			sleepUntil(due)
			select {
			case <-ch.stop:
				return
			default:
			}
			var resp subscribeResp
			err := c.post("/api/v1/subscribe", subscribeReq{Client: churnClient, Subscription: texts[i%len(texts)]}, &resp)
			for _, id := range resp.IDs {
				if e := c.post("/api/v1/unsubscribe", unsubscribeReq{Client: churnClient, ID: id}, nil); e != nil && err == nil {
					err = e
				}
			}
			if err != nil {
				ch.failed++
				continue
			}
			ch.due = append(ch.due, due)
			ch.done = append(ch.done, time.Now())
		}
	}()
	return ch
}

// finish stops the connection after its pair in flight and returns the
// latency in milliseconds, from its due time, of each pair due in
// [from, to].
func (ch *churner) finish(from, to time.Time) []float64 {
	close(ch.stop)
	<-ch.exited
	var out []float64
	for i, due := range ch.due {
		if !due.Before(from) && !due.After(to) {
			out = append(out, ms(ch.done[i].Sub(due)))
		}
	}
	return out
}
