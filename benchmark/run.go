package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"stopss/internal/broker"
	"stopss/internal/notify"
)

// phases splits the measured seconds of a run. Warm-up comes on top and
// is discarded; it lets connections, caches and the collector settle at
// the paced rate.
type phases struct {
	warm, paced, capacity time.Duration
}

// setups is how many times an end-to-end run sets the cluster up; setup_s
// is the median, and the run proper uses the last one.
const setups = 3

func phasesFor(seconds float64, traced bool) phases {
	s := time.Duration(seconds * float64(time.Second))
	ph := phases{warm: s / 8, paced: s * 2 / 3, capacity: s / 3}
	if traced {
		// A traced run wants the counters of the paced phase only and
		// spends the capacity phase's time on the replay instead.
		ph.capacity = 0
	}
	return ph
}

// sample is what one run observed, before it is turned into metrics.
type sample struct {
	sc      *Scenario
	phases  phases
	oracleS float64   // generating inputs and solving the oracle
	setupS  []float64 // one per set-up

	paced    []*pub    // the open-loop phase, in send order
	capacity []*pub    // the closed-loop phase
	pubsPerS float64   // closed loop: publishes fully delivered per second
	churnMS  []float64 // churn workload: pair latencies of the paced phase

	cpuPerPubMS []float64 // paced phase: server CPU per publish, one per window
	rssPeakMB   float64
	before      []broker.Stats       // per server, at the start of the paced phase
	after       []broker.Stats       // per server, at its end
	final       []broker.Stats       // per server, after the drain
	runtime     []map[string]float64 // per server, stopss_runtime_* gauges after the drain
	httpRTTus   []float64            // GET /api/v1/mode round trips on the drained server

	attempted, failed int
	failures          []string // first few, for the log
	duplicates        int      // extra copies; a failure unless the workload is at-least-once
	churnFailed       int      // churn requests the server refused
}

func (s *sample) fail(n int, format string, args ...any) {
	if n == 0 {
		return
	}
	s.failed += n
	if len(s.failures) < 10 {
		s.failures = append(s.failures, fmt.Sprintf(format, args...))
	}
}

// populate registers the scenario's clients and subscribes its
// population, and on the line waits until the last subscription is
// routable from the entry broker. Subscription IDs are assigned by the
// servers; the tracker learns them here.
func (c *cluster) populate(sc *Scenario, sink string, t *tracker) error {
	conns := make([]*conn, len(c.servers))
	for i, s := range c.servers {
		conns[i] = newConn(s.url)
		defer conns[i].close()
	}
	for _, cl := range sc.Clients {
		if err := conns[cl.Server].post("/api/v1/register", registerReq{Name: cl.Name, Transport: "tcp", Addr: sink}, nil); err != nil {
			return err
		}
	}
	if err := conns[0].post("/api/v1/register", registerReq{Name: churnClient}, nil); err != nil {
		return err
	}

	// Subscriptions go in over as many connections as publishes will.
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	var next atomic.Int64
	for w := 0; w < publishers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mine := make([]*conn, len(c.servers))
			for i, s := range c.servers {
				mine[i] = newConn(s.url)
				defer mine[i].close()
			}
			for {
				i := int(next.Add(1)) - 1
				if i >= len(sc.Subs) {
					return
				}
				sub := sc.Subs[i]
				cl := sc.Clients[sub.Client]
				var resp subscribeResp
				err := mine[cl.Server].post("/api/v1/subscribe",
					subscribeReq{Client: cl.Name, Subscription: sub.Text, Durable: sc.Journal}, &resp)
				if err == nil && len(resp.IDs) != 1 {
					err = fmt.Errorf("subscription %q produced %d ids, want 1", sub.Text, len(resp.IDs))
				}
				mu.Lock()
				if err != nil {
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				t.subs[subKey{cl.Name, resp.IDs[0]}] = int32(i)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firstErr != nil || len(c.servers) == 1 {
		return firstErr
	}

	// On the line, subscriptions travel to the entry broker as overlay
	// frames after the subscribe call has returned. Links deliver frames
	// in order, so once a subscription made last at the far end is
	// routable from the entry broker, every earlier one is too. Probe
	// with an event nothing else matches until its notification arrives.
	far := conns[len(conns)-1]
	if err := far.post("/api/v1/register", registerReq{Name: sentinelClient, Transport: "tcp", Addr: sink}, nil); err != nil {
		return err
	}
	if err := far.post("/api/v1/subscribe", subscribeReq{Client: sentinelClient, Subscription: "(bench-sentinel = 1)"}, nil); err != nil {
		return err
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := conns[0].post("/api/v1/publish", publishReq{Event: "(bench-sentinel, 1)"}, nil); err != nil {
			return err
		}
		select {
		case <-t.sentinel:
			return nil
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("subscriptions not routable from %s after 10s", c.servers[0].name)
		}
	}
}

func (c *cluster) allStats() ([]broker.Stats, error) {
	out := make([]broker.Stats, len(c.servers))
	for i, s := range c.servers {
		st, err := s.stats()
		if err != nil {
			return nil, err
		}
		out[i] = st
	}
	return out, nil
}

func (c *cluster) cpuSeconds() (float64, error) {
	total := 0.0
	for _, s := range c.servers {
		v, err := s.cpuSeconds()
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total, nil
}

// drain waits until the servers have nothing queued and the sink has
// decoded everything they wrote, or two seconds have passed; what is
// still missing then is counted by the caller.
func (c *cluster) drain(t *tracker) ([]broker.Stats, error) {
	deadline := time.Now().Add(2 * time.Second)
	for {
		stats, err := c.allStats()
		if err != nil {
			return nil, err
		}
		var queued, written uint64
		for _, st := range stats {
			queued += st.Notified
			written += st.Notify.Delivered
		}
		t.mu.Lock()
		received := t.received
		t.mu.Unlock()
		if (queued == written && int(written) == received) || time.Now().After(deadline) {
			return stats, nil
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// measure runs one workload once against freshly spawned servers.
func (e *env) measure(name string, seed int64, seconds float64, traced bool) (*sample, error) {
	t0 := time.Now()
	sc, err := newScenario(name, seed)
	if err != nil {
		return nil, err
	}
	if err := sc.solve(); err != nil {
		return nil, err
	}
	s := &sample{sc: sc, phases: phasesFor(seconds, traced), oracleS: time.Since(t0).Seconds()}

	// Set up: spawn, register, subscribe, links up. All but the last
	// set-up are torn down again; they exist to give setup_s a median.
	var (
		cl   *cluster
		trk  *tracker
		sink *notify.TCPSink
	)
	n := setups
	if traced {
		n = 1
	}
	for i := 0; i < n; i++ {
		start := time.Now()
		trk = newTracker()
		if sink, err = notify.NewTCPSink("127.0.0.1:0", trk.notified); err != nil {
			return nil, err
		}
		defer sink.Close()
		if cl, err = e.start(sc); err != nil {
			return nil, err
		}
		defer cl.stop()
		if err := cl.populate(sc, sink.Addr(), trk); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		s.setupS = append(s.setupS, time.Since(start).Seconds())
		if i < n-1 {
			cl.stop()
			sink.Close()
		}
	}
	entry := cl.servers[0].url

	// Warm-up at the paced rate; on the churn workload the churn
	// connection starts with it and stays through the paced phase.
	var churn *churner
	if sc.ChurnRate > 0 {
		churn = startChurn(entry, sc.ChurnSubs, sc.ChurnRate)
	}
	warm := trk.openLoop(entry, sc.Events, 0, sc.Rate, s.phases.warm)
	awaitAll(warm)

	// Paced phase: open loop at the workload's fixed rate.
	if s.before, err = cl.allStats(); err != nil {
		return nil, err
	}
	// The servers' CPU time is read at every window boundary of the
	// phase, so that CPU per publish is a median over windows too.
	pacedStart := time.Now()
	cpu := make([]float64, windows+1)
	cpuErr := make(chan error, 1)
	go func() {
		var err error
		for w := range cpu {
			sleepUntil(pacedStart.Add(time.Duration(w) * s.phases.paced / windows))
			if cpu[w], err = cl.cpuSeconds(); err != nil {
				break
			}
		}
		cpuErr <- err
	}()
	s.paced = trk.openLoop(entry, sc.Events, len(warm), sc.Rate, s.phases.paced)
	pacedEnd := time.Now()
	awaitAll(s.paced)
	if churn != nil {
		s.churnMS = churn.finish(pacedStart, pacedEnd)
		s.attempted += len(churn.due) + churn.failed
		s.churnFailed = churn.failed
		s.fail(churn.failed, "%d churn pairs failed", churn.failed)
	}
	if err := <-cpuErr; err != nil {
		return nil, err
	}
	if s.after, err = cl.allStats(); err != nil {
		return nil, err
	}
	perWindow := float64(len(s.paced)) / windows
	for w := 0; w < windows; w++ {
		s.cpuPerPubMS = append(s.cpuPerPubMS, (cpu[w+1]-cpu[w])*1000/perWindow)
	}

	// Capacity phase: closed loop, one virtual publisher per connection.
	if s.phases.capacity > 0 {
		s.capacity, s.pubsPerS = trk.closedLoop(entry, sc.Events, len(warm)+len(s.paced), s.phases.capacity)
	}

	if s.final, err = cl.drain(trk); err != nil {
		return nil, err
	}
	for _, srv := range cl.servers {
		g, err := srv.gauges("stopss_runtime_")
		if err != nil {
			return nil, err
		}
		s.runtime = append(s.runtime, g)
		rss, err := srv.peakRSSMB()
		if err != nil {
			return nil, err
		}
		s.rssPeakMB = max(s.rssPeakMB, rss)
	}
	// For the budget of a traced run: the cost of one HTTP exchange with
	// nothing behind it, taken at the paced rate's spacing. Back to back
	// it would leave out the wake-ups a paced request pays on both sides.
	for i := 0; traced && i < 100; i++ {
		time.Sleep(time.Second / time.Duration(sc.Rate))
		start := time.Now()
		if _, err := cl.servers[0].get("/api/v1/mode"); err != nil {
			return nil, err
		}
		s.httpRTTus = append(s.httpRTTus, us(time.Since(start)))
	}

	// Outputs are checked against the oracle: every publish answered,
	// every expected notification received, nothing else received.
	trk.mu.Lock()
	for _, phase := range [][]*pub{warm, s.paced, s.capacity} {
		for _, p := range phase {
			s.attempted += 1 + len(p.event.Expect)
			if p.err != nil {
				s.fail(1, "publish %q: %v", p.event.Text, p.err)
			}
			s.fail(len(p.event.Expect)-p.got, "publish %q: %d of %d notifications missing", p.event.Text, len(p.event.Expect)-p.got, len(p.event.Expect))
		}
	}
	s.fail(trk.unexpected, "%d notifications the oracle did not expect", trk.unexpected)
	s.duplicates = trk.duplicates
	if !sc.Journal {
		// Fire-and-forget is exactly-once; durable delivery is
		// at-least-once, so there a duplicate is counted, not failed.
		s.fail(trk.duplicates, "%d duplicate notifications on an exactly-once workload", trk.duplicates)
	}
	trk.mu.Unlock()
	s.fail(trk.orphans(), "%d notifications for a pub_id no publish response named", trk.orphans())
	return s, nil
}
