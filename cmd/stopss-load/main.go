// Command stopss-load is the workload generator of the demonstration
// setup (paper §4): it simulates many concurrent companies and
// candidates driving a running stopss-server over HTTP.
//
// With -durable-frac > 0 a fraction of the companies subscribe
// DURABLY (requires -journal-dir on the server) and receive their
// notifications on a local TCP endpoint that the generator
// periodically kills and revives (-churn-interval), issuing
// /api/v1/resume on every revival — exercising park, catch-up replay and
// at-least-once delivery under subscriber churn.
//
// With -store-churn N the generator runs a different, in-process
// experiment instead: it builds the broker stack locally and churns N
// durable subscribers through the paged subscription store — detach,
// publish, resume, crash-restart — reporting resume latencies and the
// process RSS against the store's fixed page budget.
//
// Usage:
//
//	stopss-load -url http://127.0.0.1:8080 -companies 50 -resumes 500
//	stopss-load -durable-frac 0.3 -churn-interval 300ms
//	stopss-load -store-churn 1000000 -store-pages 1024
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"stopss/internal/sublang"
	"stopss/internal/workload"
)

// churnEndpoint is the durable subscribers' notification sink: a TCP
// listener on a fixed local port that can be killed and revived to
// simulate a flapping subscriber. Received notification lines are
// counted and discarded.
type churnEndpoint struct {
	addr string
	n    atomic.Int64

	mu    sync.Mutex
	ln    net.Listener
	conns map[net.Conn]struct{}
	wg    sync.WaitGroup
}

func newChurnEndpoint() (*churnEndpoint, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("churn endpoint: %w", err)
	}
	ep := &churnEndpoint{addr: ln.Addr().String(), conns: make(map[net.Conn]struct{})}
	ep.mu.Lock()
	ep.ln = ln
	ep.mu.Unlock()
	ep.wg.Add(1)
	go ep.accept(ln)
	return ep, nil
}

// start revives the listener on the SAME port (no-op when alive).
func (e *churnEndpoint) start() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.ln != nil {
		return nil
	}
	ln, err := net.Listen("tcp", e.addr)
	if err != nil {
		return fmt.Errorf("churn endpoint relisten: %w", err)
	}
	e.ln = ln
	e.wg.Add(1)
	go e.accept(ln)
	return nil
}

// stop kills the listener AND every accepted connection — the
// server's cached conns break on their next write, so deliveries fail
// and park.
func (e *churnEndpoint) stop() {
	e.mu.Lock()
	if e.ln != nil {
		e.ln.Close()
		e.ln = nil
	}
	for c := range e.conns {
		c.Close()
	}
	e.mu.Unlock()
}

func (e *churnEndpoint) close() { e.stop(); e.wg.Wait() }

func (e *churnEndpoint) received() int64 { return e.n.Load() }

func (e *churnEndpoint) accept(ln net.Listener) {
	defer e.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener killed
		}
		e.mu.Lock()
		e.conns[conn] = struct{}{}
		e.mu.Unlock()
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			defer func() {
				conn.Close()
				e.mu.Lock()
				delete(e.conns, conn)
				e.mu.Unlock()
			}()
			sc := bufio.NewScanner(conn)
			sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
			for sc.Scan() {
				e.n.Add(1)
			}
		}()
	}
}

func main() {
	url := flag.String("url", "http://127.0.0.1:8080", "stopss-server base URL")
	companies := flag.Int("companies", 50, "number of subscribing companies")
	resumes := flag.Int("resumes", 500, "number of candidate resumes to publish")
	concurrency := flag.Int("concurrency", 8, "concurrent publishers")
	seed := flag.Int64("seed", 2003, "workload seed")
	durableFrac := flag.Float64("durable-frac", 0, "fraction of companies subscribing durably with a churning local TCP endpoint (0..1; needs -journal-dir on the server)")
	churnInterval := flag.Duration("churn-interval", 300*time.Millisecond, "durable endpoint disconnect/reconnect period")
	storeChurn := flag.Int("store-churn", 0, "in-process mode: churn this many durable subscribers through the paged subscription store instead of driving a server (try 1000000)")
	storeChurnDir := flag.String("store-churn-dir", "", "working directory for -store-churn (default: a temp dir, removed afterwards)")
	storePages := flag.Int("store-pages", 1024, "subscription-store buffer-pool pages for -store-churn")
	flag.Parse()
	if *storeChurn > 0 {
		if err := storeChurnMain(*storeChurn, *storePages, *storeChurnDir, *seed); err != nil {
			log.Fatalf("stopss-load: %v", err)
		}
		return
	}
	if *durableFrac < 0 || *durableFrac > 1 {
		log.Fatalf("stopss-load: -durable-frac must be in [0,1], got %v", *durableFrac)
	}
	if err := run(*url, *companies, *resumes, *concurrency, *seed, *durableFrac, *churnInterval); err != nil {
		log.Fatalf("stopss-load: %v", err)
	}
}

func post(url string, body any) (map[string]any, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("%s: %v", resp.Status, out["error"])
	}
	return out, nil
}

func run(url string, companies, resumes, concurrency int, seed int64, durableFrac float64, churnInterval time.Duration) error {
	jf := workload.NewJobFinder(seed)

	// Durable subscribers get a real, churnable TCP endpoint.
	var ep *churnEndpoint
	var durableNames []string
	nDurable := int(durableFrac * float64(companies))
	if nDurable > 0 {
		var err error
		if ep, err = newChurnEndpoint(); err != nil {
			return err
		}
		defer ep.close()
	}

	// Register companies and their subscriptions; the first nDurable
	// subscribe durably, routed to the churn endpoint.
	for i, s := range jf.Recruiters(companies) {
		durable := i < nDurable
		reg := map[string]any{"name": s.Subscriber}
		if durable {
			reg["transport"], reg["addr"] = "tcp", ep.addr
		}
		if _, err := post(url+"/api/v1/register", reg); err != nil {
			return fmt.Errorf("register %s: %w", s.Subscriber, err)
		}
		if _, err := post(url+"/api/v1/subscribe", map[string]any{
			"client":       s.Subscriber,
			"subscription": sublang.FormatSubscription(s.Preds),
			"durable":      durable,
		}); err != nil {
			return fmt.Errorf("subscribe %s: %w", s.Subscriber, err)
		}
		if durable {
			durableNames = append(durableNames, s.Subscriber)
		}
	}
	log.Printf("registered %d companies (%d durable)", companies, nDurable)

	// Churn loop: kill the endpoint (deliveries park server-side),
	// revive it, resume every durable subscription from its cursor.
	churnDone := make(chan struct{})
	var churnWG sync.WaitGroup
	if nDurable > 0 && churnInterval > 0 {
		churnWG.Add(1)
		go func() {
			defer churnWG.Done()
			tick := time.NewTicker(churnInterval)
			defer tick.Stop()
			for {
				select {
				case <-churnDone:
					return
				case <-tick.C:
				}
				ep.stop()
				select {
				case <-churnDone:
				case <-time.After(churnInterval):
				}
				if err := ep.start(); err != nil {
					log.Printf("churn: relisten: %v", err)
					return
				}
				resumeAll(url, durableNames)
			}
		}()
	}

	// Publish resumes concurrently.
	events := jf.Resumes(resumes)
	var matches, published atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(events); i += concurrency {
				out, err := post(url+"/api/v1/publish", map[string]string{
					"event": sublang.FormatEvent(events[i]),
				})
				if err != nil {
					log.Printf("publish: %v", err)
					continue
				}
				published.Add(1)
				if ms, ok := out["matches"].([]any); ok {
					matches.Add(int64(len(ms)))
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(t0)
	if nDurable > 0 {
		close(churnDone)
		churnWG.Wait()
		// Final revival, then resume until quiescent: three consecutive
		// rounds replaying nothing means no parked notifications remain
		// (in-flight ones either ack or park into a later round; the
		// spacing outlasts the server's retry backoff).
		if err := ep.start(); err == nil {
			quiet := 0
			for tries := 0; tries < 100 && quiet < 3; tries++ {
				if resumeAll(url, durableNames) == 0 {
					quiet++
				} else {
					quiet = 0
				}
				time.Sleep(20 * time.Millisecond)
			}
		}
	}

	fmt.Println(strings.Repeat("-", 60))
	fmt.Printf("published:  %d resumes in %v (%.0f/sec)\n",
		published.Load(), elapsed.Round(time.Millisecond),
		float64(published.Load())/elapsed.Seconds())
	fmt.Printf("matches:    %d (%.2f per resume)\n",
		matches.Load(), float64(matches.Load())/float64(published.Load()))

	// Server-side stats.
	resp, err := http.Get(url + "/api/v1/stats")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var stats map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		return err
	}
	fmt.Printf("server:     %v clients, %v subscriptions, %v published, %v notified\n",
		stats["Clients"], stats["Subscriptions"], stats["Published"], stats["Notified"])
	// Per-stage latency quantiles from the Prometheus exposition
	// (DESIGN §10) — best-effort: older servers have no /metrics.
	if stages, err := scrapeStages(url); err == nil {
		printStageTable(os.Stdout, stages)
	} else {
		log.Printf("scraping /metrics: %v", err)
	}
	// Laggiest subscriptions from the per-subscription accounting
	// endpoint — also best-effort on older servers.
	if total, rows, err := scrapeSubs(url, 5); err == nil {
		printSubsTable(os.Stdout, total, rows)
	} else {
		log.Printf("scraping /api/v1/subs: %v", err)
	}
	if nDurable > 0 {
		fmt.Printf("durable:    %v subs, %v acked, %v parked, %v replayed; endpoint received %d\n",
			stats["Durable"], stats["Acked"], stats["Parked"], stats["Replayed"], ep.received())
		if resp, err := http.Get(url + "/api/v1/journal"); err == nil {
			var jb map[string]any
			if json.NewDecoder(resp.Body).Decode(&jb) == nil {
				fmt.Printf("journal:    %v\n", jb["stats"])
			}
			resp.Body.Close()
		}
	}
	return nil
}

// resumeAll issues replay-from-cursor for every durable subscription
// of the named clients (id lookup via /api/v1/subscriptions) and returns
// the total number of notifications the server re-dispatched.
func resumeAll(url string, clients []string) int {
	total := 0
	for _, c := range clients {
		resp, err := http.Get(url + "/api/v1/subscriptions?client=" + c)
		if err != nil {
			log.Printf("churn: listing subs of %s: %v", c, err)
			continue
		}
		var body struct {
			Subscriptions []struct {
				ID float64 `json:"id"`
			} `json:"subscriptions"`
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil {
			log.Printf("churn: decoding subs of %s: %v", c, err)
			continue
		}
		for _, s := range body.Subscriptions {
			out, err := post(url+"/api/v1/resume", map[string]any{"client": c, "id": s.ID})
			if err != nil {
				log.Printf("churn: resume %s/%v: %v", c, s.ID, err)
				continue
			}
			if n, ok := out["replayed"].(float64); ok {
				total += int(n)
			}
		}
	}
	return total
}
