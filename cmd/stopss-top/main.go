// Command stopss-top is a live terminal dashboard over the federation
// health plane (DESIGN §10). It polls one broker's HTTP API — GET
// /api/v1/cluster for the gossiped cluster view and GET /api/v1/subs
// for the per-subscription delivery accounting — and renders three
// tables: broker health across the whole federation (any broker's
// view covers every peer, so one -url suffices), the hottest overlay
// links by queue depth and traffic, and the laggiest subscriptions on
// the polled broker.
//
// Usage:
//
//	stopss-top -url http://127.0.0.1:8080
//	stopss-top -url http://127.0.0.1:8080 -interval 2s -n 10
//	stopss-top -once            # one frame, no screen control (for scripts)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"time"
)

// The wire shapes below mirror overlay.ClusterEntry / broker.SubStat,
// decoded loosely so the tool keeps working as the server grows
// fields. stopss-top deliberately imports no internal packages: it is
// a pure HTTP client, usable against any reachable broker.

type opsLink struct {
	Peer     string `json:"peer"`
	Queue    int    `json:"queue"`
	Inflight int64  `json:"inflight"`
	Sent     uint64 `json:"sent"`
	Recv     uint64 `json:"recv"`
}

type opsSummary struct {
	Origin        string    `json:"origin"`
	Epoch         string    `json:"epoch"`
	Stamp         time.Time `json:"stamp"`
	Links         []opsLink `json:"links"`
	Subscriptions int       `json:"subscriptions"`
	Durable       int       `json:"durable"`
	Detached      int       `json:"detached"`
	Published     uint64    `json:"published"`
	Delivered     uint64    `json:"delivered"`
	Parked        uint64    `json:"parked"`
	DeadLetters   int       `json:"dead_letters"`
	JournalHead   uint64    `json:"journal_head"`
	JournalFloor  uint64    `json:"journal_floor"`
	StoreResident int       `json:"store_resident"`
	Goroutines    int64     `json:"goroutines"`
	HeapBytes     uint64    `json:"heap_bytes"`
}

type clusterEntry struct {
	Broker  string     `json:"broker"`
	Self    bool       `json:"self"`
	AgeMS   int64      `json:"age_ms"`
	Stale   bool       `json:"stale"`
	Down    bool       `json:"down"`
	Summary opsSummary `json:"summary"`
}

type clusterView struct {
	Brokers int            `json:"brokers"`
	Stale   int            `json:"stale"`
	Cluster []clusterEntry `json:"cluster"`
}

type subRow struct {
	ID                uint64 `json:"id"`
	Client            string `json:"client"`
	Durable           bool   `json:"durable"`
	Matched           uint64 `json:"matched"`
	Delivered         uint64 `json:"delivered"`
	Retried           uint64 `json:"retried"`
	Parked            uint64 `json:"parked"`
	Pending           int    `json:"pending"`
	Lag               uint64 `json:"lag"`
	LastDeliveryAgeMS int64  `json:"last_delivery_age_ms"`
}

type subsView struct {
	Total int      `json:"total"`
	Subs  []subRow `json:"subs"`
}

func fetchJSON(client *http.Client, url string, out any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 200))
		return fmt.Errorf("GET %s: %s: %s", url, resp.Status, body)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// hotLink is one overlay link flattened out of the cluster view for
// the hottest-links table, keyed by reporting broker.
type hotLink struct {
	broker string
	l      opsLink
}

func render(w io.Writer, url string, cv *clusterView, sv *subsView, subErr error, topN int) {
	now := time.Now().Format("15:04:05")
	fmt.Fprintf(w, "stopss-top — %s — %s   brokers:%d stale:%d\n\n",
		url, now, cv.Brokers, cv.Stale)

	// Broker health across the federation.
	fmt.Fprintf(w, "%-12s %-6s %8s %6s %8s %9s %10s %8s %7s %7s %9s\n",
		"BROKER", "STATE", "AGE", "SUBS", "DURABLE", "PUBLISHED", "DELIVERED", "PARKED", "JHEAD", "GOROS", "HEAP")
	for _, e := range cv.Cluster {
		state, age := "ok", "live"
		switch {
		case e.Down:
			state = "DOWN"
		case e.Stale:
			state = "STALE"
		}
		if !e.Self {
			age = (time.Duration(e.AgeMS) * time.Millisecond).Round(time.Millisecond).String()
		}
		s := e.Summary
		fmt.Fprintf(w, "%-12s %-6s %8s %6d %8d %9d %10d %8d %7d %7d %9s\n",
			e.Broker, state, age, s.Subscriptions, s.Durable,
			s.Published, s.Delivered, s.Parked, s.JournalHead,
			s.Goroutines, fmtBytes(s.HeapBytes))
	}

	// Hottest links: deepest queues first, then busiest.
	var links []hotLink
	for _, e := range cv.Cluster {
		for _, l := range e.Summary.Links {
			links = append(links, hotLink{e.Broker, l})
		}
	}
	sort.Slice(links, func(i, j int) bool {
		if links[i].l.Queue != links[j].l.Queue {
			return links[i].l.Queue > links[j].l.Queue
		}
		return links[i].l.Sent+links[i].l.Recv > links[j].l.Sent+links[j].l.Recv
	})
	if len(links) > topN {
		links = links[:topN]
	}
	if len(links) > 0 {
		fmt.Fprintf(w, "\n%-12s %-12s %6s %9s %10s %10s\n",
			"LINK", "PEER", "QUEUE", "INFLIGHT", "SENT", "RECV")
		for _, h := range links {
			fmt.Fprintf(w, "%-12s %-12s %6d %9d %10d %10d\n",
				h.broker, h.l.Peer, h.l.Queue, h.l.Inflight, h.l.Sent, h.l.Recv)
		}
	}

	// Laggiest subscriptions on the polled broker.
	switch {
	case subErr != nil:
		fmt.Fprintf(w, "\nsubscriptions: %v\n", subErr)
	case len(sv.Subs) == 0:
		fmt.Fprintf(w, "\nsubscriptions: %d tracked, none lagging\n", sv.Total)
	default:
		fmt.Fprintf(w, "\nlaggiest subscriptions (%d tracked on polled broker):\n", sv.Total)
		fmt.Fprintf(w, "%-6s %-14s %-7s %8s %9s %7s %8s %6s %12s\n",
			"SUB", "CLIENT", "DURABLE", "MATCHED", "DELIVERED", "PARKED", "PENDING", "LAG", "LAST-DELIVER")
		for _, r := range sv.Subs {
			last := "never"
			if r.LastDeliveryAgeMS >= 0 {
				last = (time.Duration(r.LastDeliveryAgeMS) * time.Millisecond).Round(time.Millisecond).String()
			}
			fmt.Fprintf(w, "%-6d %-14s %-7v %8d %9d %7d %8d %6d %12s\n",
				r.ID, r.Client, r.Durable, r.Matched, r.Delivered, r.Parked, r.Pending, r.Lag, last)
		}
	}
}

func fmtBytes(n uint64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%dB", n)
}

func main() {
	url := flag.String("url", "http://127.0.0.1:8080", "base URL of any broker in the federation")
	interval := flag.Duration("interval", time.Second, "refresh interval")
	topN := flag.Int("n", 8, "rows in the hottest-links and laggiest-subscriptions tables")
	once := flag.Bool("once", false, "print one frame without screen control and exit")
	flag.Parse()
	if *topN < 1 || *interval <= 0 {
		fmt.Fprintln(os.Stderr, "stopss-top: -n must be at least 1 and -interval positive")
		flag.Usage()
		os.Exit(2)
	}

	client := &http.Client{Timeout: 5 * time.Second}
	frame := func() error {
		var cv clusterView
		if err := fetchJSON(client, *url+"/api/v1/cluster", &cv); err != nil {
			return err
		}
		var sv subsView
		subErr := fetchJSON(client, fmt.Sprintf("%s/api/v1/subs?limit=%d", *url, *topN), &sv)
		if !*once {
			fmt.Print("\x1b[H\x1b[2J") // cursor home + clear screen
		}
		render(os.Stdout, *url, &cv, &sv, subErr, *topN)
		return nil
	}

	if err := frame(); err != nil {
		fmt.Fprintln(os.Stderr, "stopss-top:", err)
		os.Exit(1)
	}
	if *once {
		return
	}
	for range time.Tick(*interval) {
		if err := frame(); err != nil {
			// Transient poll failures (broker restarting) keep the loop
			// alive; the last good frame stays on screen.
			fmt.Fprintln(os.Stderr, "stopss-top:", err)
		}
	}
}
