package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// spec is BENCHMARK.json: the contract a run's output is held to. The
// harness reads metric names, units and bounds from it, so they are
// written down once.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(root string) (*spec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &sp, nil
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int     // samples behind the value; 0 for a single reading
}

// report is the last line of a run's standard output.
type report struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// measured is a run's metrics by name before they are matched against
// the spec.
type measured map[string]value

func (m measured) set(name string, v float64, n int) { m[name] = value{Value: v, n: n} }

// report keeps exactly the metrics the spec lists, with the spec's
// units. A listed metric the run did not produce, or produced as NaN or
// infinity, is an error: the contract wants every one, every time.
func (m measured) report(s *sample, want []metricSpec) (*report, error) {
	r := &report{Correct: s.failed == 0, Attempted: s.attempted, Failed: s.failed, Metrics: make(map[string]value, len(want))}
	for _, ms := range want {
		v, ok := m[ms.Name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("workload %s: metric %s was not measured (value %v)", s.sc.Name, ms.Name, v.Value)
		}
		v.Unit = ms.Unit
		r.Metrics[ms.Name] = v
	}
	return r, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// endToEnd turns a run into the metrics a user of the system would see.
func (s *sample) endToEnd() measured {
	m := measured{}
	m.set("setup_s", median(s.setupS), len(s.setupS))
	m.set("pubs_per_s", s.pubsPerS, len(s.capacity))

	var ack, deliver []float64
	for _, p := range s.paced {
		if p.err != nil {
			continue
		}
		ack = append(ack, ms(p.acked.Sub(p.intended)))
		// Delivery latency exists for publishes that must notify someone.
		if len(p.event.Expect) > 0 && p.complete() {
			deliver = append(deliver, ms(p.last.Sub(p.intended)))
		}
	}
	m.set("ack_p50_ms", windowMedian(ack, 0.50), len(ack))
	m.set("deliver_p50_ms", windowMedian(deliver, 0.50), len(deliver))
	m.set("deliver_p90_ms", windowMedian(deliver, 0.90), len(deliver))
	// The tail beyond p90 is reported, not gated: per window it has too
	// few samples beyond it, and over the whole phase one slow second of
	// the host decides it.
	m.set("loadgen.deliver_p99_ms", percentile(deliver, 0.99), len(deliver))
	m.set("cpu_ms_per_pub", median(s.cpuPerPubMS), len(s.paced))
	m.set("rss_peak_mb", s.rssPeakMB, 0)
	return m
}

// ratio is a/b, or 0 when the workload never exercised the counter
// below the line (no journal appends, no plan lookups).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerCounts adds the per-layer metrics that are counts, read from what
// the servers export (GET /api/v1/stats, GET /metrics) and from the load
// generator itself. Per-publish ratios cover the paced phase only;
// totals cover the whole run, set-up included.
func (s *sample) layerCounts(m measured) {
	var d struct {
		events, derived, matches, semanticNS, matchNS, hits, misses float64
		appends, commits, journalBytes                              float64
	}
	var dropped, parked, acked, retried, dead, planHits, planMisses float64
	var fwd, dedup, subsFwd, subsPruned float64
	for i := range s.final {
		b, a, f := s.before[i], s.after[i], s.final[i]
		d.events += float64(a.Engine.Events - b.Engine.Events)
		d.derived += float64(a.Engine.DerivedEvents - b.Engine.DerivedEvents)
		d.matches += float64(a.Engine.Matches - b.Engine.Matches)
		d.semanticNS += float64(a.Engine.SemanticTime - b.Engine.SemanticTime)
		d.matchNS += float64(a.Engine.MatchTime - b.Engine.MatchTime)
		d.hits += float64(a.Engine.ExpansionHits - b.Engine.ExpansionHits)
		d.misses += float64(a.Engine.ExpansionMisses - b.Engine.ExpansionMisses)
		d.appends += float64(a.Journal.Appends - b.Journal.Appends)
		d.commits += float64(a.Journal.GroupCommits - b.Journal.GroupCommits)
		d.journalBytes += float64(a.Journal.Bytes - b.Journal.Bytes)
		dropped += float64(f.DropsNoRoute)
		parked += float64(f.Parked)
		acked += float64(f.Acked)
		retried += float64(f.Notify.Retried)
		dead += float64(f.Notify.DeadLetters) + float64(f.Notify.DeadLettersDropped)
		planHits += float64(f.Engine.PlanCacheHits)
		planMisses += float64(f.Engine.PlanCacheMisses)
		fwd += float64(f.Remote.PubsForwarded)
		dedup += float64(f.Remote.PubsDeduped)
		subsFwd += float64(f.Remote.SubsForwarded)
		subsPruned += float64(f.Remote.SubsPruned)
	}
	n := int(d.events)
	m.set("semantic.derived_per_pub", ratio(d.derived, d.events), n)
	m.set("matching.matches_per_pub", ratio(d.matches, d.events), n)
	m.set("core.server_semantic_us", ratio(d.semanticNS, d.events)/1e3, n)
	m.set("core.server_match_us", ratio(d.matchNS, d.events)/1e3, n)
	m.set("core.expansion_hit_ratio", ratio(d.hits, d.hits+d.misses), int(d.hits+d.misses))
	m.set("matching.plan_cache_hit_ratio", ratio(planHits, planHits+planMisses), int(planHits+planMisses))
	m.set("journal.bytes_per_pub", ratio(d.journalBytes, d.appends), int(d.appends))
	m.set("journal.group_commits_per_append", ratio(d.commits, d.appends), int(d.appends))
	m.set("broker.dropped", dropped, 0)
	m.set("broker.parked", parked, 0)
	m.set("broker.acked", acked, 0)
	m.set("notify.retried", retried, 0)
	m.set("notify.dead_lettered", dead, 0)
	m.set("overlay.pubs_forwarded", fwd, 0)
	m.set("overlay.pubs_deduped", dedup, 0)
	m.set("overlay.subs_forwarded", subsFwd, 0)
	m.set("overlay.subs_pruned", subsPruned, 0)

	// The server's own stage histograms (it ships with -trace-sample 1):
	// publish and publish→ack as the entry broker saw them, match,
	// journal and deliver as the broker holding the subscribers did.
	entry, edge := s.final[0].Stages, s.final[len(s.final)-1].Stages
	m.set("trace.stage_publish_p50_us", us(entry.Publish.P50), int(entry.Publish.Count))
	m.set("trace.stage_publish_to_ack_p50_us", us(entry.PublishToAck.P50), int(entry.PublishToAck.Count))
	m.set("trace.stage_match_p50_us", us(edge.Match.P50), int(edge.Match.Count))
	m.set("trace.stage_journal_append_p50_us", us(edge.Journal.P50), int(edge.Journal.Count))
	m.set("trace.stage_deliver_p50_us", us(edge.Deliver.P50), int(edge.Deliver.Count))

	var gc, goroutines, heap float64
	for _, g := range s.runtime {
		gc = max(gc, g["gc_pause_p99_ns"]/1e3)
		goroutines += g["goroutines"]
		heap += g["heap_bytes"] / (1 << 20)
	}
	m.set("metrics.gc_pause_p99_us", gc, 0)
	m.set("metrics.goroutines", goroutines, 0)
	m.set("metrics.heap_mb", heap, 0)

	var late []float64
	httpErrors := 0
	for _, p := range s.paced {
		late = append(late, ms(p.sent.Sub(p.intended)))
		if p.acked.IsZero() {
			httpErrors++
		}
	}
	m.set("loadgen.lateness_p99_ms", percentile(late, 0.99), len(late))
	m.set("loadgen.http_rtt_us", median(s.httpRTTus), len(s.httpRTTus))
	m.set("loadgen.churn_pair_p50_us", orZero(s.churnMS)*1000, len(s.churnMS))
	m.set("loadgen.churn_pairs_per_s", float64(len(s.churnMS))/s.phases.paced.Seconds(), len(s.churnMS))
	m.set("webapp.http_errors", float64(httpErrors+s.churnFailed), len(s.paced))
}
