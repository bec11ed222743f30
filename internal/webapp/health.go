package webapp

import (
	"fmt"
	"net/http"
	"strconv"

	"stopss/internal/broker"
	"stopss/internal/metrics"
	"stopss/internal/overlay"
)

// Federation health plane (DESIGN §10): the per-subscription delivery
// accounting view and the gossiped cluster introspection view.
//
//	GET /api/v1/subs     → per-subscription delivery counters, journal
//	                       lag and last-delivery age, laggiest first
//	                       (?limit=K caps the rows, ?min_lag=N filters)
//	GET /api/v1/cluster  → every broker's last gossiped health summary
//	                       with local staleness stamps (overlay only)

// WithCluster exposes the overlay node's federation health view at
// GET /api/v1/cluster (pass overlay.Node.ClusterView). Standalone
// brokers leave it unset; the endpoint then reports 404.
func WithCluster(view func() []overlay.ClusterEntry) Option {
	return func(s *Server) { s.cluster = view }
}

// defaultSubsLimit caps a GET /api/v1/subs response when the client
// sends no ?limit= — the endpoint is a "what's hurting" view, not a
// full dump, and a broker can hold tens of thousands of subscriptions.
const defaultSubsLimit = 100

// subsResponse is the GET /api/v1/subs body. Total counts every
// tracked subscription on the broker, Matched the rows passing the
// min_lag filter; Subs holds at most the requested limit, laggiest
// first (the broker's SubStats order).
type subsResponse struct {
	Total   int              `json:"total"`
	Matched int              `json:"matched"`
	Subs    []broker.SubStat `json:"subs"`
}

func (s *Server) handleSubs(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	limit := defaultSubsLimit
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("webapp: bad ?limit=%q (want a non-negative integer)", v))
			return
		}
		limit = n
	}
	var minLag uint64
	if v := q.Get("min_lag"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("webapp: bad ?min_lag=%q (want a non-negative integer)", v))
			return
		}
		minLag = n
	}
	all := s.broker.SubStats()
	resp := subsResponse{Total: len(all), Subs: []broker.SubStat{}}
	for _, st := range all {
		if st.Lag < minLag {
			continue
		}
		resp.Matched++
		if limit == 0 || len(resp.Subs) < limit {
			resp.Subs = append(resp.Subs, st)
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// clusterResponse is the GET /api/v1/cluster body.
type clusterResponse struct {
	Brokers int                    `json:"brokers"`
	Stale   int                    `json:"stale"`
	Cluster []overlay.ClusterEntry `json:"cluster"`
}

func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	if s.cluster == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("webapp: no overlay attached to this broker (cluster view needs -listen/-peer federation)"))
		return
	}
	view := s.cluster()
	resp := clusterResponse{Brokers: len(view), Cluster: view}
	for _, e := range view {
		if e.Stale {
			resp.Stale++
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// healthTopK bounds the per-subscription lag gauges on /metrics. Ranked
// names (sub_lag_rank1…K) keep the exposition's cardinality constant no
// matter how many subscriptions the broker holds — per-sub label values
// would grow without bound and blow up any scraping backend.
const healthTopK = 5

// writeHealthMetrics appends the process-health and subscription-lag
// families to a /metrics scrape: Go runtime vitals (goroutines, heap,
// GC pause p99, scheduler latency p99) and the top-K laggiest durable
// subscriptions, all snapshotted into scratch registries per scrape.
func (s *Server) writeHealthMetrics(w http.ResponseWriter, labels map[string]string) {
	run := metrics.NewRegistry()
	run.SetRuntimeGauges(metrics.ReadRuntime())
	if err := run.WritePrometheus(w, "stopss", labels); err != nil {
		return
	}

	stats := s.broker.SubStats()
	sub := metrics.NewRegistry()
	sub.Gauge("tracked").Set(int64(len(stats)))
	var maxLag, sumLag uint64
	for _, st := range stats {
		sumLag += st.Lag
		if st.Lag > maxLag {
			maxLag = st.Lag
		}
	}
	sub.Gauge("lag_max").Set(int64(maxLag))
	sub.Gauge("lag_sum").Set(int64(sumLag))
	for i := 0; i < len(stats) && i < healthTopK; i++ {
		if stats[i].Lag == 0 {
			break // SubStats sorts lag-descending; the rest are caught up
		}
		rank := strconv.Itoa(i + 1)
		sub.Gauge("lag_rank" + rank).Set(int64(stats[i].Lag))
		sub.Gauge("lag_rank" + rank + "_id").Set(int64(stats[i].ID))
	}
	_ = sub.WritePrometheus(w, "stopss_subs", labels)
}
