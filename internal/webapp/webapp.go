// Package webapp implements the web application of the demonstration
// setup (paper §4, Figure 2): client registration, subscription and
// publication input over an HTTP/JSON API, a mode switch between
// semantic and syntactic operation, and a statistics view.
//
// The API is versioned: every route lives under /api/v1/.... Errors
// are a uniform JSON envelope {"error":"...","code":<http status>} with the status code
// repeated in the body, and broker conditions map to proper statuses:
// unknown client/subscription → 404, foreign subscription → 403,
// non-durable subscription or missing journal/store → 409, malformed
// input → 400.
//
// Subscriptions and publications are submitted in the paper's surface
// syntax (internal/sublang):
//
//	POST /api/v1/register      {"name":"acme","transport":"tcp","addr":"127.0.0.1:9000"}
//	POST /api/v1/subscribe     {"client":"acme","subscription":"(university = Toronto) and (degree = PhD)"}
//	POST /api/v1/subscribe     {"client":"acme","subscription":"...","durable":true}
//	POST /api/v1/resume        {"client":"acme","id":1}   → replay-from-cursor for a durable sub
//	POST /api/v1/detach        {"client":"acme","id":1}   → page a durable sub out to the store
//	POST /api/v1/unsubscribe   {"client":"acme","id":1}
//	POST /api/v1/publish       {"event":"(school, Toronto)(degree, PhD)(graduation year, 1990)"}
//	                             → {"matches":[…],"notified":N,"dropped":N,"pub_id":"…"}
//	POST /api/v1/publish-from  {"client":"acme","event":"..."}  → enforces the advertisement
//	POST /api/v1/advertise     {"client":"acme","advertisement":"..."}
//	GET  /api/v1/overlaps?client=acme → subscriptions the advertisement can match
//	POST /api/v1/explain       {"id":1,"event":"..."} → why (not) matched
//	GET  /api/v1/mode          → {"mode":"semantic"}
//	POST /api/v1/mode          {"mode":"syntactic"}
//	GET  /api/v1/stats         → broker and engine counters
//	GET  /api/v1/clients       → registered client names
//	GET  /api/v1/subscriptions?client=acme → the client's subscriptions
//	GET  /api/v1/snapshot      → durable broker state as JSON lines
//	GET  /api/v1/kb            → knowledge-base version (delta count + digest)
//	POST /api/v1/kb            JSONL knowledge deltas (ontc -delta output)
//	GET  /api/v1/journal       → publication-journal stats + durable cursors
//	GET  /api/v1/trace/<id>    → assembled span tree of one publication
//	                             (DESIGN §10; the '#' in the pub ID may be
//	                             sent raw or URL-encoded as %23)
//	GET  /api/v1/subs          → per-subscription delivery accounting,
//	                             laggiest first (?limit=K, ?min_lag=N)
//	GET  /api/v1/cluster       → gossiped federation health view with
//	                             staleness stamps (overlay brokers only)
//	GET  /metrics              → Prometheus text exposition of every registry
//	GET  /                     → demo page
package webapp

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"

	"stopss/internal/broker"
	"stopss/internal/core"
	"stopss/internal/knowledge"
	"stopss/internal/message"
	"stopss/internal/metrics"
	"stopss/internal/notify"
	"stopss/internal/overlay"
	"stopss/internal/sublang"
	"stopss/internal/trace"
)

// metricSource is one registry rendered into GET /metrics.
type metricSource struct {
	prefix string
	reg    *metrics.Registry
}

// Server is the HTTP front end over a broker.
type Server struct {
	broker  *broker.Broker
	mux     *http.ServeMux
	sources []metricSource
	labels  map[string]string
	// cluster supplies the federation health view for GET /api/v1/cluster
	// (WithCluster); nil on standalone brokers.
	cluster func() []overlay.ClusterEntry
}

// Option customizes a Server.
type Option func(*Server)

// WithMetrics adds a registry to the GET /metrics exposition under the
// given prefix (the broker tracer's registry — stage histograms, trace
// counters, overlay counters when the tracer was installed by an
// overlay node — is always included under "stopss"). Registries must
// not repeat a (prefix, metric name) pair or the exposition would emit
// duplicate families.
func WithMetrics(prefix string, reg *metrics.Registry) Option {
	return func(s *Server) {
		if reg != nil {
			s.sources = append(s.sources, metricSource{prefix: prefix, reg: reg})
		}
	}
}

// WithMetricsLabels attaches constant labels (e.g. broker identity) to
// every exposed sample. Defaults to broker="<tracer identity>".
func WithMetricsLabels(labels map[string]string) Option {
	return func(s *Server) { s.labels = labels }
}

// NewServer builds the handler tree.
func NewServer(b *broker.Broker, opts ...Option) *Server {
	s := &Server{broker: b, mux: http.NewServeMux()}
	for _, o := range opts {
		o(s)
	}
	// Every API route lives under the versioned /api/v1 prefix.
	s.mux.HandleFunc("POST /api/v1/register", s.handleRegister)
	s.mux.HandleFunc("POST /api/v1/subscribe", s.handleSubscribe)
	s.mux.HandleFunc("POST /api/v1/unsubscribe", s.handleUnsubscribe)
	s.mux.HandleFunc("POST /api/v1/publish", s.handlePublish)
	s.mux.HandleFunc("GET /api/v1/mode", s.handleGetMode)
	s.mux.HandleFunc("POST /api/v1/mode", s.handleSetMode)
	s.mux.HandleFunc("POST /api/v1/advertise", s.handleAdvertise)
	s.mux.HandleFunc("POST /api/v1/publish-from", s.handlePublishFrom)
	s.mux.HandleFunc("GET /api/v1/overlaps", s.handleOverlaps)
	s.mux.HandleFunc("POST /api/v1/explain", s.handleExplain)
	s.mux.HandleFunc("GET /api/v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /api/v1/clients", s.handleClients)
	s.mux.HandleFunc("GET /api/v1/subscriptions", s.handleSubscriptions)
	s.mux.HandleFunc("GET /api/v1/snapshot", s.handleSnapshot)
	s.mux.HandleFunc("GET /api/v1/kb", s.handleKBStatus)
	s.mux.HandleFunc("POST /api/v1/kb", s.handleKBApply)
	s.mux.HandleFunc("GET /api/v1/journal", s.handleJournal)
	s.mux.HandleFunc("POST /api/v1/resume", s.handleResume)
	s.mux.HandleFunc("POST /api/v1/detach", s.handleDetach)
	s.mux.HandleFunc("GET /api/v1/trace/{id...}", s.handleTrace)
	s.mux.HandleFunc("GET /api/v1/subs", s.handleSubs)
	s.mux.HandleFunc("GET /api/v1/cluster", s.handleCluster)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /", s.handleIndex)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// --- wire types ---

type registerRequest struct {
	Name      string `json:"name"`
	Transport string `json:"transport,omitempty"`
	Addr      string `json:"addr,omitempty"`
}

type subscribeRequest struct {
	Client       string `json:"client"`
	Subscription string `json:"subscription"`
	// Durable requests at-least-once delivery backed by the broker's
	// publication journal: the subscription gets a cursor that advances
	// on acknowledged delivery, and POST /api/v1/resume replays everything
	// past it after a reconnect. Requires -journal-dir on the server.
	Durable bool `json:"durable,omitempty"`
}

type subscribeResponse struct {
	// ID is the first (or only) subscription created; IDs lists every
	// subscription of a disjunctive submission, one per "or"-disjunct.
	ID      message.SubID   `json:"id"`
	IDs     []message.SubID `json:"ids"`
	Parsed  string          `json:"parsed"`
	Durable bool            `json:"durable,omitempty"`
}

type unsubscribeRequest struct {
	Client string        `json:"client"`
	ID     message.SubID `json:"id"`
}

type publishRequest struct {
	Event string `json:"event"`
}

type publishResponse struct {
	Matches  []message.SubID `json:"matches"`
	Notified int             `json:"notified"`
	Dropped  int             `json:"dropped"`
	// PubID is the publication's trace identity; feed it (with '#'
	// URL-encoded as %23) to GET /api/v1/trace/<pub_id>.
	PubID string `json:"pub_id,omitempty"`
}

type modeBody struct {
	Mode string `json:"mode"`
}

// errorBody is the uniform error envelope of every API error response.
// Code repeats the HTTP status so clients reading only the body (queued
// responses, logs) can still classify.
type errorBody struct {
	Error string `json:"error"`
	Code  int    `json:"code"`
}

// --- helpers ---

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorBody{Error: err.Error(), Code: status})
}

// writeBrokerErr maps broker sentinel conditions to HTTP statuses:
// things that don't exist are 404, things that exist but belong to
// someone else are 403, operations the broker's configuration or the
// subscription's kind cannot support are 409, and anything else is a
// plain bad request.
func writeBrokerErr(w http.ResponseWriter, err error) {
	writeErr(w, statusFor(err), err)
}

func statusFor(err error) int {
	switch {
	case errors.Is(err, broker.ErrUnknownClient),
		errors.Is(err, broker.ErrUnknownSubscription):
		return http.StatusNotFound
	case errors.Is(err, broker.ErrNotOwner):
		return http.StatusForbidden
	case errors.Is(err, broker.ErrNotDurable),
		errors.Is(err, broker.ErrNoJournal):
		return http.StatusConflict
	default:
		return http.StatusBadRequest
	}
}

func decode[T any](w http.ResponseWriter, r *http.Request, into *T) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("webapp: decoding request: %w", err))
		return false
	}
	return true
}

// --- handlers ---

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	if !decode(w, r, &req) {
		return
	}
	c := broker.Client{Name: req.Name}
	if req.Transport != "" {
		c.Route = notify.Route{Transport: req.Transport, Addr: req.Addr}
	}
	if err := s.broker.Register(c); err != nil {
		writeBrokerErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"registered": req.Name})
}

func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	var req subscribeRequest
	if !decode(w, r, &req) {
		return
	}
	groups, err := sublang.ParseSubscriptionSet(req.Subscription)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	ids := make([]message.SubID, 0, len(groups))
	for _, preds := range groups {
		var id message.SubID
		if req.Durable {
			id, err = s.broker.SubscribeDurable(req.Client, preds)
		} else {
			id, err = s.broker.Subscribe(req.Client, preds)
		}
		if err != nil {
			// Roll back the disjuncts already stored so the submission
			// is all-or-nothing.
			for _, done := range ids {
				_ = s.broker.Unsubscribe(req.Client, done)
			}
			writeBrokerErr(w, err)
			return
		}
		ids = append(ids, id)
	}
	writeJSON(w, http.StatusOK, subscribeResponse{
		ID:      ids[0],
		IDs:     ids,
		Parsed:  sublang.FormatSubscriptionSet(groups),
		Durable: req.Durable,
	})
}

func (s *Server) handleUnsubscribe(w http.ResponseWriter, r *http.Request) {
	var req unsubscribeRequest
	if !decode(w, r, &req) {
		return
	}
	if err := s.broker.Unsubscribe(req.Client, req.ID); err != nil {
		writeBrokerErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"unsubscribed": req.ID})
}

func (s *Server) handlePublish(w http.ResponseWriter, r *http.Request) {
	var req publishRequest
	if !decode(w, r, &req) {
		return
	}
	ev, err := sublang.ParseEvent(req.Event)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	res, err := s.broker.Publish(ev)
	if err != nil {
		writeBrokerErr(w, err)
		return
	}
	matches := res.Matches
	if matches == nil {
		matches = []message.SubID{}
	}
	writeJSON(w, http.StatusOK, publishResponse{
		Matches:  matches,
		Notified: res.Notified,
		Dropped:  res.Dropped,
		PubID:    res.PubID,
	})
}

type advertiseRequest struct {
	Client        string `json:"client"`
	Advertisement string `json:"advertisement"`
}

// handleAdvertise records the publisher's advertised event space.
func (s *Server) handleAdvertise(w http.ResponseWriter, r *http.Request) {
	var req advertiseRequest
	if !decode(w, r, &req) {
		return
	}
	preds, err := sublang.ParseSubscription(req.Advertisement)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if err := s.broker.Advertise(req.Client, preds); err != nil {
		writeBrokerErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"advertised": req.Client})
}

type publishFromRequest struct {
	Client string `json:"client"`
	Event  string `json:"event"`
}

// handlePublishFrom publishes on behalf of a client, enforcing its
// advertisement.
func (s *Server) handlePublishFrom(w http.ResponseWriter, r *http.Request) {
	var req publishFromRequest
	if !decode(w, r, &req) {
		return
	}
	ev, err := sublang.ParseEvent(req.Event)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	res, err := s.broker.PublishFrom(req.Client, ev)
	if err != nil {
		writeBrokerErr(w, err)
		return
	}
	matches := res.Matches
	if matches == nil {
		matches = []message.SubID{}
	}
	writeJSON(w, http.StatusOK, publishResponse{
		Matches: matches, Notified: res.Notified, Dropped: res.Dropped,
		PubID: res.PubID,
	})
}

// handleOverlaps lists the subscriptions a publisher's advertisement can
// ever match.
func (s *Server) handleOverlaps(w http.ResponseWriter, r *http.Request) {
	client := r.URL.Query().Get("client")
	if client == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("webapp: missing ?client= parameter"))
		return
	}
	ids, err := s.broker.OverlappingSubscriptions(client)
	if err != nil {
		writeBrokerErr(w, err)
		return
	}
	if ids == nil {
		ids = []message.SubID{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"client": client, "overlaps": ids})
}

type explainRequest struct {
	ID    message.SubID `json:"id"`
	Event string        `json:"event"`
}

// handleExplain traces why a subscription does or does not match a
// publication — the "witness the matching" view of the demonstration.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	var req explainRequest
	if !decode(w, r, &req) {
		return
	}
	ev, err := sublang.ParseEvent(req.Event)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	x, err := s.broker.Engine().Explain(req.ID, ev)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"matched": x.Matched,
		"trace":   x.String(),
	})
}

func (s *Server) handleGetMode(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, modeBody{Mode: s.broker.Engine().Mode().String()})
}

func (s *Server) handleSetMode(w http.ResponseWriter, r *http.Request) {
	var req modeBody
	if !decode(w, r, &req) {
		return
	}
	mode, err := core.ParseMode(req.Mode)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if err := s.broker.Engine().SetMode(mode); err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, modeBody{Mode: mode.String()})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.broker.Stats())
}

func (s *Server) handleClients(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]string{"clients": s.broker.Clients()})
}

// subscriptionInfo is one row of the GET /api/v1/subscriptions listing.
type subscriptionInfo struct {
	ID   message.SubID `json:"id"`
	Text string        `json:"text"`
}

func (s *Server) handleSubscriptions(w http.ResponseWriter, r *http.Request) {
	client := r.URL.Query().Get("client")
	if client == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("webapp: missing ?client= parameter"))
		return
	}
	var out []subscriptionInfo
	for _, id := range s.broker.SubscriptionsOf(client) {
		if sub, ok := s.broker.Engine().Subscription(id); ok {
			out = append(out, subscriptionInfo{ID: id, Text: sublang.FormatSubscription(sub.Preds)})
		}
	}
	if out == nil {
		out = []subscriptionInfo{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"client": client, "subscriptions": out})
}

// handleKBStatus reports the broker's knowledge-base version: the
// applied-delta count, rejection count and digest operators compare
// across brokers to find federation knowledge skew.
func (s *Server) handleKBStatus(w http.ResponseWriter, r *http.Request) {
	if s.broker.Engine().Knowledge() == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("webapp: no knowledge base bound to this broker"))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"enabled": true,
		"version": s.broker.KnowledgeVersion(),
	})
}

// kbApplyResult is one line's outcome in the POST /api/v1/kb response.
type kbApplyResult struct {
	ID        string `json:"id"`
	Applied   bool   `json:"applied"`
	Duplicate bool   `json:"duplicate,omitempty"`
	Rejected  bool   `json:"rejected,omitempty"`
	Reindexed int    `json:"reindexed,omitempty"`
	Error     string `json:"error,omitempty"`
}

// handleKBApply injects knowledge deltas at runtime: the body is one
// JSON delta per line (the `ontc -delta` output). Unstamped deltas get
// the deterministic content+line stamp (knowledge.FileStamp), so
// re-POSTing the same update log — to this broker or any other — is
// idempotent; applied deltas replicate to the federation through the
// overlay.
//
// The stamp is positional (content + line number), so idempotence
// holds for byte-identical replays only: a delta that reappears at a
// shifted line — a regenerated diff, or logs concatenated into one
// body — gets a fresh identity and re-enters the replicated
// append-only log. That is harmless to convergence (the re-applied
// operation is a no-op or a deterministic rejection, and it floods
// like any delta), but it permanently grows every broker's log and
// changes the federation digest. Treat each update log as an
// immutable artifact: POST it verbatim, and ship new changes as a new
// log rather than editing or concatenating old ones.
//
// Per-line outcomes are reported, and any malformed line fails the
// request after the preceding lines have been applied (application is
// per-delta, not transactional).
func (s *Server) handleKBApply(w http.ResponseWriter, r *http.Request) {
	if s.broker.Engine().Knowledge() == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("webapp: no knowledge base bound to this broker"))
		return
	}
	sc := bufio.NewScanner(http.MaxBytesReader(w, r.Body, 8<<20))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var results []kbApplyResult
	status := http.StatusOK
	var lineNo uint64
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		d, err := knowledge.Decode(line)
		if err == nil {
			d, err = knowledge.FileStamp(lineNo, d)
		}
		if err != nil {
			results = append(results, kbApplyResult{Error: err.Error()})
			status = http.StatusBadRequest
			break
		}
		rep, err := s.broker.InjectKnowledge(d)
		if err != nil {
			results = append(results, kbApplyResult{ID: d.ID(), Error: err.Error()})
			status = http.StatusBadRequest
			break
		}
		results = append(results, kbApplyResult{
			ID:        rep.ID,
			Applied:   rep.Applied,
			Duplicate: rep.Duplicate,
			Rejected:  rep.Rejected,
			Reindexed: rep.Reindexed,
		})
	}
	if err := sc.Err(); err != nil && status == http.StatusOK {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, status, map[string]any{
		"results": results,
		"version": s.broker.KnowledgeVersion(),
	})
}

// handleJournal reports the publication journal's stats and the
// durable cursors — the operator's view of retention pressure, parked
// deliveries and replay progress.
func (s *Server) handleJournal(w http.ResponseWriter, r *http.Request) {
	j := s.broker.Journal()
	if j == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("webapp: no journal attached to this broker (start the server with -journal-dir)"))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"enabled": true,
		"stats":   j.Stats(),
		"cursors": j.Cursors(),
	})
}

type resumeRequest struct {
	Client string        `json:"client"`
	ID     message.SubID `json:"id"`
}

// handleResume re-attaches a durable subscriber after a reconnect:
// everything past the subscription's cursor is replayed (at-least-once
// — records already in flight are delivered once, parked ones are
// retried).
func (s *Server) handleResume(w http.ResponseWriter, r *http.Request) {
	var req resumeRequest
	if !decode(w, r, &req) {
		return
	}
	n, err := s.broker.ResumeDurable(req.Client, req.ID)
	if err != nil {
		writeBrokerErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": req.ID, "replayed": n})
}

// handleDetach pages a durable subscription out to the subscription
// store (requires -store-dir): its resident state is released and a
// later POST /api/v1/resume faults it back in with a full catch-up
// replay. The natural call point is a client library's "going offline
// for a while" signal.
func (s *Server) handleDetach(w http.ResponseWriter, r *http.Request) {
	var req resumeRequest
	if !decode(w, r, &req) {
		return
	}
	if s.broker.Store() == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("webapp: no subscription store attached to this broker (start the server with -store-dir)"))
		return
	}
	if err := s.broker.DetachDurable(req.Client, req.ID); err != nil {
		writeBrokerErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": req.ID, "detached": true})
}

// traceResponse is the GET /api/v1/trace/<id> body: the publication's
// span set, start-sorted, as assembled on THIS broker (span reports
// from downstream brokers travel back along the forwarding path, so
// the origin converges on the full tree once deliveries settle).
type traceResponse struct {
	PubID  string       `json:"pub_id"`
	Broker string       `json:"broker"`
	Spans  []trace.Span `json:"spans"`
}

// handleTrace returns the assembled span tree of one publication. The
// {id...} wildcard keeps the '/' inside pub IDs (name#epoch/seq). The
// '#' may arrive either raw — servers receive the request-target
// verbatim; only browsers strip fragments client-side — or URL-encoded
// as %23 (which the mux decodes). A defensive extra unescape also
// accepts double-encoded IDs from clients that escape an already-
// escaped ID; '#' and '/' never appear percent-encoded in a pub ID
// sent straight, so the extra decode cannot corrupt a well-formed one.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if u, err := url.PathUnescape(id); err == nil {
		id = u
	}
	if id == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("webapp: missing publication ID (use /api/v1/trace/<name>%%23<epoch>/<seq>)"))
		return
	}
	tr := s.broker.Tracer()
	if tr == nil || !tr.Traced(id) {
		writeErr(w, http.StatusNotFound, fmt.Errorf("webapp: no trace for publication %q (evicted, sampled out, or never seen here)", id))
		return
	}
	writeJSON(w, http.StatusOK, traceResponse{PubID: id, Broker: tr.Broker(), Spans: tr.Spans(id)})
}

// handleMetrics renders every registered registry in Prometheus text
// exposition format (0.0.4). The broker tracer's registry leads under
// the "stopss" prefix; WithMetrics sources follow in registration
// order (a source that aliases the tracer registry is skipped so one
// registry never emits twice).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	labels := s.labels
	var traced *metrics.Registry
	if tr := s.broker.Tracer(); tr != nil {
		traced = tr.Registry()
		if labels == nil && tr.Broker() != "" {
			labels = map[string]string{"broker": tr.Broker()}
		}
		if err := traced.WritePrometheus(w, "stopss", labels); err != nil {
			return // client went away mid-scrape; nothing to salvage
		}
	}
	for _, src := range s.sources {
		if src.reg == traced {
			continue
		}
		if err := src.reg.WritePrometheus(w, src.prefix, labels); err != nil {
			return
		}
	}
	// Process health and per-subscription lag (health.go).
	s.writeHealthMetrics(w, labels)
}

// handleSnapshot streams the broker's durable state (clients, routes,
// subscriptions) as JSON lines — the format broker.Restore consumes.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/jsonl")
	if err := s.broker.Snapshot(w); err != nil {
		// Headers are already out; the truncated body will fail to
		// restore, which is the safe failure mode.
		fmt.Fprintf(w, `{"kind":"error","error":%q}`+"\n", err.Error())
	}
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, indexHTML)
}

// indexHTML is the single-page demo UI: registration, subscription and
// publication forms wired to the JSON API, plus a mode toggle — the
// "web-based application for client registration and
// subscription/publication input" of paper §4.
const indexHTML = `<!DOCTYPE html>
<html>
<head><meta charset="utf-8"><title>S-ToPSS Demonstration</title>
<style>
 body { font-family: sans-serif; margin: 2em; max-width: 56em; }
 fieldset { margin-bottom: 1em; }
 input[type=text] { width: 40em; }
 pre { background: #f4f4f4; padding: .6em; }
</style></head>
<body>
<h1>S-ToPSS — Semantic Toronto Publish/Subscribe System</h1>
<p>Job-finder demonstration (VLDB 2003). Mode:
 <select id="mode" onchange="setMode()">
  <option value="semantic">semantic</option>
  <option value="syntactic">syntactic</option>
 </select></p>
<fieldset><legend>Register client</legend>
 <input type="text" id="client" placeholder="company name" value="acme">
 <button onclick="register()">Register</button></fieldset>
<fieldset><legend>Subscribe</legend>
 <input type="text" id="sub" value="(university = Toronto) and (degree = PhD) and (professional experience >= 4)">
 <button onclick="subscribe()">Subscribe</button></fieldset>
<fieldset><legend>Publish resume</legend>
 <input type="text" id="pub" value="(school, Toronto)(degree, PhD)(work experience, true)(graduation year, 1990)">
 <button onclick="publish()">Publish</button></fieldset>
<pre id="out">ready</pre>
<script>
async function api(path, body) {
  const opts = body ? {method:'POST', body: JSON.stringify(body)} : {};
  const res = await fetch(path, opts);
  const text = await res.text();
  document.getElementById('out').textContent = text;
  return text;
}
function register()  { api('/api/v1/register',  {name: document.getElementById('client').value}); }
function subscribe() { api('/api/v1/subscribe', {client: document.getElementById('client').value, subscription: document.getElementById('sub').value}); }
function publish()   { api('/api/v1/publish',   {event: document.getElementById('pub').value}); }
function setMode()   { api('/api/v1/mode',      {mode: document.getElementById('mode').value}); }
</script>
</body></html>
`
