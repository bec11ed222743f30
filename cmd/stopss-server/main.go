// Command stopss-server runs the full demonstration stack of Figure 2:
// the S-ToPSS engine over a domain ontology, the notification engine
// with all four transports, and the web application — optionally as one
// node of a multi-broker overlay.
//
// Usage:
//
//	stopss-server -addr :8080
//	stopss-server -ontology my-domain.odl -matcher cluster -mode syntactic
//	stopss-server -addr :8081 -node b1 -overlay 127.0.0.1:7001
//	stopss-server -addr :8082 -node b2 -overlay 127.0.0.1:7002 -peer 127.0.0.1:7001
//	stopss-server -addr :8080 -log-format json -log-level debug
//	stopss-server -addr :8080 -pprof-addr 127.0.0.1:6060 -trace-out boot.trace
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // registers the profiling surface on DefaultServeMux (-pprof-addr)
	"os"
	"os/signal"
	"path/filepath"
	rtrace "runtime/trace"
	"strings"
	"time"

	"stopss/internal/broker"
	"stopss/internal/core"
	"stopss/internal/journal"
	"stopss/internal/knowledge"
	"stopss/internal/matching"
	"stopss/internal/metrics"
	"stopss/internal/notify"
	"stopss/internal/ontology"
	"stopss/internal/overlay"
	"stopss/internal/semantic"
	"stopss/internal/store"
	"stopss/internal/trace"
	"stopss/internal/webapp"
	"stopss/internal/workload"
)

// logger is the process-wide structured logger. main replaces it with
// one carrying the broker identity on every record; tests run against
// the default.
var logger = slog.Default()

// peerList collects repeatable -peer flags.
type peerList []string

func (p *peerList) String() string     { return strings.Join(*p, ",") }
func (p *peerList) Set(v string) error { *p = append(*p, v); return nil }

// buildLogger constructs the slog handler selected by -log-format and
// -log-level.
func buildLogger(w io.Writer, format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lvl = slog.LevelDebug
	case "info":
		lvl = slog.LevelInfo
	case "warn", "warning":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown log level %q (want debug, info, warn or error)", level)
	}
	ho := &slog.HandlerOptions{Level: lvl}
	switch strings.ToLower(format) {
	case "text":
		return slog.New(slog.NewTextHandler(w, ho)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, ho)), nil
	default:
		return nil, fmt.Errorf("unknown log format %q (want text or json)", format)
	}
}

// fatal logs at error level and exits.
func fatal(msg string, args ...any) {
	logger.Error(msg, args...)
	os.Exit(1)
}

// obsOptions groups the observability surface of run: profiling,
// execution tracing, and per-publication trace sampling (DESIGN §10).
type obsOptions struct {
	PprofAddr     string        // net/http/pprof listen address ("" = off)
	TraceOut      string        // runtime/trace capture file ("" = off)
	TraceSample   int           // keep 1 in N publication traces; <=0 disables
	TraceCapacity int           // retained-trace ring bound (0 = default)
	OpsInterval   time.Duration // ops-gossip refresh period (0 = on link events only)
	OpsStaleAfter time.Duration // cluster-view staleness threshold (0 = 30s)
}

func main() {
	var peers peerList
	addr := flag.String("addr", "127.0.0.1:8080", "HTTP listen address")
	ontPath := flag.String("ontology", "", "ODL ontology file (default: embedded job-finder domain)")
	matcherName := flag.String("matcher", "counting", "matching algorithm: naive, counting, cluster or tree")
	modeName := flag.String("mode", "semantic", "initial mode: semantic or syntactic")
	snapshot := flag.String("snapshot", "", "snapshot file: restored on start if present, written on shutdown")
	nodeName := flag.String("node", "", "overlay node name (default: the -addr value)")
	overlayAddr := flag.String("overlay", "", "overlay TCP listen address for peer brokers (empty: no listener)")
	flag.Var(&peers, "peer", "overlay peer address to connect to (repeatable)")
	kbWatch := flag.String("kb-watch", "", "JSONL knowledge-delta file (ontc -delta output) polled for appended deltas to inject at runtime")
	kbWatchInterval := flag.Duration("kb-watch-interval", time.Second, "poll interval for -kb-watch (must be > 0; sub-second values pick up appends nearly live)")
	journalDir := flag.String("journal-dir", "", "publication-journal directory: enables durable subscriptions with at-least-once catch-up delivery")
	journalSegBytes := flag.Int64("journal-segment-bytes", 8<<20, "journal segment roll threshold in bytes (must be > 0)")
	journalRetention := flag.Int64("journal-retention", 0, "cap on sealed journal bytes; oldest segments are dropped past it even if unacked (0 = unlimited)")
	journalFsync := flag.Bool("journal-fsync", true, "group-committed fsync per publication batch (disable to trade crash durability for latency)")
	journalIndexEvery := flag.Int("journal-index-every", 128, "sparse seq->offset index granularity in records: catch-up scans seek instead of reading whole segments (0 disables indexing)")
	storeDir := flag.String("store-dir", "", "paged subscription-store directory: durable subscriptions of disconnected clients are paged out to disk instead of staying resident (journal cursors become snapshot+store authority)")
	storePages := flag.Int("store-pages", 1024, "subscription-store buffer-pool size in pages (8 KiB each): the resident memory budget for paged-out subscriptions")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty: disabled)")
	traceOut := flag.String("trace-out", "", "write a runtime/trace capture to this file until shutdown (inspect with `go tool trace`)")
	traceSample := flag.Int("trace-sample", 1, "keep the span tree of 1 in N publications (1 = all, 0 = off; dead-lettered deliveries are always kept)")
	traceCapacity := flag.Int("trace-capacity", 0, "bound on retained publication traces (0 = default)")
	opsInterval := flag.Duration("ops-interval", 10*time.Second, "broker health-summary gossip refresh period for GET /api/v1/cluster (0: refresh only on link establishment)")
	opsStaleAfter := flag.Duration("ops-stale-after", 0, "age past which a peer's gossiped health summary is flagged stale in GET /api/v1/cluster (0 = 30s)")
	flag.Parse()
	lg, err := buildLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		fatal("stopss-server: invalid logging flags", "err", err)
	}
	// Every record names this broker, so interleaved multi-broker logs
	// (or aggregated JSON streams) stay attributable.
	nodeID := *nodeName
	if nodeID == "" {
		nodeID = *addr
	}
	logger = lg.With("broker", nodeID)
	slog.SetDefault(logger)
	if *kbWatchInterval <= 0 {
		fatal("stopss-server: -kb-watch-interval must be positive", "interval", *kbWatchInterval)
	}
	if *journalSegBytes <= 0 {
		fatal("stopss-server: -journal-segment-bytes must be positive", "bytes", *journalSegBytes)
	}
	opts := stackOptions{
		Addr:     *addr,
		Ontology: *ontPath,
		Matcher:  *matcherName,
		Mode:     *modeName,
	}
	// The flag's "0 = off" maps to the journal's negative sentinel (its
	// own zero value means "default granularity").
	indexEvery := *journalIndexEvery
	if indexEvery <= 0 {
		indexEvery = -1
	}
	jcfg := journal.Config{
		Dir:            *journalDir,
		SegmentBytes:   *journalSegBytes,
		RetentionBytes: *journalRetention,
		Fsync:          *journalFsync,
		IndexEvery:     indexEvery,
		// With a subscription store the store + snapshot are the cursor
		// authorities; the journal stops rewriting cursors.json wholesale.
		EphemeralCursors: *storeDir != "",
	}
	obs := obsOptions{
		PprofAddr:     *pprofAddr,
		TraceOut:      *traceOut,
		TraceSample:   *traceSample,
		TraceCapacity: *traceCapacity,
		OpsInterval:   *opsInterval,
		OpsStaleAfter: *opsStaleAfter,
	}
	scfg := store.Config{Pages: *storePages}
	if *storeDir != "" {
		scfg.Path = filepath.Join(*storeDir, "subs.heap")
	}
	if err := run(opts, *snapshot, *nodeName, *overlayAddr, peers, *kbWatch, *kbWatchInterval, jcfg, scfg, obs); err != nil {
		fatal("stopss-server: fatal", "err", err)
	}
}

// stackOptions configures buildStack.
type stackOptions struct {
	Addr     string
	Ontology string
	Matcher  string
	Mode     string
}

// buildStack assembles engine, notifier and broker — everything the
// HTTP server sits on. Factored out of run so the stack is testable
// without signals or listeners.
func buildStack(opts stackOptions) (*broker.Broker, *notify.Engine, error) {
	src := workload.JobsODL
	name := "builtin:jobs"
	if opts.Ontology != "" {
		data, err := os.ReadFile(opts.Ontology)
		if err != nil {
			return nil, nil, err
		}
		src, name = string(data), opts.Ontology
	}
	ont, err := ontology.Load(src, ontology.Options{})
	if err != nil {
		return nil, nil, fmt.Errorf("loading ontology %s: %w", name, err)
	}
	logger.Info("ontology loaded", "source", name, "summary", ont.Summary())

	mode, err := core.ParseMode(opts.Mode)
	if err != nil {
		return nil, nil, err
	}
	m, err := matching.New(opts.Matcher)
	if err != nil {
		return nil, nil, err
	}
	// The compiled ontology is the genesis of a runtime knowledge base;
	// the engine's semantic stage is built over the base's structures so
	// delta updates (admin endpoint, -kb-watch, overlay replication)
	// swap in coherently.
	base := knowledge.NewBase(ont.Synonyms, ont.Hierarchy, ont.Mappings)
	engine := core.NewEngine(base.Stage(semantic.FullConfig()), core.WithMatcher(m), core.WithMode(mode),
		core.WithKnowledge(base))

	notifier, err := notify.NewEngine(notify.Config{Workers: 8},
		notify.NewTCPTransport(0),
		notify.NewUDPTransport(),
		notify.NewSMTPTransport("stopss@"+opts.Addr),
		notify.NewSMSGateway(100, 64),
	)
	if err != nil {
		return nil, nil, err
	}
	return broker.New(engine, notifier), notifier, nil
}

// metricsOptions lists the registries GET /metrics exposes: the
// broker-wide one (stage histograms, trace and overlay counters) under
// "stopss", and the notifier's (enqueued, rejected on a full queue,
// per-transport deliveries and latency) under "stopss_notify".
func metricsOptions(reg *metrics.Registry, notifier *notify.Engine) []webapp.Option {
	return []webapp.Option{
		webapp.WithMetrics("stopss", reg),
		webapp.WithMetrics("stopss_notify", notifier.Metrics()),
	}
}

func run(opts stackOptions, snapshot, nodeName, overlayAddr string, peers []string, kbWatch string, kbWatchInterval time.Duration, jcfg journal.Config, scfg store.Config, obs obsOptions) error {
	// Execution tracing and the profiling surface come up first so they
	// cover the boot path (journal replay, snapshot restore, overlay
	// joins) — often exactly what needs profiling.
	if obs.TraceOut != "" {
		f, err := os.Create(obs.TraceOut)
		if err != nil {
			return err
		}
		if err := rtrace.Start(f); err != nil {
			f.Close()
			return fmt.Errorf("starting runtime trace: %w", err)
		}
		defer func() {
			rtrace.Stop()
			if err := f.Close(); err != nil {
				logger.Error("closing runtime trace capture", "path", obs.TraceOut, "err", err)
			} else {
				logger.Info("runtime trace written", "path", obs.TraceOut)
			}
		}()
		logger.Info("runtime trace capturing", "path", obs.TraceOut)
	}
	if obs.PprofAddr != "" {
		go func() {
			logger.Info("pprof listening", "addr", obs.PprofAddr)
			// DefaultServeMux carries only the pprof handlers here: the
			// application API below uses its own mux.
			if err := http.ListenAndServe(obs.PprofAddr, nil); err != nil {
				logger.Error("pprof server failed", "addr", obs.PprofAddr, "err", err)
			}
		}()
	}

	reg := metrics.NewRegistry()
	b, notifier, err := buildStack(opts)
	if err != nil {
		return err
	}
	defer notifier.Close()
	kbOriginName := nodeName
	if kbOriginName == "" {
		kbOriginName = opts.Addr
	}
	b.SetKnowledgeOrigin(knowledge.NewOrigin(kbOriginName))
	// The flag's "0 = off" maps to the tracer's negative sentinel (its
	// own zero value means "trace everything").
	sample := obs.TraceSample
	if sample <= 0 {
		sample = -1
	}
	// The journal attaches BEFORE the snapshot restore so restored
	// durable cursors merge with the journal's own persisted ones.
	if jcfg.Dir != "" {
		jnl, err := journal.Open(jcfg)
		if err != nil {
			return err
		}
		defer jnl.Close()
		b.AttachJournal(jnl)
		st := jnl.Stats()
		logger.Info("journal opened", "dir", jcfg.Dir, "segments", st.Segments,
			"next_seq", st.NextSeq, "fsync", jcfg.Fsync,
			"segment_bytes", jcfg.SegmentBytes, "retention_bytes", jcfg.RetentionBytes,
			"index_entries", st.IndexEntries, "ephemeral_cursors", jcfg.EphemeralCursors)
	}
	// The subscription store attaches after the journal (it extends the
	// journal's compaction floor) and before the snapshot restore (the
	// restore's cursor merge consults stored records).
	if scfg.Path != "" {
		if err := os.MkdirAll(filepath.Dir(scfg.Path), 0o755); err != nil {
			return err
		}
		pst, err := store.Open(scfg)
		if err != nil {
			return err
		}
		defer pst.Close()
		if err := b.AttachStore(pst); err != nil {
			return err
		}
		ss := pst.Stats()
		logger.Info("subscription store opened", "path", scfg.Path,
			"records", ss.Records, "pages", ss.Pages, "pool_pages", ss.PoolCapacity,
			"torn_pages", ss.TornPages)
	}
	if snapshot != "" {
		if f, err := os.Open(snapshot); err == nil {
			restoreErr := b.Restore(f)
			f.Close()
			if restoreErr != nil {
				return fmt.Errorf("restoring %s: %w", snapshot, restoreErr)
			}
			st := b.Stats()
			logger.Info("snapshot restored", "path", snapshot, "clients", st.Clients,
				"subscriptions", st.Subscriptions, "durable", st.Durable)
		} else if !os.IsNotExist(err) {
			return err
		}
	}
	// Catch-up replay: re-dispatch everything the previous incarnation
	// journaled but never saw acknowledged.
	if jcfg.Dir != "" {
		if n, err := b.CatchUp(); err != nil {
			logger.Error("journal catch-up failed", "err", err)
		} else if n > 0 {
			logger.Info("journal catch-up", "redispatched", n)
		}
	}

	// The overlay node starts after a snapshot restore so freshly
	// connected peers see the restored subscription set.
	var node *overlay.Node
	if overlayAddr != "" || len(peers) > 0 {
		if nodeName == "" {
			nodeName = opts.Addr
		}
		node, err = overlay.NewNode(overlay.Config{
			Name:          nodeName,
			Listen:        overlayAddr,
			Peers:         peers,
			Transport:     overlay.TCP(), // production: real sockets
			Registry:      reg,
			TraceSample:   sample,
			TraceCapacity: obs.TraceCapacity,
			OpsInterval:   obs.OpsInterval,
			OpsStaleAfter: obs.OpsStaleAfter,
			Logf: func(format string, args ...any) {
				logger.Info(fmt.Sprintf(format, args...), "subsystem", "overlay")
			},
		}, b)
		if err != nil {
			return err
		}
		if err := node.Start(); err != nil {
			return err
		}
		defer node.Close()
		logger.Info("overlay node started", "node", nodeName, "listen", node.Addr(), "peers", peers)
	} else {
		// Standalone brokers trace too: same stage histograms and span
		// trees, minus forward/recv hops.
		b.SetTracer(trace.New(trace.Config{
			Broker: kbOriginName, Sample: sample,
			Capacity: obs.TraceCapacity, Registry: reg,
		}))
	}

	webOpts := metricsOptions(reg, notifier)
	if node != nil {
		webOpts = append(webOpts, webapp.WithCluster(node.ClusterView))
	}
	srv := &http.Server{
		Addr:              opts.Addr,
		Handler:           webapp.NewServer(b, webOpts...),
		ReadHeaderTimeout: 5 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if kbWatch != "" {
		go watchKBFile(ctx, kbWatch, kbWatchInterval, b)
		logger.Info("watching knowledge-delta file", "path", kbWatch, "interval", kbWatchInterval)
	}
	errCh := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", opts.Addr, "matcher", b.Engine().MatcherName(),
			"mode", b.Engine().Mode().String())
		errCh <- srv.ListenAndServe()
	}()

	select {
	case <-ctx.Done():
		logger.Info("shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			return err
		}
		notifier.Drain(5 * time.Second)
		if snapshot != "" {
			f, err := os.Create(snapshot)
			if err != nil {
				return err
			}
			if err := b.Snapshot(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			logger.Info("snapshot written", "path", snapshot)
		}
		return nil
	case err := <-errCh:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	}
}

// watchKBFile polls a JSONL knowledge-delta file (ontc -delta output)
// every interval and injects every newly appended complete line into
// the broker; applied deltas replicate to the federation through the
// overlay. Unstamped lines get the deterministic content+line stamp
// (knowledge.FileStamp), so a restart, a regenerated file, or the same
// file fed to several brokers replays to identical delta IDs and
// duplicate suppression absorbs it.
//
// A rewrite is detected by hashing the consumed prefix, not just by a
// size drop: a regenerated log of equal or larger size must replay
// from line 1, or its earlier lines would be skipped entirely and the
// tail would be stamped with continuation line numbers no fresh reader
// ever mints. Delta logs are small, so re-reading the file whole each
// poll is the cheap price of that check.
func watchKBFile(ctx context.Context, path string, interval time.Duration, b *broker.Broker) {
	w := newKBWatcher(path, b)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		w.poll()
	}
}

// kbWatcher carries one watched file's consumption state between polls.
type kbWatcher struct {
	path   string
	b      *broker.Broker
	offset int64  // bytes consumed so far
	lineNo uint64 // complete lines consumed so far
	prefix uint64 // FNV-64a of the consumed bytes
}

func newKBWatcher(path string, b *broker.Broker) *kbWatcher {
	return &kbWatcher{path: path, b: b, prefix: kbFileSum(nil)}
}

func kbFileSum(p []byte) uint64 {
	h := fnv.New64a()
	h.Write(p)
	return h.Sum64()
}

// poll reads the watched file once and injects its newly appended
// complete lines.
func (w *kbWatcher) poll() {
	data, err := os.ReadFile(w.path)
	if err != nil {
		if !os.IsNotExist(err) {
			logger.Warn("kb-watch: reading delta file", "path", w.path, "err", err)
		}
		return
	}
	if int64(len(data)) < w.offset || kbFileSum(data[:w.offset]) != w.prefix {
		// Shrunk, or the consumed prefix changed: the file was
		// regenerated, not appended to. Replay from the start —
		// unchanged lines re-stamp to their old IDs and dedup.
		logger.Info("kb-watch: file rewritten; replaying from line 1", "path", w.path)
		w.offset, w.lineNo, w.prefix = 0, 0, kbFileSum(nil)
	}
	// Only complete (newline-terminated) lines are consumed; a
	// half-written tail stays pending for the next poll.
	tail := data[w.offset:]
	complete := bytes.LastIndexByte(tail, '\n') + 1
	if complete == 0 {
		return
	}
	// tail[:complete] ends with '\n', so Split yields a trailing
	// empty element; dropping it keeps line numbers — and therefore
	// FileStamp identities — identical whether the file is read in
	// one restart-replay batch or across many incremental polls.
	parts := bytes.Split(tail[:complete], []byte{'\n'})
	for _, line := range parts[:len(parts)-1] {
		w.lineNo++
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		d, err := knowledge.Decode(line)
		if err != nil {
			logger.Warn("kb-watch: malformed delta line", "line", w.lineNo, "err", err)
			continue
		}
		if d, err = knowledge.FileStamp(w.lineNo, d); err != nil {
			logger.Warn("kb-watch: stamping delta", "line", w.lineNo, "err", err)
			continue
		}
		rep, err := w.b.InjectKnowledge(d)
		if err != nil {
			logger.Warn("kb-watch: applying delta", "delta", d.String(), "err", err)
			continue
		}
		if rep.Applied {
			logger.Info("kb-watch: delta applied", "op", string(d.Op), "id", rep.ID,
				"reindexed", rep.Reindexed, "kb_digest", rep.Version.Digest)
		}
	}
	w.offset += int64(complete)
	w.prefix = kbFileSum(data[:w.offset])
}
