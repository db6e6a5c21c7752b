// Package server implements windowd, the HTTP/JSON daemon serving framed
// holistic window queries over registered CSV datasets.
//
// Its core is a structure cache: the merge sort trees and preprocessed
// arrays the window operator builds are keyed by (dataset version,
// partitioning, ordering, tree options) and kept in a byte-budgeted LRU
// (internal/treecache), so a query repeated — or any query agreeing on
// partitioning and ordering — skips the build phase entirely. This is the
// paper's "one tree answers arbitrarily many framed queries" property
// lifted to the request level.
//
// The HTTP surface is versioned under /v1 (see internal/server/api for the
// wire contract): /v1/query, /v1/explain, /v1/datasets, /v1/healthz and the
// Prometheus exposition at /v1/metrics. Every non-2xx response — including
// the mux's own 404 and 405 — carries the api.ErrorResponse envelope.
//
// Production plumbing: per-request timeouts plumbed into the operator's
// cooperative cancellation, a semaphore admission limiter, per-query trace
// spans feeding the metrics registry and a threshold-gated slow-query log,
// /healthz and /statusz, structured request logging, and graceful shutdown
// through http.Server.Shutdown draining in-flight queries.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"holistic/internal/arena"
	"holistic/internal/core"
	"holistic/internal/csvio"
	"holistic/internal/delta"
	"holistic/internal/ingest"
	"holistic/internal/obs"
	"holistic/internal/plan"
	"holistic/internal/segment"
	"holistic/internal/server/api"
	"holistic/internal/sqlparse"
	"holistic/internal/treecache"
)

// Config tunes the server.
type Config struct {
	// CacheBytes is the tree cache budget; <= 0 means unlimited.
	CacheBytes int64
	// MaxConcurrent caps queries evaluating at once; excess requests wait
	// for a slot until their deadline. <= 0 means 4.
	MaxConcurrent int
	// DefaultTimeout applies to queries that set no timeout (default 30s).
	DefaultTimeout time.Duration
	// MaxTimeout clamps the per-request timeout (default 5m).
	MaxTimeout time.Duration
	// TaskSize overrides the operator's parallel task granularity
	// (tests use small values to exercise cancellation between chunks).
	TaskSize int
	// SlowQuery is the slow-query log threshold: queries whose evaluation
	// takes at least this long are logged at WARN with their rendered span
	// tree (including cache_key attributes, so a cold-cache build is
	// distinguishable from a slow probe). <= 0 disables the log.
	SlowQuery time.Duration
	// MaxUploadBytes caps every request body: dataset registration (CSV
	// uploads and JSON register requests), mutation batches, queries and
	// explains. Oversized bodies answer 413 with the payload_too_large
	// code. <= 0 means 256 MiB.
	MaxUploadBytes int64
	// CompactRows is the per-dataset mutation-overlay size at which the
	// background compactor folds the overlay into a new frozen generation;
	// <= 0 picks max(1024, rows/8) adaptively (delta.Options.CompactRows).
	CompactRows int
	// CompactInterval is how often the background compactor checks each
	// dataset's overlay against the threshold. <= 0 disables background
	// compaction (overlays then only fold on reload).
	CompactInterval time.Duration
	// Logger receives structured request logs; nil means slog.Default().
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 4
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.MaxUploadBytes <= 0 {
		c.MaxUploadBytes = 256 << 20
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c
}

// dataset is one registered table plus its cache identity and mutation
// state. file.Table stays the registered base; queries read buf's current
// snapshot (identical until the first mutation).
type dataset struct {
	file  *csvio.File
	info  DatasetInfo
	scope string // cache key prefix: "name@v<version>"; queries append "|g<gen>"
	// buf is the live-mutation buffer over the registered table. Always
	// non-nil; datasets registered without a key column are append-only.
	buf *delta.Buffer
	// stopCompact terminates the dataset's background compactor; nil when
	// background compaction is disabled.
	stopCompact func()
}

// DatasetInfo mirrors api.DatasetInfo; the JSON shapes are kept in sync by
// the shared-client tests.
type DatasetInfo struct {
	Name    string   `json:"name"`
	Version int64    `json:"version"`
	Rows    int      `json:"rows"`
	Columns []string `json:"columns"`
	// Segments is the segment-file count for datasets materialized from a
	// segment directory; 0 for plain CSV registrations.
	Segments int `json:"segments,omitempty"`
	// Epoch counts applied mutation batches since registration.
	Epoch int64 `json:"epoch,omitempty"`
	// KeyColumn is the mutation key column, when one was configured.
	KeyColumn string `json:"key_column,omitempty"`
}

// Server is the windowd request handler.
type Server struct {
	cfg     Config
	log     *slog.Logger
	cache   *treecache.Cache
	limiter chan struct{}
	metrics *metrics   // plain-text /statusz counters
	obs     *serverObs // Prometheus /v1/metrics registry

	mu       sync.RWMutex
	datasets map[string]*dataset
	jobs     map[string]*ingestJob

	mux *http.ServeMux
}

// ingestJob is one asynchronous source→dataset ingest started by
// POST /v1/datasets/{name} with source=ingest. Progress is polled live off
// the Ingester; the outcome fields are set exactly once before done closes.
type ingestJob struct {
	ing  *ingest.Ingester
	done chan struct{}

	mu   sync.Mutex
	err  error
	info *DatasetInfo
}

// New builds a server from cfg.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		log:      cfg.Logger,
		cache:    treecache.New(cfg.CacheBytes),
		limiter:  make(chan struct{}, cfg.MaxConcurrent),
		metrics:  newMetrics(),
		datasets: make(map[string]*dataset),
		jobs:     make(map[string]*ingestJob),
	}
	s.obs = newServerObs(s)
	mux := http.NewServeMux()
	// Canonical v1 surface.
	mux.HandleFunc("GET "+api.PathHealthz, s.handleHealthz)
	mux.HandleFunc("GET "+api.PathMetrics, s.handleMetrics)
	mux.HandleFunc("GET "+api.PathDatasets, s.handleListDatasets)
	mux.HandleFunc("POST "+api.PathDatasets+"/{name}", s.handleRegister)
	mux.HandleFunc("GET "+api.PathDatasets+"/{name}/ingest", s.handleIngestStatus)
	mux.HandleFunc("POST "+api.PathDatasets+"/{name}/mutations", s.handleMutations)
	mux.HandleFunc("POST "+api.PathQuery, s.handleQuery)
	mux.HandleFunc("POST "+api.PathExplain, s.handleExplain)
	// Human-facing debug page; not part of the versioned API.
	mux.HandleFunc("GET /statusz", s.handleStatusz)
	s.mux = mux
	return s
}

// Handler returns the HTTP handler with request logging and metrics wired
// around every route, and the error envelope wired under unmatched requests
// (the mux's plain-text 404/405 never reach a client).
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.metrics.begin()
		s.obs.inflight.Add(1)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		if _, pattern := s.mux.Handler(r); pattern == "" {
			s.serveUnmatched(sw, r)
		} else {
			s.mux.ServeHTTP(sw, r)
		}
		d := time.Since(start)
		route := r.Method + " " + routeOf(r.URL.Path)
		s.metrics.end(route, sw.status, d)
		s.obs.inflight.Add(-1)
		s.obs.observeRequest(route, sw.status, d, sw.bytes)
		s.log.Info("request",
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.status,
			"duration_ms", float64(d)/float64(time.Millisecond),
		)
	})
}

// serveUnmatched answers a request no pattern matched with the JSON error
// envelope. The mux is probed against a throwaway writer to learn whether
// this is a 404 or a 405 (and to salvage the Allow header it computes).
func (s *Server) serveUnmatched(w http.ResponseWriter, r *http.Request) {
	h, _ := s.mux.Handler(r)
	probe := &probeWriter{header: make(http.Header)}
	h.ServeHTTP(probe, r)
	if allow := probe.header.Get("Allow"); allow != "" {
		w.Header().Set("Allow", allow)
	}
	if probe.status == http.StatusMethodNotAllowed {
		writeError(w, httpErrorf(http.StatusMethodNotAllowed, api.CodeMethodNotAllowed,
			"method %s not allowed for %s", r.Method, r.URL.Path))
		return
	}
	writeError(w, httpErrorf(http.StatusNotFound, api.CodeNotFound,
		"no route for %s %s", r.Method, r.URL.Path))
}

// probeWriter captures the status and headers of the mux's built-in
// not-found/not-allowed handlers without sending anything to the client.
type probeWriter struct {
	header http.Header
	status int
}

func (p *probeWriter) Header() http.Header         { return p.header }
func (p *probeWriter) Write(b []byte) (int, error) { return len(b), nil }
func (p *probeWriter) WriteHeader(code int) {
	if p.status == 0 {
		p.status = code
	}
}

// routeOf collapses parameterized paths so metrics aggregate per route, not
// per dataset name. Route label cardinality is bounded by the route table,
// not by request paths: unmatched paths all collapse to "(unmatched)".
func routeOf(path string) string {
	switch path {
	case "/statusz", api.PathHealthz, api.PathDatasets, api.PathQuery, api.PathExplain, api.PathMetrics:
		return path
	}
	if strings.HasPrefix(path, api.PathDatasets+"/") {
		suffix := ""
		if strings.HasSuffix(path, "/ingest") {
			suffix = "/ingest"
		} else if strings.HasSuffix(path, "/mutations") {
			suffix = "/mutations"
		}
		return api.PathDatasets + "/{name}" + suffix
	}
	return "(unmatched)"
}

// statusWriter records the response status and body size for logging and
// metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

// CacheStats exposes the tree cache counters (used by /statusz and tests).
func (s *Server) CacheStats() treecache.Stats { return s.cache.Stats() }

// RegisterCSV parses csvData and registers (or reloads) it under name.
// A reload bumps the dataset version and invalidates every cache entry
// built against the previous version.
func (s *Server) RegisterCSV(name string, r io.Reader) (DatasetInfo, error) {
	return s.RegisterCSVKeyed(name, r, "")
}

// RegisterCSVKeyed registers a CSV dataset with a mutation key column:
// a unique, non-NULL INT64 or STRING column that upserts and deletes
// address rows by. An empty keyColumn makes the dataset append-only.
func (s *Server) RegisterCSVKeyed(name string, r io.Reader, keyColumn string) (DatasetInfo, error) {
	file, err := csvio.Read(r)
	if err != nil {
		return DatasetInfo{}, fmt.Errorf("parse csv: %w", err)
	}
	return s.install(name, file, 0, keyColumn)
}

// RegisterPath loads a CSV file from the server's filesystem.
func (s *Server) RegisterPath(name, path string) (DatasetInfo, error) {
	return s.RegisterPathKeyed(name, path, "")
}

// RegisterPathKeyed loads a CSV file with a mutation key column.
func (s *Server) RegisterPathKeyed(name, path, keyColumn string) (DatasetInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return DatasetInfo{}, err
	}
	defer f.Close()
	return s.RegisterCSVKeyed(name, f, keyColumn)
}

// RegisterDir materializes a segment dataset directory (written by the
// ingest pipeline or windowcli -ingest) and registers it under name. Column
// loads go through the tree cache under content-addressed per-segment keys,
// so re-registering a partially changed directory only rebuilds the columns
// of segments whose content actually changed.
func (s *Server) RegisterDir(name, dir string) (DatasetInfo, error) {
	d, err := segment.OpenDir(dir)
	if err != nil {
		return DatasetInfo{}, err
	}
	defer d.Close()
	file, err := d.File(s.cache)
	if err != nil {
		return DatasetInfo{}, err
	}
	return s.install(name, file, len(d.Segments()), "")
}

func (s *Server) install(name string, file *csvio.File, segments int, keyColumn string) (DatasetInfo, error) {
	buf, err := delta.NewBuffer(file.Table, keyColumn, delta.Options{CompactRows: s.cfg.CompactRows})
	if err != nil {
		return DatasetInfo{}, err
	}
	cols := make([]string, 0, len(file.Table.Columns()))
	for _, c := range file.Table.Columns() {
		cols = append(cols, c.Name())
	}
	s.mu.Lock()
	version := int64(1)
	oldScope := ""
	var stopPrev func()
	if prev, ok := s.datasets[name]; ok {
		version = prev.info.Version + 1
		oldScope = prev.scope
		stopPrev = prev.stopCompact
	}
	ds := &dataset{
		file:  file,
		buf:   buf,
		scope: fmt.Sprintf("%s@v%d", name, version),
		info: DatasetInfo{
			Name:      name,
			Version:   version,
			Rows:      file.Table.Rows(),
			Columns:   cols,
			Segments:  segments,
			KeyColumn: keyColumn,
		},
	}
	if s.cfg.CompactInterval > 0 {
		scope := ds.scope
		ds.stopCompact = buf.StartCompactor(s.cfg.CompactInterval, func(oldGen, newGen int64) {
			// The folded generation's cache entries are unreachable (queries
			// key on the new gen); release their bytes eagerly.
			removed := s.cache.InvalidatePrefix(fmt.Sprintf("%s|g%d|", scope, oldGen))
			s.log.Info("delta compacted", "dataset", name, "gen", newGen, "invalidated", removed)
		})
	}
	s.datasets[name] = ds
	s.mu.Unlock()
	if stopPrev != nil {
		stopPrev()
	}
	if oldScope != "" {
		// Entries under the old scope are unreachable (new queries key on
		// the new version); drop them eagerly to release their bytes.
		removed := s.cache.InvalidatePrefix(oldScope + "|")
		s.log.Info("dataset reloaded", "dataset", name, "version", version, "invalidated", removed)
	} else {
		s.log.Info("dataset registered", "dataset", name, "rows", ds.info.Rows)
	}
	return ds.info, nil
}

// Close stops the background compactors. The HTTP side is shut down by the
// owner's http.Server; Close only releases server-owned goroutines.
func (s *Server) Close() {
	s.mu.Lock()
	stops := make([]func(), 0, len(s.datasets))
	for _, ds := range s.datasets {
		if ds.stopCompact != nil {
			stops = append(stops, ds.stopCompact)
			ds.stopCompact = nil
		}
	}
	s.mu.Unlock()
	for _, stop := range stops {
		stop()
	}
}

func (s *Server) lookup(name string) (*dataset, bool) {
	s.mu.RLock()
	ds, ok := s.datasets[name]
	s.mu.RUnlock()
	return ds, ok
}

// httpError is an error with a dedicated HTTP status and envelope code.
type httpError struct {
	status int
	code   api.ErrorCode
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func httpErrorf(status int, code api.ErrorCode, format string, args ...any) *httpError {
	return &httpError{status: status, code: code, msg: fmt.Sprintf(format, args...)}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encoding errors past WriteHeader cannot be reported to the client;
	// the types marshalled here contain no unencodable values.
	_ = json.NewEncoder(w).Encode(v)
}

// writeError renders err as the api.ErrorResponse envelope. Errors that
// carry no explicit classification map to internal (500), except context
// errors, which surface as 504 with the matching code.
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	code := api.CodeInternal
	var he *httpError
	switch {
	case errors.As(err, &he):
		status, code = he.status, he.code
	case errors.Is(err, context.DeadlineExceeded):
		status, code = http.StatusGatewayTimeout, api.CodeDeadlineExceeded
	case errors.Is(err, context.Canceled):
		// The client went away; the status is for the log line only.
		status, code = http.StatusGatewayTimeout, api.CodeCanceled
	}
	writeJSON(w, status, api.ErrorResponse{Error: api.ErrorDetail{
		Code:    code,
		Message: err.Error(),
	}})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleMetrics serves the Prometheus text exposition (format 0.0.4).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.obs.reg.WriteText(w)
}

func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	b.WriteString("windowd status\n\n")
	s.metrics.render(&b)
	st := s.cache.Stats()
	fmt.Fprintf(&b, "cache: entries=%d bytes=%d budget=%d hits=%d misses=%d joins=%d failures=%d evictions=%d invalidations=%d build_time=%s\n",
		st.Entries, st.Bytes, st.Budget, st.Hits, st.Misses, st.Joins, st.Failures, st.Evictions, st.Invalidations, st.BuildTime.Round(time.Microsecond))
	fmt.Fprintf(&b, "arena: %s\n", arena.ArenaSnapshot())
	for _, ps := range arena.Snapshot() {
		fmt.Fprintf(&b, "%s\n", ps)
	}
	bs := core.BatchSnapshot()
	fmt.Fprintf(&b, "mst-batch: queries=%d dedup_hits=%d\n", bs.Queries, bs.DedupHits)
	is := ingest.Snapshot()
	fmt.Fprintf(&b, "ingest: started=%d completed=%d failed=%d rows=%d segments=%d resumed=%d\n",
		is.Started, is.Completed, is.Failed, is.RowsIngested, is.SegmentsWritten, is.IntervalsResumed)
	dst := delta.Counters()
	fmt.Fprintf(&b, "delta: batches=%d appends=%d upserts=%d deletes=%d conflicts=%d compactions=%d materializations=%d\n",
		dst.Batches, dst.Appends, dst.Upserts, dst.Deletes, dst.Conflicts, dst.Compactions, dst.Materializations)
	s.mu.RLock()
	names := make([]*dataset, 0, len(s.datasets))
	for _, ds := range s.datasets {
		names = append(names, ds)
	}
	s.mu.RUnlock()
	for _, ds := range names {
		snap := ds.buf.Snapshot()
		fmt.Fprintf(&b, "dataset %s: version=%d rows=%d columns=%d segments=%d epoch=%d gen=%d delta_rows=%d\n",
			ds.info.Name, ds.info.Version, snap.Rows(), len(ds.info.Columns), ds.info.Segments,
			snap.Epoch(), snap.Gen(), snap.DeltaRows())
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, b.String())
}

func (s *Server) handleListDatasets(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	infos := make([]DatasetInfo, 0, len(s.datasets))
	for _, ds := range s.datasets {
		info := ds.info
		// Rows and Epoch are live: they track applied mutations, not the
		// registration-time base.
		snap := ds.buf.Snapshot()
		info.Rows = snap.Rows()
		info.Epoch = snap.Epoch()
		infos = append(infos, info)
	}
	s.mu.RUnlock()
	writeJSON(w, http.StatusOK, map[string]any{"datasets": infos})
}

// registerError classifies a registration failure like bodyError.
func registerError(name string, err error) error {
	return bodyError(fmt.Sprintf("register %q", name), err)
}

// bodyError classifies a failure of operation op on a request body capped
// by MaxBytesReader: tripping the cap is 413 payload_too_large, anything
// else 400.
func bodyError(op string, err error) error {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return httpErrorf(http.StatusRequestEntityTooLarge, api.CodePayloadTooLarge,
			"%s: request body exceeds the %d-byte upload limit", op, mbe.Limit)
	}
	return httpErrorf(http.StatusBadRequest, api.CodeInvalidArgument, "%s: %v", op, err)
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if name == "" {
		writeError(w, httpErrorf(http.StatusBadRequest, api.CodeInvalidArgument, "missing dataset name"))
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes)
	if !strings.HasPrefix(r.Header.Get("Content-Type"), "application/json") {
		// The ?key= query parameter names the mutation key column for
		// direct CSV uploads (JSON registrations use key_column).
		info, err := s.RegisterCSVKeyed(name, body, r.URL.Query().Get("key"))
		if err != nil {
			writeError(w, registerError(name, err))
			return
		}
		writeJSON(w, http.StatusOK, info)
		return
	}
	var req api.RegisterRequest
	if derr := json.NewDecoder(body).Decode(&req); derr != nil {
		writeError(w, registerError(name, derr))
		return
	}
	var info DatasetInfo
	var err error
	switch req.Source {
	case "", api.SourceCSV:
		if req.Path == "" {
			writeError(w, httpErrorf(http.StatusBadRequest, api.CodeInvalidArgument, "register request needs a path (or upload CSV directly)"))
			return
		}
		info, err = s.RegisterPathKeyed(name, req.Path, req.KeyColumn)
	case api.SourceDir:
		if req.Dir == "" {
			writeError(w, httpErrorf(http.StatusBadRequest, api.CodeInvalidArgument, "source=dir needs dir (a segment dataset directory)"))
			return
		}
		info, err = s.RegisterDir(name, req.Dir)
	case api.SourceIngest:
		s.startIngest(w, r, name, req)
		return
	default:
		writeError(w, httpErrorf(http.StatusBadRequest, api.CodeInvalidArgument,
			"unknown source %q (want %q, %q or %q)", req.Source, api.SourceCSV, api.SourceDir, api.SourceIngest))
		return
	}
	if err != nil {
		writeError(w, registerError(name, err))
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// startIngest launches an asynchronous CSV→segment-directory ingest and
// answers 202 with the initial status. The work continues after this
// request returns (the goroutine detaches from the request's cancellation
// but keeps its values), and the finished dataset registers itself under
// name. Progress is served by GET /v1/datasets/{name}/ingest.
func (s *Server) startIngest(w http.ResponseWriter, r *http.Request, name string, req api.RegisterRequest) {
	if req.Path == "" || req.Dir == "" {
		writeError(w, httpErrorf(http.StatusBadRequest, api.CodeInvalidArgument,
			"source=ingest needs path (CSV source) and dir (dataset directory)"))
		return
	}
	job := &ingestJob{
		ing: ingest.New(req.Path, req.Dir, ingest.Options{
			RowsPerSegment: req.RowsPerSegment,
			BlockRows:      req.BlockRows,
		}),
		done: make(chan struct{}),
	}
	s.mu.Lock()
	if prev, ok := s.jobs[name]; ok {
		select {
		case <-prev.done:
			// Finished (or failed): a new ingest may replace it.
		default:
			s.mu.Unlock()
			writeError(w, httpErrorf(http.StatusConflict, api.CodeConflict,
				"an ingest for dataset %q is already running", name))
			return
		}
	}
	s.jobs[name] = job
	s.mu.Unlock()
	s.log.Info("ingest started", "dataset", name, "source", req.Path, "dir", req.Dir)
	go s.runIngest(context.WithoutCancel(r.Context()), name, req.Dir, job)
	writeJSON(w, http.StatusAccepted, jobStatus(job))
}

func (s *Server) runIngest(ctx context.Context, name, dir string, job *ingestJob) {
	res, err := job.ing.Run(ctx)
	var info DatasetInfo
	if err == nil {
		info, err = s.RegisterDir(name, dir)
	}
	job.mu.Lock()
	job.err = err
	if err == nil {
		job.info = &info
	}
	job.mu.Unlock()
	close(job.done)
	if err != nil {
		s.log.Error("ingest failed", "dataset", name, "err", err)
		return
	}
	s.log.Info("ingest complete", "dataset", name,
		"rows", res.Rows, "segments", res.Segments, "resumed", res.Resumed)
}

// ingestStatusResponse mirrors api.IngestStatus (kept in sync by the
// shared-client tests). The embedded Progress flattens into the envelope.
type ingestStatusResponse struct {
	State string `json:"state"`
	Error string `json:"error,omitempty"`
	ingest.Progress
	Dataset *DatasetInfo `json:"dataset,omitempty"`
}

// jobStatus snapshots a job for the wire.
func jobStatus(job *ingestJob) ingestStatusResponse {
	st := ingestStatusResponse{State: api.IngestRunning, Progress: job.ing.Progress()}
	select {
	case <-job.done:
		job.mu.Lock()
		if job.err != nil {
			st.State = api.IngestFailed
			st.Error = job.err.Error()
		} else {
			st.State = api.IngestDone
			st.Dataset = job.info
		}
		job.mu.Unlock()
	default:
	}
	return st
}

func (s *Server) handleIngestStatus(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.mu.RLock()
	job, ok := s.jobs[name]
	s.mu.RUnlock()
	if !ok {
		writeError(w, httpErrorf(http.StatusNotFound, api.CodeNotFound, "no ingest for dataset %q", name))
		return
	}
	writeJSON(w, http.StatusOK, jobStatus(job))
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	var req api.ExplainRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes)).Decode(&req); err != nil {
		writeError(w, bodyError("bad explain request", err))
		return
	}
	q, err := sqlparse.Parse(req.SQL)
	if err != nil {
		writeError(w, httpErrorf(http.StatusBadRequest, api.CodeInvalidArgument, "%v", err))
		return
	}
	text, err := sqlparse.Explain(q)
	if err != nil {
		writeError(w, httpErrorf(http.StatusBadRequest, api.CodeInvalidArgument, "%v", err))
		return
	}
	// The structured DAG benefits from column kinds (the planner's float-
	// sensitivity gate), so resolve the FROM dataset when it is registered;
	// explaining against an unknown dataset still works, conservatively.
	var tab *core.Table
	if ds, ok := s.lookup(q.From); ok {
		if t, err := ds.buf.Snapshot().Table(); err == nil {
			tab = t
		}
	}
	p, err := sqlparse.BuildPlan(q, tab)
	if err != nil {
		writeError(w, httpErrorf(http.StatusBadRequest, api.CodeInvalidArgument, "%v", err))
		return
	}
	resp := &explainResponse{Plan: text, PlanDAG: p.Nodes}
	resp.Operators = p.Stats.Operators
	resp.SortsShared = p.Stats.SortsShared
	resp.TreesShared = p.Stats.TreesShared
	writeJSON(w, http.StatusOK, resp)
}

// explainResponse mirrors api.ExplainResponse (kept in sync by the
// shared-client tests); plan.Node carries api.PlanNode's json shape.
type explainResponse struct {
	Plan        string      `json:"plan"`
	PlanDAG     []plan.Node `json:"plan_dag,omitempty"`
	Operators   int         `json:"operators,omitempty"`
	SortsShared int         `json:"sorts_shared,omitempty"`
	TreesShared int         `json:"trees_shared,omitempty"`
}

// timeoutFor clamps the requested timeout into (0, MaxTimeout].
func (s *Server) timeoutFor(millis int64) time.Duration {
	d := time.Duration(millis) * time.Millisecond
	if d <= 0 {
		d = s.cfg.DefaultTimeout
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req api.QueryRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes)).Decode(&req); err != nil {
		writeError(w, bodyError("bad query request", err))
		return
	}
	res, err := s.query(r.Context(), req.SQL, req.TimeoutMillis, req.IncludeTrace)
	w.Header().Set("Vary", "Accept")
	if err != nil {
		writeError(w, err)
		return
	}
	if !api.AcceptsFrame(r.Header.Get("Accept")) {
		writeJSON(w, http.StatusOK, res.rowJSON())
		return
	}
	w.Header().Set("Content-Type", api.FrameContentType)
	w.WriteHeader(http.StatusOK)
	if err := res.writeFrame(w); err != nil {
		// Past WriteHeader the client cannot be told; it sees a truncated
		// frame, which its decoder rejects.
		s.log.Debug("query frame write failed", "err", err)
	}
}

// queryResult is one evaluated statement, ready for either result
// encoding: the result table, which of its INT64 columns render as ISO
// dates, and the response's stats and trace.
type queryResult struct {
	table *core.Table
	dates map[string]bool
	stats api.QueryStats
	trace string
}

// columnNames lists the result's column names.
func (res *queryResult) columnNames() []string {
	cols := res.table.Columns()
	names := make([]string, len(cols))
	for i, c := range cols {
		names[i] = c.Name()
	}
	return names
}

// rowJSON renders the result as the row-JSON response. Rows and Nulls are
// per-row views over one backing slice each, and Nulls is only built when
// some cell is NULL. Cells render through csvio.AppendText, as in the
// column frame.
func (res *queryResult) rowJSON() *api.QueryResponse {
	cols := res.table.Columns()
	n, w := res.table.Rows(), len(cols)
	resp := &api.QueryResponse{Columns: res.columnNames(), Rows: make([][]string, n), Stats: res.stats, Trace: res.trace}
	cells := make([]string, n*w)
	var nulls []bool
	var buf []byte
	for c, col := range cols {
		if col.HasNulls() && nulls == nil {
			nulls = make([]bool, n*w)
		}
		date := res.dates[col.Name()]
		for i := 0; i < n; i++ {
			if col.IsNull(i) {
				nulls[i*w+c] = true
				continue
			}
			buf = csvio.AppendText(buf[:0], col, i, date)
			cells[i*w+c] = string(buf)
		}
	}
	for i := range resp.Rows {
		resp.Rows[i] = cells[i*w : (i+1)*w : (i+1)*w]
	}
	if nulls != nil {
		resp.Nulls = make([][]bool, n)
		for i := range resp.Nulls {
			resp.Nulls[i] = nulls[i*w : (i+1)*w : (i+1)*w]
		}
	}
	return resp
}

// writeFrame streams the result as a column frame.
func (res *queryResult) writeFrame(w io.Writer) error {
	fw, err := api.NewFrameWriter(w, res.columnNames(), res.table.Rows(), res.stats, res.trace)
	if err != nil {
		return err
	}
	for _, col := range res.table.Columns() {
		var null func(int) bool
		if col.HasNulls() {
			null = col.IsNull
		}
		date := res.dates[col.Name()]
		err := fw.Column(null, func(dst []byte, i int) []byte { return csvio.AppendText(dst, col, i, date) })
		if err != nil {
			return err
		}
	}
	return fw.Flush()
}

// query parses, admits and evaluates one statement; rendering the result
// is the caller's. Every query runs under a trace span: the finished tree
// feeds the per-(function, engine) evaluation histograms, the slow-query
// log, and — when the request asked for it — the result's trace.
func (s *Server) query(parent context.Context, sql string, timeoutMillis int64, includeTrace bool) (*queryResult, error) {
	q, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, httpErrorf(http.StatusBadRequest, api.CodeInvalidArgument, "%v", err)
	}
	ds, ok := s.lookup(q.From)
	if !ok {
		return nil, httpErrorf(http.StatusNotFound, api.CodeNotFound, "unknown dataset %q", q.From)
	}

	ctx, cancel := context.WithTimeout(parent, s.timeoutFor(timeoutMillis))
	defer cancel()

	// Admission: wait for an evaluation slot, but never past the deadline —
	// a query that times out in the queue fails fast without ever occupying
	// a slot, and a query cancelled mid-evaluation releases its slot as
	// soon as the operator observes the context.
	s.obs.admissionDepth.Add(1)
	select {
	case s.limiter <- struct{}{}:
		s.obs.admissionDepth.Add(-1)
	case <-ctx.Done():
		s.obs.admissionDepth.Add(-1)
		s.obs.admissionTimeouts.Inc()
		return nil, httpErrorf(http.StatusServiceUnavailable, api.CodeResourceExhausted,
			"no evaluation slot before deadline: %v", ctx.Err())
	}
	s.obs.admissionInUse.Add(1)
	defer func() {
		<-s.limiter
		s.obs.admissionInUse.Add(-1)
	}()

	// Pin one snapshot for the whole evaluation: the merged table and the
	// delta view are one epoch, regardless of concurrent mutations or
	// compactions. The cache scope carries the frozen generation so a
	// compaction swap retires the old generation's entries wholesale.
	snap := ds.buf.Snapshot()
	tab, err := snap.Table()
	if err != nil {
		return nil, httpErrorf(http.StatusInternalServerError, api.CodeInternal, "materialize %q: %v", q.From, err)
	}
	view, err := snap.View()
	if err != nil {
		return nil, httpErrorf(http.StatusInternalServerError, api.CodeInternal, "delta view %q: %v", q.From, err)
	}

	root := obs.NewSpan("query")
	root.Set("sql", sql)
	start := time.Now()
	res, planStats, err := sqlparse.ExecutePlanned(q, map[string]*core.Table{q.From: tab}, core.Options{
		Context:    ctx,
		Cache:      s.cache,
		CacheScope: fmt.Sprintf("%s|g%d", ds.scope, snap.Gen()),
		Delta:      view,
		TaskSize:   s.cfg.TaskSize,
		Trace:      root,
	})
	root.End()
	elapsed := time.Since(start)
	s.obs.observeQuerySpans(root)
	if s.cfg.SlowQuery > 0 && elapsed >= s.cfg.SlowQuery {
		s.obs.slowQueries.Inc()
		s.log.Warn("slow query",
			"sql", sql,
			"elapsed_ms", float64(elapsed)/float64(time.Millisecond),
			"threshold_ms", float64(s.cfg.SlowQuery)/float64(time.Millisecond),
			"trace", "\n"+root.Render(),
		)
	}
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		return nil, httpErrorf(http.StatusBadRequest, api.CodeInvalidArgument, "%v", err)
	}

	st := s.cache.Stats()
	out := &queryResult{table: res, dates: ds.file.DateColumns, stats: api.QueryStats{
		ElapsedMillis: float64(elapsed) / float64(time.Millisecond),
		CacheHits:     st.Hits,
		CacheMisses:   st.Misses,
		Operators:     planStats.Operators,
		SortsShared:   planStats.SortsShared,
		TreesShared:   planStats.TreesShared,
	}}
	if includeTrace {
		out.trace = root.Render()
	}
	s.obs.rowsReturned.Add(float64(res.Rows()))
	return out, nil
}
