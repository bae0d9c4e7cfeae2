// Package service implements fvld: a multi-tenant label service over HTTP.
//
// One process hosts many named tenants; each tenant owns registered schemes
// (an fvl.Service loaded from an uploaded labelstore snapshot) and named
// sessions over those schemes (live or durable fvl sessions). The HTTP
// surface is deliberately thin: every byte format on the wire is one of the
// repo's existing fuzz-hardened codecs (FVLSNAP snapshots for schemes,
// FVLJRNL journals for step streams) plus small JSON documents defined in
// internal/service/wire. A step stream is read with live.JournalReader and
// each record goes straight to Session.Apply, and every query executes
// through the same epoch-pinning fvl surfaces an in-process caller would
// use — so a remote answer is byte-for-byte the in-process answer at the
// same epoch.
//
// The server adds exactly three things a library caller does not get:
// per-tenant admission control (bounded in-flight queries and step streams,
// refused with 429 + Retry-After), a graceful drain protocol (new writes
// refused with 503 while in-flight work completes), and a Prometheus
// /metrics endpoint.
package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/fvl"
	"repro/internal/service/wire"
)

// Config sizes a Server.
type Config struct {
	// DataDir is the root directory for persistent state: uploaded scheme
	// snapshots and durable session directories live under
	// DataDir/<tenant>/<scheme>/. Empty disables durable sessions and
	// scheme persistence (a restart forgets everything).
	DataDir string

	// MaxInflightQueries bounds concurrently executing query requests
	// (depends, query, explain) per tenant; excess requests are refused
	// with 429 + Retry-After rather than queued. Default 16.
	MaxInflightQueries int

	// MaxInflightStreams bounds concurrently open step-ingestion streams
	// per tenant — the step-queue depth, since each stream holds at most
	// one undecoded record in flight. Default 4.
	MaxInflightStreams int

	// Workers sets the query worker pool size of every scheme opened by
	// this server (0 = the fvl default, GOMAXPROCS-bounded).
	Workers int
}

func (c Config) withDefaults() Config {
	if c.MaxInflightQueries <= 0 {
		c.MaxInflightQueries = 16
	}
	if c.MaxInflightStreams <= 0 {
		c.MaxInflightStreams = 4
	}
	return c
}

// errDraining marks a write refused because the server is draining.
var errDraining = errors.New("service: draining, new writes refused")

// errThrottled marks a request refused by per-tenant admission control.
var errThrottled = errors.New("service: tenant admission bound exceeded")

// errNoDataDir marks a durable-session request against a server that was
// started without a data directory.
var errNoDataDir = errors.New("service: durable sessions need a data dir (fvld -data)")

// Server is the multi-tenant registry behind the HTTP handlers: tenants own
// schemes, schemes own sessions. All registry maps are guarded by mu;
// individual sessions serialize their own producers (stepMu) while queries
// run lock-free through the fvl surfaces.
type Server struct {
	cfg     Config
	metrics *metrics

	mu      sync.RWMutex
	tenants map[string]*tenant

	// drainMu orders the drain flag against the in-flight registrations:
	// beginWrite/beginQuery register under the same mutex Drain uses to
	// flip the flag, so once Drain holds the mutex no new work can slip
	// into the count it waits on. inflight counts admitted writes and
	// queries; idle, when a drain waits, is closed as inflight reaches 0.
	drainMu  sync.Mutex
	draining bool
	inflight int
	idle     chan struct{}
}

// tenant is one namespace with its own admission budget.
type tenant struct {
	name    string
	schemes map[string]*scheme

	// queryTokens and streamTokens are counting semaphores: a failed
	// non-blocking acquire is the 429 path, never a queue.
	queryTokens  chan struct{}
	streamTokens chan struct{}
}

// scheme is one registered fvl.Service and the sessions running over it.
// openMu serializes session PUTs, so a session is opened at most once.
type scheme struct {
	name     string
	svc      *fvl.Service
	basic    bool
	sessions map[string]*session
	openMu   sync.Mutex
}

// session is one live run being served remotely. durable is nil for
// journal-less live sessions. stepMu serializes step streams per session:
// fvl.Session.Apply itself tolerates concurrent producers, but serializing
// streams is what makes the acked-step accounting exact — with a single
// writer, the epoch delta across a stream is precisely the steps this
// stream applied, so StepsResult.Applied is a truthful ack even when the
// stream fails midway.
type session struct {
	name    string
	tenant  string
	scheme  *scheme
	sess    *fvl.Session
	durable *fvl.DurableSession
	stepMu  sync.Mutex
}

// New builds a Server. With a DataDir, previously persisted tenants and
// schemes are reloaded immediately (durable sessions are resumed lazily, on
// their first PUT after restart).
func New(cfg Config) (*Server, error) {
	s := &Server{
		cfg:     cfg.withDefaults(),
		metrics: newMetrics(),
		tenants: make(map[string]*tenant),
	}
	if err := s.reload(); err != nil {
		return nil, err
	}
	return s, nil
}

// newTenant mints a tenant with its admission budget.
func (s *Server) newTenant(name string) *tenant {
	return &tenant{
		name:         name,
		schemes:      make(map[string]*scheme),
		queryTokens:  make(chan struct{}, s.cfg.MaxInflightQueries),
		streamTokens: make(chan struct{}, s.cfg.MaxInflightStreams),
	}
}

// svcOptions are the fvl options every scheme on this server opens with.
func (s *Server) svcOptions() []fvl.Option {
	if s.cfg.Workers > 0 {
		return []fvl.Option{fvl.WithWorkers(s.cfg.Workers)}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Persistence layout: DataDir/<tenant>/<scheme>/scheme.fvlsnap holds the
// uploaded snapshot; DataDir/<tenant>/<scheme>/sessions/<session>/ is a
// durable session directory.
// ---------------------------------------------------------------------------

const snapshotFile = "scheme.fvlsnap"

func (s *Server) schemeDir(tenantName, schemeName string) string {
	return filepath.Join(s.cfg.DataDir, tenantName, schemeName)
}

func (s *Server) sessionDir(tenantName, schemeName, sessionName string) string {
	return filepath.Join(s.schemeDir(tenantName, schemeName), "sessions", sessionName)
}

// reload restores tenants and schemes from DataDir after a restart. Session
// directories are left on disk untouched; a durable session resumes on its
// next PUT, paying the journal replay then.
func (s *Server) reload() error {
	if s.cfg.DataDir == "" {
		return nil
	}
	if err := os.MkdirAll(s.cfg.DataDir, 0o755); err != nil {
		return err
	}
	tenantDirs, err := os.ReadDir(s.cfg.DataDir)
	if err != nil {
		return err
	}
	for _, td := range tenantDirs {
		if !td.IsDir() || !wire.ValidName(td.Name()) {
			continue
		}
		t := s.newTenant(td.Name())
		s.tenants[td.Name()] = t
		schemeDirs, err := os.ReadDir(filepath.Join(s.cfg.DataDir, td.Name()))
		if err != nil {
			return err
		}
		for _, sd := range schemeDirs {
			if !sd.IsDir() || !wire.ValidName(sd.Name()) {
				continue
			}
			snap := filepath.Join(s.cfg.DataDir, td.Name(), sd.Name(), snapshotFile)
			if _, err := os.Stat(snap); err != nil {
				continue // a scheme dir without a snapshot is not servable
			}
			svc, err := fvl.OpenSnapshotFile(snap, s.svcOptions()...)
			if err != nil {
				return fmt.Errorf("service: reload %s/%s: %w", td.Name(), sd.Name(), err)
			}
			t.schemes[sd.Name()] = &scheme{
				name:     sd.Name(),
				svc:      svc,
				basic:    svc.IsBasic(),
				sessions: make(map[string]*session),
			}
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Registry lookups.
// ---------------------------------------------------------------------------

func (s *Server) tenantNames() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.tenants))
	for name := range s.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func (s *Server) lookupTenant(name string) (*tenant, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tenants[name]
	return t, ok
}

func (s *Server) lookupScheme(tenantName, schemeName string) (*tenant, *scheme, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tenants[tenantName]
	if !ok {
		return nil, nil, false
	}
	sc, ok := t.schemes[schemeName]
	return t, sc, ok
}

func (s *Server) lookupSession(tenantName, schemeName, sessionName string) (*tenant, *session, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tenants[tenantName]
	if !ok {
		return nil, nil, false
	}
	sc, ok := t.schemes[schemeName]
	if !ok {
		return nil, nil, false
	}
	sess, ok := sc.sessions[sessionName]
	return t, sess, ok
}

// ---------------------------------------------------------------------------
// Drain protocol.
// ---------------------------------------------------------------------------

// beginWrite admits a mutating request (scheme upload, session create, step
// stream). It fails with errDraining once Drain has begun; an
// admitted write counts as in flight until its release func runs.
func (s *Server) beginWrite() (func(), error) {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	if s.draining {
		return nil, errDraining
	}
	s.inflight++
	return s.endInflight, nil
}

// beginQuery admits a read. Reads stay allowed during a drain — the drain
// only waits for the queries that were in flight when it started, which is
// why registration is conditional on the flag under the same mutex.
func (s *Server) beginQuery() func() {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	if s.draining {
		return func() {}
	}
	s.inflight++
	return s.endInflight
}

// endInflight releases one admitted write or query, waking a waiting Drain
// when it was the last.
func (s *Server) endInflight() {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	s.inflight--
	if s.inflight == 0 && s.idle != nil {
		close(s.idle)
		s.idle = nil
	}
}

// Drain puts the server into draining mode: new writes are refused with
// 503, and Drain returns once in-flight writes and queries are done. It
// writes nothing: every durable session is opened with the default
// every-step fsync, so each acked step is already on disk, and a restart
// resumes each session at its acked epoch. Reads keep being served
// throughout. Drain is idempotent; Resume undoes it.
//
// If ctx ends first — a client holding a step stream open — Drain returns
// ctx.Err() and the server stays draining; the work it stopped waiting for
// is left to finish or to be cut off by the caller's shutdown.
func (s *Server) Drain(ctx context.Context) error {
	s.drainMu.Lock()
	s.draining = true
	idle := s.idle
	if idle == nil && s.inflight > 0 {
		idle = make(chan struct{})
		s.idle = idle
	}
	s.drainMu.Unlock()
	s.metrics.setDraining(true)

	if idle == nil {
		return nil
	}
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Resume takes the server out of draining mode; refused writers may retry.
func (s *Server) Resume() {
	s.drainMu.Lock()
	s.draining = false
	s.drainMu.Unlock()
	s.metrics.setDraining(false)
}

// Draining reports whether the server currently refuses new writes.
func (s *Server) Draining() bool {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	return s.draining
}

// allSessions snapshots every registered session.
func (s *Server) allSessions() []*session {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []*session
	for _, t := range s.tenants {
		for _, sc := range t.schemes {
			for _, sess := range sc.sessions {
				out = append(out, sess)
			}
		}
	}
	return out
}

// Close releases every durable session's journal (pair with Drain first so
// no write is in flight). The server must not serve requests afterwards.
func (s *Server) Close() error {
	var firstErr error
	for _, sess := range s.allSessions() {
		if sess.durable == nil {
			continue
		}
		if err := sess.durable.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// ---------------------------------------------------------------------------
// Admission control.
// ---------------------------------------------------------------------------

// acquire takes one token non-blocking; the false return is the 429 path.
func acquire(tokens chan struct{}) bool {
	select {
	case tokens <- struct{}{}:
		return true
	default:
		return false
	}
}

func release(tokens chan struct{}) { <-tokens }

// Handler returns the HTTP surface of the server.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	s.routes(mux)
	return mux
}
