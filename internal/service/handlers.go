package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"repro/fvl"
	"repro/internal/live"
	"repro/internal/service/wire"
)

// routes wires the URL space of internal/service/wire onto a 1.22 mux. The
// method is the handler registry and nothing else; each handler owns its
// admission, drain and status-mapping decisions.
func (s *Server) routes(mux *http.ServeMux) {
	mux.HandleFunc("GET "+wire.PathHealth, s.handleHealth)
	mux.HandleFunc("GET "+wire.PathMetrics, s.handleMetrics)
	mux.HandleFunc("POST "+wire.PathDrain, s.handleDrain)
	mux.HandleFunc("POST "+wire.PathResume, s.handleResume)

	mux.HandleFunc("GET "+wire.PathTenants, s.handleListTenants)
	mux.HandleFunc("PUT "+wire.PathTenants+"/{tenant}", s.handlePutTenant)
	mux.HandleFunc("GET "+wire.PathTenants+"/{tenant}/schemes", s.handleListSchemes)
	mux.HandleFunc("PUT "+wire.PathTenants+"/{tenant}/schemes/{scheme}", s.handlePutScheme)
	mux.HandleFunc("GET "+wire.PathTenants+"/{tenant}/schemes/{scheme}", s.handleGetScheme)
	mux.HandleFunc("GET "+wire.PathTenants+"/{tenant}/schemes/{scheme}/snapshot", s.handleGetSnapshot)
	mux.HandleFunc("POST "+wire.PathTenants+"/{tenant}/schemes/{scheme}/explain", s.handleExplain)
	mux.HandleFunc("PUT "+wire.PathTenants+"/{tenant}/schemes/{scheme}/sessions/{session}", s.handlePutSession)
	mux.HandleFunc("GET "+wire.PathTenants+"/{tenant}/schemes/{scheme}/sessions/{session}", s.handleGetSession)
	mux.HandleFunc("POST "+wire.PathTenants+"/{tenant}/schemes/{scheme}/sessions/{session}/steps", s.handleSteps)
	mux.HandleFunc("POST "+wire.PathTenants+"/{tenant}/schemes/{scheme}/sessions/{session}/depends", s.handleDepends)
	mux.HandleFunc("POST "+wire.PathTenants+"/{tenant}/schemes/{scheme}/sessions/{session}/query", s.handleQuery)
	mux.HandleFunc("GET "+wire.PathTenants+"/{tenant}/schemes/{scheme}/sessions/{session}/journal", s.handleJournal)
}

// rejectedStep brands a live-session step rejection with the same sentinel
// journal replay uses (ErrInvalidStep), keeping the original message.
type rejectedStep struct{ err error }

func (e *rejectedStep) Error() string   { return e.err.Error() }
func (e *rejectedStep) Unwrap() []error { return []error{e.err, fvl.ErrInvalidStep} }

// ---------------------------------------------------------------------------
// Response helpers.
// ---------------------------------------------------------------------------

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// An encode failure past WriteHeader has no recovery path; the client
	// sees a truncated body and fails its own decode.
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, wire.ErrorOf(err))
}

// statusOf maps a service-layer error onto an HTTP status via the shared
// wire classification.
func statusOf(err error) int {
	switch wire.Classify(err) {
	case "bad-request":
		return http.StatusBadRequest
	case "unprocessable":
		return http.StatusUnprocessableEntity
	default:
		return http.StatusInternalServerError
	}
}

// throttled answers the 429 path of per-tenant admission control.
func (s *Server) throttled(w http.ResponseWriter, tenantName string) {
	s.metrics.addThrottled(tenantName)
	w.Header().Set("Retry-After", strconv.Itoa(wire.RetryAfterSeconds))
	writeError(w, http.StatusTooManyRequests, errThrottled)
}

// drainingResponse answers the 503 path of the drain protocol.
func drainingResponse(w http.ResponseWriter) {
	w.Header().Set("Retry-After", strconv.Itoa(wire.RetryAfterSeconds))
	writeError(w, http.StatusServiceUnavailable, errDraining)
}

func notFound(w http.ResponseWriter, what, name string) {
	writeError(w, http.StatusNotFound, fmt.Errorf("service: unknown %s %q", what, name))
}

func badName(w http.ResponseWriter, what, name string) {
	writeError(w, http.StatusBadRequest, fmt.Errorf("service: invalid %s name %q", what, name))
}

// ---------------------------------------------------------------------------
// Admin and observability.
// ---------------------------------------------------------------------------

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.write(w, s.collectSessions(), s.collectInflight())
}

func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	if err := s.Drain(r.Context()); err != nil {
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	writeJSON(w, http.StatusOK, wire.DrainResponse{Draining: true})
}

func (s *Server) handleResume(w http.ResponseWriter, _ *http.Request) {
	s.Resume()
	writeJSON(w, http.StatusOK, wire.DrainResponse{Draining: false})
}

// ---------------------------------------------------------------------------
// Tenants and schemes.
// ---------------------------------------------------------------------------

func (s *Server) handleListTenants(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, wire.TenantList{Tenants: s.tenantNames()})
}

func (s *Server) handlePutTenant(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("tenant")
	if !wire.ValidName(name) {
		badName(w, "tenant", name)
		return
	}
	endWrite, err := s.beginWrite()
	if err != nil {
		drainingResponse(w)
		return
	}
	defer endWrite()
	s.mu.Lock()
	_, existed := s.tenants[name]
	if !existed {
		s.tenants[name] = s.newTenant(name)
	}
	s.mu.Unlock()
	if s.cfg.DataDir != "" {
		if err := os.MkdirAll(filepath.Join(s.cfg.DataDir, name), 0o755); err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
	}
	status := http.StatusCreated
	if existed {
		status = http.StatusOK
	}
	writeJSON(w, status, wire.TenantList{Tenants: s.tenantNames()})
}

func (s *Server) handleListSchemes(w http.ResponseWriter, r *http.Request) {
	t, ok := s.lookupTenant(r.PathValue("tenant"))
	if !ok {
		notFound(w, "tenant", r.PathValue("tenant"))
		return
	}
	s.mu.RLock()
	list := wire.SchemeList{Schemes: []wire.SchemeInfo{}}
	for _, sc := range t.schemes {
		list.Schemes = append(list.Schemes, schemeInfo(sc))
	}
	s.mu.RUnlock()
	sort.Slice(list.Schemes, func(i, j int) bool { return list.Schemes[i].Name < list.Schemes[j].Name })
	writeJSON(w, http.StatusOK, list)
}

// schemeInfo summarizes one scheme; the caller holds (at least) s.mu.RLock.
func schemeInfo(sc *scheme) wire.SchemeInfo {
	info := wire.SchemeInfo{
		Name:  sc.name,
		Views: sc.svc.Views(),
		Basic: sc.basic,
	}
	for name := range sc.sessions {
		info.Sessions = append(info.Sessions, name)
	}
	sort.Strings(info.Sessions)
	return info
}

// handlePutScheme registers a scheme from an uploaded labelstore snapshot —
// the FVLSNAP codec is the wire format, so the upload is validated by the
// same checksummed loader every on-disk snapshot goes through.
func (s *Server) handlePutScheme(w http.ResponseWriter, r *http.Request) {
	tenantName, schemeName := r.PathValue("tenant"), r.PathValue("scheme")
	if !wire.ValidName(schemeName) {
		badName(w, "scheme", schemeName)
		return
	}
	t, ok := s.lookupTenant(tenantName)
	if !ok {
		notFound(w, "tenant", tenantName)
		return
	}
	endWrite, err := s.beginWrite()
	if err != nil {
		drainingResponse(w)
		return
	}
	defer endWrite()

	body, err := io.ReadAll(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	svc, err := fvl.OpenSnapshot(bytes.NewReader(body), s.svcOptions()...)
	if err != nil {
		writeError(w, statusOf(err), err)
		return
	}

	s.mu.Lock()
	if _, exists := t.schemes[schemeName]; exists {
		s.mu.Unlock()
		writeError(w, http.StatusConflict,
			fmt.Errorf("service: scheme %q already registered for tenant %q", schemeName, tenantName))
		return
	}
	sc := &scheme{name: schemeName, svc: svc, basic: svc.IsBasic(), sessions: make(map[string]*session)}
	t.schemes[schemeName] = sc
	s.mu.Unlock()

	if s.cfg.DataDir != "" {
		dir := s.schemeDir(tenantName, schemeName)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		err := fvl.WriteFileAtomic(filepath.Join(dir, snapshotFile), func(fw io.Writer) error {
			_, werr := fw.Write(body)
			return werr
		})
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
	}

	s.mu.RLock()
	info := schemeInfo(sc)
	s.mu.RUnlock()
	writeJSON(w, http.StatusCreated, info)
}

func (s *Server) handleGetScheme(w http.ResponseWriter, r *http.Request) {
	_, sc, ok := s.lookupScheme(r.PathValue("tenant"), r.PathValue("scheme"))
	if !ok {
		notFound(w, "scheme", r.PathValue("scheme"))
		return
	}
	s.mu.RLock()
	info := schemeInfo(sc)
	s.mu.RUnlock()
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleGetSnapshot(w http.ResponseWriter, r *http.Request) {
	_, sc, ok := s.lookupScheme(r.PathValue("tenant"), r.PathValue("scheme"))
	if !ok {
		notFound(w, "scheme", r.PathValue("scheme"))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	if err := sc.svc.Snapshot(w); err != nil {
		// Headers are gone; all we can do is cut the stream short so the
		// client's snapshot loader rejects the truncated body.
		return
	}
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	tenantName := r.PathValue("tenant")
	t, sc, ok := s.lookupScheme(tenantName, r.PathValue("scheme"))
	if !ok {
		notFound(w, "scheme", r.PathValue("scheme"))
		return
	}
	endQuery := s.beginQuery()
	defer endQuery()
	if !acquire(t.queryTokens) {
		s.throttled(w, tenantName)
		return
	}
	defer release(t.queryTokens)
	var req wire.ExplainRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	expr, _ := fvl.ParseQueryExpr(req.Expr)
	plan, err := sc.svc.ExplainQuery(req.View, expr)
	if err != nil {
		writeError(w, statusOf(err), err)
		return
	}
	s.metrics.addQuery(tenantName)
	writeJSON(w, http.StatusOK, wire.ExplainResponse{Plan: plan})
}

// ---------------------------------------------------------------------------
// Sessions.
// ---------------------------------------------------------------------------

func (s *Server) statusOfSession(sess *session, resumed bool) wire.SessionStatus {
	return wire.SessionStatus{
		Tenant:   sess.tenant,
		Scheme:   sess.scheme.name,
		Session:  sess.name,
		Epoch:    sess.sess.Epoch(),
		Items:    sess.sess.Items(),
		Complete: sess.sess.IsComplete(),
		Durable:  sess.durable != nil,
		Resumed:  resumed,
	}
}

// handlePutSession creates (or idempotently re-attaches) a session. Mode
// "live" keeps all state in memory; mode "durable" opens a session
// directory under DataDir — and if the directory already holds a session
// (a previous process, or a closed one), it is recovered via ResumeDurable,
// which is what makes server restart transparent to producers. The scheme's
// openMu is held from the lookup to the registration, so concurrent PUTs of
// one name open its directory once and the rest re-attach.
func (s *Server) handlePutSession(w http.ResponseWriter, r *http.Request) {
	tenantName, schemeName, sessionName := r.PathValue("tenant"), r.PathValue("scheme"), r.PathValue("session")
	if !wire.ValidName(sessionName) {
		badName(w, "session", sessionName)
		return
	}
	_, sc, ok := s.lookupScheme(tenantName, schemeName)
	if !ok {
		notFound(w, "scheme", schemeName)
		return
	}
	endWrite, err := s.beginWrite()
	if err != nil {
		drainingResponse(w)
		return
	}
	defer endWrite()

	mode := r.URL.Query().Get("mode")
	if mode == "" {
		mode = "live"
	}
	if mode != "live" && mode != "durable" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("service: unknown session mode %q", mode))
		return
	}

	sc.openMu.Lock()
	defer sc.openMu.Unlock()
	s.mu.RLock()
	existing, ok := sc.sessions[sessionName]
	s.mu.RUnlock()
	if ok {
		writeJSON(w, http.StatusOK, s.statusOfSession(existing, true))
		return
	}

	sess := &session{name: sessionName, tenant: tenantName, scheme: sc}
	resumed := false
	switch mode {
	case "live":
		live, err := sc.svc.OpenLive()
		if err != nil {
			writeError(w, statusOf(err), err)
			return
		}
		sess.sess = live
	case "durable":
		if s.cfg.DataDir == "" {
			writeError(w, http.StatusUnprocessableEntity, errNoDataDir)
			return
		}
		dir := s.sessionDir(tenantName, schemeName, sessionName)
		entries, readErr := os.ReadDir(dir)
		var ds *fvl.DurableSession
		if readErr == nil && len(entries) > 0 {
			ds, err = sc.svc.ResumeDurable(dir)
			resumed = true
		} else {
			if err = os.MkdirAll(filepath.Dir(dir), 0o755); err == nil {
				ds, err = sc.svc.OpenDurable(dir)
			}
		}
		if err != nil {
			writeError(w, statusOf(err), err)
			return
		}
		sess.sess = ds.Session
		sess.durable = ds
	}

	s.mu.Lock()
	sc.sessions[sessionName] = sess
	s.mu.Unlock()
	code := http.StatusCreated
	if resumed {
		code = http.StatusOK
	}
	writeJSON(w, code, s.statusOfSession(sess, resumed))
}

func (s *Server) handleGetSession(w http.ResponseWriter, r *http.Request) {
	_, sess, ok := s.lookupSession(r.PathValue("tenant"), r.PathValue("scheme"), r.PathValue("session"))
	if !ok {
		notFound(w, "session", r.PathValue("session"))
		return
	}
	writeJSON(w, http.StatusOK, s.statusOfSession(sess, false))
}

// handleSteps is the streaming ingestion path: the request body is a step
// journal (FVLJRNL), decoded incrementally by the fuzz-hardened journal
// reader, and each record is applied with Session.Apply on the handler
// goroutine as soon as it is decoded. The request context is checked
// between steps. The response acknowledges exactly the steps the session
// applied: with a durable session under the default sync policy, every
// acked step is on disk before the ack.
//
// Streams are serialized per session (stepMu), which is what makes the ack
// exact: with a single writer, the epoch delta across the stream equals the
// steps this stream applied even when it fails partway.
func (s *Server) handleSteps(w http.ResponseWriter, r *http.Request) {
	tenantName := r.PathValue("tenant")
	t, sess, ok := s.lookupSession(tenantName, r.PathValue("scheme"), r.PathValue("session"))
	if !ok {
		notFound(w, "session", r.PathValue("session"))
		return
	}
	if !acquire(t.streamTokens) {
		s.throttled(w, tenantName)
		return
	}
	defer release(t.streamTokens)
	endWrite, err := s.beginWrite()
	if err != nil {
		drainingResponse(w)
		return
	}
	defer endWrite()

	sess.stepMu.Lock()
	defer sess.stepMu.Unlock()

	startEpoch := sess.sess.Epoch()
	streamErr := s.applySteps(r, sess.sess)
	applied := int(sess.sess.Epoch() - startEpoch)
	s.metrics.addSteps(tenantName, applied)
	result := wire.StepsResult{
		Applied: applied,
		Epoch:   sess.sess.Epoch(),
		Items:   sess.sess.Items(),
		Error:   wire.ErrorOf(streamErr),
	}
	code := http.StatusOK
	if streamErr != nil {
		code = statusOf(streamErr)
	}
	writeJSON(w, code, result)
}

// applySteps decodes the request body's step journal and applies its
// records in order, stopping at the first failure: a malformed or torn body
// (ErrCorruptJournal), a canceled request (ErrCanceled) or a step the
// session rejects. A rejected step that neither classified itself nor
// poisoned the session is branded ErrInvalidStep (the documented Apply
// contract), so remote callers classify it like journal replay does.
func (s *Server) applySteps(r *http.Request, sess *fvl.Session) error {
	ctx := r.Context()
	// decoded returns the outcome of a decode, header or record alike. The
	// request context comes first: a client that gave up also fails the
	// body read, and that is a cancellation.
	decoded := func(err error) error {
		if ctx.Err() != nil {
			return fmt.Errorf("service: step stream canceled at epoch %d: %w (%v)", sess.Epoch(), fvl.ErrCanceled, context.Cause(ctx))
		}
		return err
	}
	jr, err := live.NewJournalReader(r.Body)
	if err != nil {
		return decoded(err)
	}
	for {
		step, err := jr.Next()
		if err == io.EOF {
			return nil
		}
		if err := decoded(err); err != nil {
			return err
		}
		start := time.Now()
		_, err = sess.Apply(step.Instance, step.Prod)
		s.metrics.observeStep(time.Since(start))
		if err != nil {
			if wire.Classify(err) == "internal" && sess.Err() == nil {
				return &rejectedStep{err: err}
			}
			return err
		}
	}
}

func (s *Server) handleDepends(w http.ResponseWriter, r *http.Request) {
	tenantName := r.PathValue("tenant")
	t, sess, ok := s.lookupSession(tenantName, r.PathValue("scheme"), r.PathValue("session"))
	if !ok {
		notFound(w, "session", r.PathValue("session"))
		return
	}
	endQuery := s.beginQuery()
	defer endQuery()
	if !acquire(t.queryTokens) {
		s.throttled(w, tenantName)
		return
	}
	defer release(t.queryTokens)

	var req wire.DependsRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	queries := make([]fvl.ItemQuery, len(req.Queries))
	for i, q := range req.Queries {
		queries[i] = fvl.ItemQuery{From: q[0], To: q[1]}
	}
	results, epoch, err := sess.sess.DependsOnBatch(r.Context(), req.View, queries)
	if err != nil {
		writeError(w, statusOf(err), err)
		return
	}
	s.metrics.addQuery(tenantName)
	resp := wire.DependsResponse{Epoch: epoch, Results: make([]wire.DependsResult, len(results))}
	for i, res := range results {
		resp.Results[i] = wire.DependsResult{DependsOn: res.DependsOn, Error: wire.ErrorOf(res.Err)}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleQuery answers a batch of set queries, epoch-pinned per request: the
// whole batch executes against one published step prefix via the session's
// QueryBatch (which runs the engine's SetQueryBatch under the hood), and
// the response carries the pinned epoch so a caller can correlate answers
// across requests.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	tenantName := r.PathValue("tenant")
	t, sess, ok := s.lookupSession(tenantName, r.PathValue("scheme"), r.PathValue("session"))
	if !ok {
		notFound(w, "session", r.PathValue("session"))
		return
	}
	endQuery := s.beginQuery()
	defer endQuery()
	if !acquire(t.queryTokens) {
		s.throttled(w, tenantName)
		return
	}
	defer release(t.queryTokens)

	var req wire.QueryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	exprs := make([]fvl.QueryExpr, len(req.Exprs))
	for i, text := range req.Exprs {
		// A parse failure stays embedded in the expression and surfaces as
		// that slot's answer error; the rest of the batch runs.
		exprs[i], _ = fvl.ParseQueryExpr(text)
	}
	answers, epoch, err := sess.sess.QueryBatch(r.Context(), req.View, exprs)
	if err != nil {
		writeError(w, statusOf(err), err)
		return
	}
	s.metrics.addQuery(tenantName)
	resp := wire.QueryResponse{Epoch: epoch, Answers: make([]wire.SetAnswer, len(answers))}
	for i, a := range answers {
		resp.Answers[i] = setAnswerWire(a)
	}
	writeJSON(w, http.StatusOK, resp)
}

// setAnswerWire encodes a set answer's IDs as rows.
func setAnswerWire(a fvl.SetAnswer) wire.SetAnswer {
	return wire.SetAnswer{
		Items: wire.EncodeItems(a.Items),
		Pairs: wire.EncodePairs(a.Pairs),
		Plan:  a.Plan,
		Error: wire.ErrorOf(a.Err),
	}
}

// handleJournal exports the session's current step prefix in the journal
// format — the same bytes a step stream uploads, so a client can mirror a
// remote session into a local fvl.ResumeLive.
func (s *Server) handleJournal(w http.ResponseWriter, r *http.Request) {
	_, sess, ok := s.lookupSession(r.PathValue("tenant"), r.PathValue("scheme"), r.PathValue("session"))
	if !ok {
		notFound(w, "session", r.PathValue("session"))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	if err := sess.sess.WriteJournal(w); err != nil {
		return // truncated stream; the client's journal reader rejects it
	}
}
