package client

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"

	"repro/fvl"
	"repro/internal/live"
	"repro/internal/service/wire"
)

// SessionStatus reports where a remote session stands.
type SessionStatus struct {
	Tenant, Scheme, Session string
	Epoch                   uint64
	Items                   int
	Complete                bool
	Durable                 bool
	// Resumed reports that opening re-attached existing state (an already
	// registered session, or a durable directory recovered after restart)
	// instead of starting from scratch.
	Resumed bool
}

func statusOf(w wire.SessionStatus) SessionStatus {
	return SessionStatus{
		Tenant: w.Tenant, Scheme: w.Scheme, Session: w.Session,
		Epoch: w.Epoch, Items: w.Items, Complete: w.Complete,
		Durable: w.Durable, Resumed: w.Resumed,
	}
}

// StepsResult acknowledges a step stream: Applied steps are visible (and,
// for durable sessions, journaled) on the server — a client must not replay
// them, even when the stream as a whole failed.
type StepsResult struct {
	Applied int
	Epoch   uint64
	Items   int
}

// Session is a remote live session, mirroring fvl.Session's surface:
// producers send steps (SendSteps, Apply), readers ask epoch-pinned
// queries (Query, QueryBatch, DependsOn, DependsOnBatch). A Session is
// stateless client-side and safe for concurrent use; the server serializes
// step streams per session.
type Session struct {
	c                    *Client
	tenant, scheme, name string
}

// OpenSession creates — or idempotently re-attaches — a session over a
// registered scheme. With durable=true the server backs the session with a
// crash-recoverable directory: if the directory already holds a session
// (e.g. the server restarted), it is resumed at its journaled epoch, which
// the returned status reports.
func (c *Client) OpenSession(ctx context.Context, tenant, scheme, session string, durable bool) (*Session, SessionStatus, error) {
	mode := "live"
	if durable {
		mode = "durable"
	}
	var st wire.SessionStatus
	err := c.do(ctx, http.MethodPut, wire.SessionPath(tenant, scheme, session)+"?mode="+mode, nil, &st)
	if err != nil {
		return nil, SessionStatus{}, err
	}
	return &Session{c: c, tenant: tenant, scheme: scheme, name: session}, statusOf(st), nil
}

// Status fetches the session's current position.
func (s *Session) Status(ctx context.Context) (SessionStatus, error) {
	var st wire.SessionStatus
	err := s.c.do(ctx, http.MethodGet, wire.SessionPath(s.tenant, s.scheme, s.name), nil, &st)
	return statusOf(st), err
}

// SendSteps applies a batch of steps in one request, framed as a step
// journal (FVLJRNL). On failure the returned ack still counts the steps the
// server applied, and those must not be replayed.
func (s *Session) SendSteps(ctx context.Context, steps []fvl.StepRequest) (StepsResult, error) {
	reqs := make([]live.StepRequest, len(steps))
	for i, st := range steps {
		reqs[i] = live.StepRequest{Instance: st.Instance, Prod: st.Production}
	}
	body, err := live.EncodeJournal(reqs)
	if err != nil {
		return StepsResult{}, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		s.c.base+wire.StepsPath(s.tenant, s.scheme, s.name), bytes.NewReader(body))
	if err != nil {
		return StepsResult{}, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := s.c.http.Do(req)
	if err != nil {
		return StepsResult{}, err
	}
	defer resp.Body.Close()
	// The steps endpoint answers failures with a StepsResult carrying both
	// the acked prefix and the error, so decode the body for every status
	// that can have one; only admission/drain refusals lack an ack.
	switch resp.StatusCode {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusNotFound:
		return StepsResult{}, responseError(resp)
	}
	var w wire.StepsResult
	if derr := jsonDecode(resp.Body, &w); derr != nil {
		return StepsResult{}, fmt.Errorf("fvld: steps ack: %w", derr)
	}
	return StepsResult{Applied: w.Applied, Epoch: w.Epoch, Items: w.Items}, w.Error.Err()
}

// Apply expands one composite instance with the 1-based production index,
// mirroring fvl.Session.Apply: it returns the epoch at which the step
// became visible.
func (s *Session) Apply(ctx context.Context, instance, production int) (uint64, error) {
	res, err := s.SendSteps(ctx, []fvl.StepRequest{{Instance: instance, Production: production}})
	if err != nil {
		return res.Epoch, err
	}
	return res.Epoch, nil
}

// DependsOn answers one reachability question against the named view:
// does the item with ID to depend on the item with ID from?
func (s *Session) DependsOn(ctx context.Context, viewName string, from, to int) (bool, error) {
	results, _, err := s.DependsOnBatch(ctx, viewName, []fvl.ItemQuery{{From: from, To: to}})
	if err != nil {
		return false, err
	}
	return results[0].DependsOn, results[0].Err
}

// DependsOnBatch answers a batch of item-ID queries against the named view.
// Like fvl.Session.DependsOnBatch, the whole batch pins one published step
// prefix, identified by the returned epoch.
func (s *Session) DependsOnBatch(ctx context.Context, viewName string, queries []fvl.ItemQuery) ([]fvl.Result, uint64, error) {
	req := wire.DependsRequest{View: viewName, Queries: make([][2]int, len(queries))}
	for i, q := range queries {
		req.Queries[i] = [2]int{q.From, q.To}
	}
	var resp wire.DependsResponse
	err := s.c.do(ctx, http.MethodPost, wire.DependsPath(s.tenant, s.scheme, s.name), req, &resp)
	if err != nil {
		return nil, 0, err
	}
	out := make([]fvl.Result, len(resp.Results))
	for i, res := range resp.Results {
		out[i] = fvl.Result{DependsOn: res.DependsOn, Err: res.Error.Err()}
	}
	return out, resp.Epoch, nil
}

// Query answers one set query against the named view, epoch-pinned —
// the remote mirror of fvl.Session.Query, answer types included.
func (s *Session) Query(ctx context.Context, viewName string, q fvl.QueryExpr) (*fvl.SetAnswer, uint64, error) {
	answers, epoch, err := s.QueryBatch(ctx, viewName, []fvl.QueryExpr{q})
	if err != nil {
		return nil, epoch, err
	}
	a := answers[0]
	if a.Err != nil {
		return nil, epoch, a.Err
	}
	return &a, epoch, nil
}

// QueryBatch answers a batch of set queries against one pinned step prefix
// of the remote session; answers[i] corresponds to qs[i]. Expressions
// travel in their canonical text form and are re-parsed server-side, so the
// batch admits exactly the language fvl.ParseQueryExpr accepts.
func (s *Session) QueryBatch(ctx context.Context, viewName string, qs []fvl.QueryExpr) ([]fvl.SetAnswer, uint64, error) {
	req := wire.QueryRequest{View: viewName, Exprs: make([]string, len(qs))}
	for i, q := range qs {
		if err := q.Err(); err != nil {
			return nil, 0, err
		}
		req.Exprs[i] = q.String()
	}
	var resp wire.QueryResponse
	err := s.c.do(ctx, http.MethodPost, wire.QueryPath(s.tenant, s.scheme, s.name), req, &resp)
	if err != nil {
		return nil, 0, err
	}
	out := make([]fvl.SetAnswer, len(resp.Answers))
	for i, a := range resp.Answers {
		items, err := wire.DecodeItems(a.Items)
		if err != nil {
			return nil, 0, fmt.Errorf("fvld: answer %d: %w", i, err)
		}
		pairs, err := wire.DecodePairs(a.Pairs)
		if err != nil {
			return nil, 0, fmt.Errorf("fvld: answer %d: %w", i, err)
		}
		out[i] = fvl.SetAnswer{Items: items, Pairs: pairs, Plan: a.Plan, Err: a.Error.Err()}
	}
	return out, resp.Epoch, nil
}

// WriteJournal downloads the session's step prefix in the journal format;
// replaying it against a local service (fvl.ResumeLive) rebuilds the
// session at the exported epoch.
func (s *Session) WriteJournal(ctx context.Context, w io.Writer) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		s.c.base+wire.JournalPath(s.tenant, s.scheme, s.name), nil)
	if err != nil {
		return err
	}
	resp, err := s.c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := responseError(resp); err != nil {
		return err
	}
	_, err = io.Copy(w, resp.Body)
	return err
}
