// Package client is the remote counterpart of package fvl: a Service-shaped
// API over an fvld server. A Client addresses one server; OpenSession hands
// back a Session whose Query/DependsOnBatch/Apply methods mirror
// fvl.Session's signatures — same expression types, same answer types, same
// epoch-pinning contract — so code written against the in-process surface
// ports to the remote one by swapping the constructor.
//
// Error classification crosses the wire: a remote failure that belongs to
// the fvl error taxonomy round-trips its sentinel, so
// errors.Is(err, fvl.ErrUnknownItem) works on a remote answer exactly as it
// does locally. Admission refusals surface as *ThrottledError (wrapping
// ErrThrottled) carrying the server's Retry-After; drain refusals as
// *DrainingError (wrapping ErrDraining). A drain writes nothing: the server
// syncs each step of a durable session before acking it, so after a restart
// OpenSession resumes the session at its acked epoch.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/fvl"
	"repro/internal/service/wire"
)

// ErrThrottled marks a request refused by the server's per-tenant admission
// control (HTTP 429). The concrete error is a *ThrottledError.
var ErrThrottled = errors.New("fvld: admission bound exceeded")

// ErrDraining marks a write refused because the server is draining
// (HTTP 503). The concrete error is a *DrainingError.
var ErrDraining = errors.New("fvld: server draining")

// ThrottledError reports an admission refusal with the server's suggested
// retry delay.
type ThrottledError struct {
	RetryAfter time.Duration
}

func (e *ThrottledError) Error() string {
	return fmt.Sprintf("fvld: admission bound exceeded (retry after %v)", e.RetryAfter)
}
func (e *ThrottledError) Unwrap() error { return ErrThrottled }

// DrainingError reports a write refused during a drain.
type DrainingError struct {
	RetryAfter time.Duration
}

func (e *DrainingError) Error() string {
	return fmt.Sprintf("fvld: server draining, write refused (retry after %v)", e.RetryAfter)
}
func (e *DrainingError) Unwrap() error { return ErrDraining }

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the transport (default http.DefaultClient).
func WithHTTPClient(h *http.Client) Option {
	return func(c *Client) { c.http = h }
}

// Client addresses one fvld server. It is stateless and safe for
// concurrent use.
type Client struct {
	base string
	http *http.Client
}

// New returns a Client for the server at baseURL (e.g.
// "http://127.0.0.1:8080").
func New(baseURL string, opts ...Option) *Client {
	c := &Client{base: strings.TrimRight(baseURL, "/"), http: http.DefaultClient}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// ---------------------------------------------------------------------------
// HTTP plumbing.
// ---------------------------------------------------------------------------

// do issues one request and decodes the response into out (unless nil).
// body may be nil, an io.Reader (sent as an octet stream), or any other
// value (marshaled as JSON).
func (c *Client) do(ctx context.Context, method, path string, body any, out any) error {
	var reader io.Reader
	contentType := ""
	switch b := body.(type) {
	case nil:
	case io.Reader:
		reader = b
		contentType = "application/octet-stream"
	default:
		data, err := json.Marshal(b)
		if err != nil {
			return err
		}
		reader = bytes.NewReader(data)
		contentType = "application/json"
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, reader)
	if err != nil {
		return err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := responseError(resp); err != nil {
		return err
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// responseError maps a non-2xx response to a Go error, consuming the body.
func responseError(resp *http.Response) error {
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		return nil
	}
	retryAfter := retryAfterOf(resp)
	switch resp.StatusCode {
	case http.StatusTooManyRequests:
		io.Copy(io.Discard, resp.Body)
		return &ThrottledError{RetryAfter: retryAfter}
	case http.StatusServiceUnavailable:
		io.Copy(io.Discard, resp.Body)
		return &DrainingError{RetryAfter: retryAfter}
	}
	var werr wire.Error
	if derr := json.NewDecoder(resp.Body).Decode(&werr); derr == nil && werr.Message != "" {
		return werr.Err()
	}
	return fmt.Errorf("fvld: %s", resp.Status)
}

// jsonDecode keeps session.go free of a direct encoding/json import.
func jsonDecode(r io.Reader, v any) error { return json.NewDecoder(r).Decode(v) }

func retryAfterOf(resp *http.Response) time.Duration {
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs < 0 {
		secs = wire.RetryAfterSeconds
	}
	return time.Duration(secs) * time.Second
}

// ---------------------------------------------------------------------------
// Admin and tenants.
// ---------------------------------------------------------------------------

// Health checks the server is answering.
func (c *Client) Health(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+wire.PathHealth, nil)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("fvld: health: %s", resp.Status)
	}
	return nil
}

// Metrics scrapes the server's Prometheus text endpoint.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+wire.PathMetrics, nil)
	if err != nil {
		return "", err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if err := responseError(resp); err != nil {
		return "", err
	}
	data, err := io.ReadAll(resp.Body)
	return string(data), err
}

// Drain puts the server into draining mode and returns once in-flight
// writes and queries completed. Every acked step of a durable session is
// already on disk, so a drain writes nothing.
func (c *Client) Drain(ctx context.Context) error {
	return c.do(ctx, http.MethodPost, wire.PathDrain, nil, nil)
}

// Resume takes the server out of draining mode.
func (c *Client) Resume(ctx context.Context) error {
	return c.do(ctx, http.MethodPost, wire.PathResume, nil, nil)
}

// Tenants lists the server's tenants.
func (c *Client) Tenants(ctx context.Context) ([]string, error) {
	var list wire.TenantList
	if err := c.do(ctx, http.MethodGet, wire.PathTenants, nil, &list); err != nil {
		return nil, err
	}
	return list.Tenants, nil
}

// CreateTenant registers a tenant (idempotent).
func (c *Client) CreateTenant(ctx context.Context, tenant string) error {
	return c.do(ctx, http.MethodPut, wire.TenantPath(tenant), nil, nil)
}

// SchemeInfo describes one registered scheme.
type SchemeInfo struct {
	Name     string
	Views    []string
	Basic    bool
	Sessions []string
}

func schemeInfoOf(w wire.SchemeInfo) SchemeInfo {
	return SchemeInfo{Name: w.Name, Views: w.Views, Basic: w.Basic, Sessions: w.Sessions}
}

// RegisterScheme uploads a labelstore snapshot (the bytes fvl's Snapshot
// methods write) as a named scheme of the tenant.
func (c *Client) RegisterScheme(ctx context.Context, tenant, scheme string, snapshot io.Reader) (SchemeInfo, error) {
	var info wire.SchemeInfo
	if err := c.do(ctx, http.MethodPut, wire.SchemePath(tenant, scheme), snapshot, &info); err != nil {
		return SchemeInfo{}, err
	}
	return schemeInfoOf(info), nil
}

// RegisterService snapshots an in-process fvl.Service and uploads it — the
// one-call path from "I labeled these views locally" to "the server is
// serving them".
func (c *Client) RegisterService(ctx context.Context, tenant, scheme string, svc *fvl.Service) (SchemeInfo, error) {
	var buf bytes.Buffer
	if err := svc.Snapshot(&buf); err != nil {
		return SchemeInfo{}, err
	}
	return c.RegisterScheme(ctx, tenant, scheme, &buf)
}

// Scheme fetches one scheme's description.
func (c *Client) Scheme(ctx context.Context, tenant, scheme string) (SchemeInfo, error) {
	var info wire.SchemeInfo
	if err := c.do(ctx, http.MethodGet, wire.SchemePath(tenant, scheme), nil, &info); err != nil {
		return SchemeInfo{}, err
	}
	return schemeInfoOf(info), nil
}

// Schemes lists a tenant's schemes.
func (c *Client) Schemes(ctx context.Context, tenant string) ([]SchemeInfo, error) {
	var list wire.SchemeList
	if err := c.do(ctx, http.MethodGet, wire.SchemesPath(tenant), nil, &list); err != nil {
		return nil, err
	}
	out := make([]SchemeInfo, len(list.Schemes))
	for i, info := range list.Schemes {
		out[i] = schemeInfoOf(info)
	}
	return out, nil
}

// OpenService downloads a scheme's snapshot and opens it as a local
// fvl.Service — the remote-to-in-process escape hatch for read-heavy
// callers that want to stop paying a round trip per query.
func (c *Client) OpenService(ctx context.Context, tenant, scheme string, opts ...fvl.Option) (*fvl.Service, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+wire.SnapshotPath(tenant, scheme), nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if err := responseError(resp); err != nil {
		return nil, err
	}
	return fvl.OpenSnapshot(resp.Body, opts...)
}

// ExplainQuery compiles (without executing) one expression against a view
// of the named scheme and returns the planner's access-path description.
func (c *Client) ExplainQuery(ctx context.Context, tenant, scheme, view string, q fvl.QueryExpr) (string, error) {
	if err := q.Err(); err != nil {
		return "", err
	}
	var resp wire.ExplainResponse
	err := c.do(ctx, http.MethodPost, wire.ExplainPath(tenant, scheme),
		wire.ExplainRequest{View: view, Expr: q.String()}, &resp)
	return resp.Plan, err
}
