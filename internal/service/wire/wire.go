// Package wire defines the fvld wire protocol: the URL space, the JSON
// request/response shapes and the error-kind taxonomy that lets errors.Is
// work across the network. It is the single source of truth shared by the
// server (internal/service) and the client (repro/fvl/client), so the two
// cannot drift.
//
// The protocol deliberately reuses the repo's two fuzz-hardened codecs as
// its binary wire formats instead of inventing new ones:
//
//   - scheme upload/download bodies are labelstore snapshots ("FVLSNAP\x02":
//     the specification and the view definitions, checksummed, validated on
//     load, and relabeled under an allocation budget funded by the body's
//     size);
//   - step-ingestion bodies are live step journals ("FVLJRNL\x01", canonical
//     bounded uvarint records) — the same bytes a journal file holds, written
//     by live.EncodeJournal and read by live.JournalReader, so the decoder
//     that survives FuzzJournalReplay is exactly the decoder facing the
//     network.
//
// Everything else is small JSON documents. Set answers inside them are
// delta-uvarint rows (rows.go), which JSON carries as base64 strings.
package wire

import (
	"errors"

	"repro/internal/faults"
)

// ---------------------------------------------------------------------------
// URL space.
// ---------------------------------------------------------------------------

// Paths of the fixed endpoints. Tenant-scoped paths are built with the
// helpers below; names must satisfy ValidName on both sides.
const (
	PathHealth  = "/healthz"
	PathMetrics = "/metrics"
	PathTenants = "/v1/tenants"
	PathDrain   = "/v1/admin/drain"
	PathResume  = "/v1/admin/resume"
)

// TenantPath returns /v1/tenants/{tenant}.
func TenantPath(tenant string) string { return PathTenants + "/" + tenant }

// SchemesPath returns the scheme collection of a tenant.
func SchemesPath(tenant string) string { return TenantPath(tenant) + "/schemes" }

// SchemePath returns one scheme resource.
func SchemePath(tenant, scheme string) string { return SchemesPath(tenant) + "/" + scheme }

// SnapshotPath returns the snapshot document of a scheme (labelstore bytes).
func SnapshotPath(tenant, scheme string) string { return SchemePath(tenant, scheme) + "/snapshot" }

// ExplainPath returns the compile-only query-plan endpoint of a scheme.
func ExplainPath(tenant, scheme string) string { return SchemePath(tenant, scheme) + "/explain" }

// SessionsPath returns the session collection of a scheme.
func SessionsPath(tenant, scheme string) string { return SchemePath(tenant, scheme) + "/sessions" }

// SessionPath returns one session resource.
func SessionPath(tenant, scheme, session string) string {
	return SessionsPath(tenant, scheme) + "/" + session
}

// StepsPath returns the streaming step-ingestion endpoint of a session.
func StepsPath(tenant, scheme, session string) string {
	return SessionPath(tenant, scheme, session) + "/steps"
}

// DependsPath returns the point-query (item-ID batch) endpoint of a session.
func DependsPath(tenant, scheme, session string) string {
	return SessionPath(tenant, scheme, session) + "/depends"
}

// QueryPath returns the set-query endpoint of a session.
func QueryPath(tenant, scheme, session string) string {
	return SessionPath(tenant, scheme, session) + "/query"
}

// JournalPath returns the journal export of a session (FVLJRNL bytes).
func JournalPath(tenant, scheme, session string) string {
	return SessionPath(tenant, scheme, session) + "/journal"
}

// ValidName reports whether a tenant, scheme or session name is usable in
// the URL space and as a directory component under the server's data dir:
// 1-64 characters from [A-Za-z0-9._-], not "." or "..", not starting with a
// dot (so a name can never traverse or hide inside the data directory).
func ValidName(name string) bool {
	if len(name) == 0 || len(name) > 64 || name[0] == '.' {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9':
		case c == '.' || c == '_' || c == '-':
		default:
			return false
		}
	}
	return true
}

// RetryAfterSeconds is the Retry-After value sent with 429 (admission bound
// exceeded) and 503 (draining) responses: both conditions clear on the order
// of the in-flight work completing, not minutes.
const RetryAfterSeconds = 1

// ---------------------------------------------------------------------------
// Error taxonomy over the wire.
// ---------------------------------------------------------------------------

// Error is a failure serialized across the boundary. Kind carries the fvl
// error-taxonomy sentinel (when the failure falls into a class), so a remote
// caller's errors.Is(err, fvl.ErrUnknownItem) works exactly like a local
// one's; Message is the human-readable chain.
type Error struct {
	Kind    string `json:"kind,omitempty"`
	Message string `json:"message"`
}

// kinds maps taxonomy sentinels to their wire names. Order matters only for
// classification of errors wrapping several sentinels (a torn journal also
// wraps corrupt-journal): the most specific comes first.
// implies lists sentinels whose wrap sites always attach a second, broader
// sentinel (faults documents torn-journal errors as also wrapping
// corrupt-journal). Err rebuilds the full set so remote errors.Is keeps the
// same implications as local ones.
var kinds = []struct {
	name string
	err  error
	also error
}{
	{name: "canceled", err: faults.ErrCanceled},
	{name: "unknown-view", err: faults.ErrUnknownView},
	{name: "foreign-label", err: faults.ErrForeignLabel},
	{name: "corrupt-snapshot", err: faults.ErrCorruptSnapshot},
	{name: "unsafe-view", err: faults.ErrUnsafeView},
	{name: "not-linear-recursive", err: faults.ErrNotLinearRecursive},
	{name: "hidden-item", err: faults.ErrHiddenItem},
	{name: "unknown-item", err: faults.ErrUnknownItem},
	{name: "torn-journal", err: faults.ErrTornJournal, also: faults.ErrCorruptJournal},
	{name: "corrupt-journal", err: faults.ErrCorruptJournal},
	{name: "corrupt-manifest", err: faults.ErrCorruptManifest},
	{name: "corrupt-checkpoint", err: faults.ErrCorruptCheckpoint},
	{name: "invalid-step", err: faults.ErrInvalidStep},
	{name: "invalid-query", err: faults.ErrInvalidQuery},
}

// ErrorOf serializes an error, classifying it against the taxonomy. A nil
// error serializes to nil.
func ErrorOf(err error) *Error {
	if err == nil {
		return nil
	}
	w := &Error{Message: err.Error()}
	for _, k := range kinds {
		if errors.Is(err, k.err) {
			w.Kind = k.name
			break
		}
	}
	return w
}

// Err rebuilds a Go error from the wire form: the message is preserved
// verbatim and the taxonomy sentinel (if any) is attached via Unwrap, so
// errors.Is classifies remote failures like local ones. A nil receiver
// yields nil.
func (e *Error) Err() error {
	if e == nil {
		return nil
	}
	for _, k := range kinds {
		if e.Kind == k.name {
			kind := k.err
			if k.also != nil {
				kind = errors.Join(k.err, k.also)
			}
			return &remoteError{msg: e.Message, kind: kind}
		}
	}
	// No kind: the remote side already judged this failure unclassifiable,
	// so the rebuilt error deliberately unwraps to nothing.
	return &remoteError{msg: e.Message}
}

// remoteError carries a remote failure's message with its taxonomy sentinel
// attached for errors.Is, without re-stringing the sentinel into the
// message (the server already formatted the full chain).
type remoteError struct {
	msg  string
	kind error
}

func (e *remoteError) Error() string { return e.msg }
func (e *remoteError) Unwrap() error { return e.kind }

// ---------------------------------------------------------------------------
// JSON documents.
// ---------------------------------------------------------------------------

// TenantList answers GET /v1/tenants.
type TenantList struct {
	Tenants []string `json:"tenants"`
}

// SchemeInfo describes one registered scheme.
type SchemeInfo struct {
	Name     string   `json:"name"`
	Views    []string `json:"views"`
	Basic    bool     `json:"basic,omitempty"`
	Sessions []string `json:"sessions,omitempty"`
}

// SchemeList answers GET /v1/tenants/{t}/schemes.
type SchemeList struct {
	Schemes []SchemeInfo `json:"schemes"`
}

// SessionStatus answers session PUT/GET: where one live run stands.
type SessionStatus struct {
	Tenant   string `json:"tenant"`
	Scheme   string `json:"scheme"`
	Session  string `json:"session"`
	Epoch    uint64 `json:"epoch"`
	Items    int    `json:"items"`
	Complete bool   `json:"complete"`
	Durable  bool   `json:"durable,omitempty"`
	// Resumed reports that the PUT re-attached an existing session instead
	// of creating one (idempotent create, or durable recovery).
	Resumed bool `json:"resumed,omitempty"`
}

// StepsResult answers POST .../steps: how much of the streamed journal was
// applied and acknowledged. On failure, Applied/Epoch still report the acked
// prefix — steps the server has made visible (and, for durable sessions,
// journaled) before the failure; the client must not replay them.
type StepsResult struct {
	Applied int    `json:"applied"`
	Epoch   uint64 `json:"epoch"`
	Items   int    `json:"items"`
	Error   *Error `json:"error,omitempty"`
}

// DependsRequest asks a batch of item-ID point queries under one view.
type DependsRequest struct {
	View    string   `json:"view"`
	Queries [][2]int `json:"queries"` // [from, to] item-ID pairs
}

// DependsResult is one point-query answer.
type DependsResult struct {
	DependsOn bool   `json:"depends_on"`
	Error     *Error `json:"error,omitempty"`
}

// DependsResponse answers POST .../depends. Epoch is the step prefix the
// whole batch was pinned to.
type DependsResponse struct {
	Epoch   uint64          `json:"epoch"`
	Results []DependsResult `json:"results"`
}

// QueryRequest asks a batch of set queries (canonical IR text) under one
// primary view.
type QueryRequest struct {
	View  string   `json:"view"`
	Exprs []string `json:"exprs"`
}

// SetAnswer is one set-query answer: an item set as one row (EncodeItems),
// a pair set as one row per source (EncodePairs).
type SetAnswer struct {
	Items []byte    `json:"items,omitempty"`
	Pairs []PairRow `json:"pairs,omitempty"`
	Plan  string    `json:"plan,omitempty"`
	Error *Error    `json:"error,omitempty"`
}

// QueryResponse answers POST .../query. Epoch is the step prefix every
// answer of the batch is consistent with.
type QueryResponse struct {
	Epoch   uint64      `json:"epoch"`
	Answers []SetAnswer `json:"answers"`
}

// ExplainRequest asks for the planner's access paths, compile-only.
type ExplainRequest struct {
	View string `json:"view"`
	Expr string `json:"expr"`
}

// ExplainResponse answers POST .../explain.
type ExplainResponse struct {
	Plan string `json:"plan"`
}

// DrainResponse answers POST /v1/admin/drain, once in-flight writes and
// queries completed, and POST /v1/admin/resume.
type DrainResponse struct {
	Draining bool `json:"draining"`
}

// Classify maps a service-layer error to its HTTP-ish nature for status
// selection; it lives here so server and client agree on what each status
// implies. The returned string is one of "bad-request" (malformed input:
// corrupt snapshot or journal, invalid query text), "unprocessable"
// (well-formed input the specification rejects: invalid step, unknown
// item/view on a body field) or "internal".
func Classify(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, faults.ErrCorruptSnapshot), errors.Is(err, faults.ErrCorruptJournal),
		errors.Is(err, faults.ErrInvalidQuery):
		return "bad-request"
	case errors.Is(err, faults.ErrInvalidStep), errors.Is(err, faults.ErrUnknownItem),
		errors.Is(err, faults.ErrHiddenItem), errors.Is(err, faults.ErrUnknownView),
		errors.Is(err, faults.ErrForeignLabel):
		return "unprocessable"
	default:
		return "internal"
	}
}
