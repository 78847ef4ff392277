// Package server is pushdownd's long-lived query front end: an HTTP/JSON
// server multiplexing concurrent clients over one shared engine.DB, its
// result cache and its cost meter. The production concerns live here, not
// in the engine: connection admission with a bounded wait queue, per-tenant
// concurrency lanes and simulated-dollar quotas billed from the cloudsim
// ledger, per-request deadlines wired into QueryContext cancellation,
// graceful drain on shutdown, and a structured audit log fed by the
// engine's query hook. The Go client in client.go is the same one the
// tests, the harness figure and the CLI use.
package server

import (
	"errors"
	"fmt"
	"net/http"

	"pushdowndb/internal/cloudsim"
	"pushdowndb/internal/rescache"
	"pushdowndb/internal/scanshare"
)

// ErrorKind classifies a server rejection so clients can branch without
// parsing message strings — the same idea as s3api.Kind one layer up.
type ErrorKind string

const (
	// KindBadRequest: malformed request body, unparsable SQL, or a query
	// against data that does not exist.
	KindBadRequest ErrorKind = "bad_request"
	// KindOverloaded: admission control turned the request away — the wait
	// queue is full or the tenant's concurrency lane is.
	KindOverloaded ErrorKind = "overloaded"
	// KindOverQuota: the tenant spent its simulated-dollar budget.
	KindOverQuota ErrorKind = "over_quota"
	// KindRateLimited: the tenant exceeded its request rate over the
	// rolling window. Distinct from KindOverloaded (a capacity problem) so
	// clients can back off by the window rather than retrying immediately.
	KindRateLimited ErrorKind = "rate_limited"
	// KindTimeout: the per-request deadline cut the query.
	KindTimeout ErrorKind = "timeout"
	// KindCanceled: the client went away mid-query.
	KindCanceled ErrorKind = "canceled"
	// KindShuttingDown: the server is draining and takes no new queries.
	KindShuttingDown ErrorKind = "shutting_down"
	// KindInternal: everything else.
	KindInternal ErrorKind = "internal"
)

// Error is the structured error the server returns and the client
// reconstructs; Kind survives the wire intact.
type Error struct {
	Kind    ErrorKind `json:"kind"`
	Message string    `json:"message"`
}

// Error implements error.
func (e *Error) Error() string { return fmt.Sprintf("pushdownd: %s: %s", e.Kind, e.Message) }

// KindOf returns the ErrorKind of err when it is (or wraps) a server
// *Error, and "" otherwise.
func KindOf(err error) ErrorKind {
	var se *Error
	if errors.As(err, &se) {
		return se.Kind
	}
	return ""
}

// httpStatus maps an error kind onto the HTTP status line; the JSON body
// remains the source of truth.
func httpStatus(k ErrorKind) int {
	switch k {
	case KindBadRequest:
		return http.StatusBadRequest
	case KindOverQuota, KindOverloaded, KindRateLimited:
		return http.StatusTooManyRequests
	case KindShuttingDown:
		return http.StatusServiceUnavailable
	case KindTimeout:
		return http.StatusGatewayTimeout
	case KindCanceled:
		return 499 // client closed request (nginx convention)
	default:
		return http.StatusInternalServerError
	}
}

// queryRequest is the POST /query body.
type queryRequest struct {
	SQL string `json:"sql"`
	// Tenant attributes the query for concurrency lanes, quotas and the
	// audit log; empty means the server's default tenant.
	Tenant string `json:"tenant,omitempty"`
	// RequestID correlates this query across the response, the audit log
	// and GET /debug/trace; the server generates one when omitted.
	RequestID string `json:"request_id,omitempty"`
}

// queryResponse is the success body of POST /query.
type queryResponse struct {
	Columns    []string               `json:"columns"`
	Rows       wireRows               `json:"rows"`
	RuntimeSec float64                `json:"runtime_sec"`
	Cost       cloudsim.CostBreakdown `json:"cost"`
	Requests   int64                  `json:"requests"`
	CacheHits  int64                  `json:"cache_hits"`
	Tenant     string                 `json:"tenant"`
	RequestID  string                 `json:"request_id"`
}

// errorResponse is the body of every non-2xx reply.
type errorResponse struct {
	Err Error `json:"error"`
}

// TenantStats is one tenant's slice of GET /stats.
type TenantStats struct {
	Queries    int64                  `json:"queries"`
	Errors     int64                  `json:"errors"`
	RuntimeSec float64                `json:"runtime_sec"`
	Cost       cloudsim.CostBreakdown `json:"cost"`
	TotalUSD   float64                `json:"total_usd"`
	BudgetUSD  float64                `json:"budget_usd"` // 0 = unlimited
	InFlight   int64                  `json:"in_flight"`
}

// CacheStats is the shared result cache's slice of GET /stats.
type CacheStats struct {
	rescache.Stats
	HitRate float64 `json:"hit_rate"`
}

// ShareStats is the scan-sharing coordinator's slice of GET /stats:
// how many Selects were coalesced into shared passes, how many sharers a
// shared pass carries on average, and the scan bytes those passes saved.
type ShareStats struct {
	scanshare.Stats
	AvgSharersPerPass float64 `json:"avg_sharers_per_pass"`
}

// Stats is the GET /stats body: what the shared process knows about
// itself — admission counters, per-tenant bills, and the result cache all
// tenants share.
type Stats struct {
	UptimeSec float64 `json:"uptime_sec"`
	InFlight  int64   `json:"in_flight"`
	Queued    int64   `json:"queued"`
	// MaxClients and QueueCapacity are the admission limits the InFlight
	// and Queued readings run against: InFlight saturates at MaxClients,
	// and arrivals past QueueCapacity queued are rejected.
	MaxClients    int64                  `json:"max_clients"`
	QueueCapacity int64                  `json:"queue_capacity"`
	Accepted      int64                  `json:"accepted"`
	Rejected      map[ErrorKind]int64    `json:"rejected"`
	Tenants       map[string]TenantStats `json:"tenants"`
	Cache         *CacheStats            `json:"cache,omitempty"`
	ScanShare     *ShareStats            `json:"scan_share,omitempty"`
	Draining      bool                   `json:"draining"`
}

// healthResponse is the GET /healthz body.
type healthResponse struct {
	Status   string `json:"status"` // "ok" or "draining"
	InFlight int64  `json:"in_flight"`
}
