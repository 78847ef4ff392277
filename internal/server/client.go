package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"pushdowndb/internal/cloudsim"
	"pushdowndb/internal/engine"
	"pushdowndb/internal/obs"
)

// Client is the Go client for a pushdownd server; the tests, the harness
// figure, the example and the CLI all drive the server through it. The
// zero-value fields get defaults: a nil HTTPClient uses
// http.DefaultClient, an empty Tenant lets the server attribute the
// query to its default tenant.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8123".
	BaseURL string
	// Tenant attributes this client's queries for admission lanes,
	// quotas and the audit log.
	Tenant string
	// HTTPClient overrides the transport (timeouts belong to the passed
	// context, not here).
	HTTPClient *http.Client
}

// NewClient returns a client for the server at baseURL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

// Result is one query's answer plus the server-side meter readings for it.
type Result struct {
	// Relation holds the rows, decoded to the exact values the engine
	// produced (empty, not nil, for DDL statements).
	Relation *engine.Relation
	// RuntimeSec is the query's virtual runtime on the server.
	RuntimeSec float64
	// Cost is the query's simulated dollar cost, as billed to the tenant.
	Cost cloudsim.CostBreakdown
	// Requests is how many storage requests the query issued.
	Requests int64
	// CacheHits is how many select responses the shared result cache
	// served without touching storage.
	CacheHits int64
	// Tenant is the tenant the server billed.
	Tenant string
	// RequestID identifies this query in the audit log and at
	// GET /debug/trace/<id> (client-chosen via QueryID, else
	// server-generated).
	RequestID string
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// Query runs one SQL statement on the server. Server-side rejections and
// failures come back as *Error with the Kind intact; transport failures
// come back as-is.
func (c *Client) Query(ctx context.Context, sql string) (*Result, error) {
	return c.QueryID(ctx, sql, "")
}

// QueryID is Query with a client-chosen request id, for callers that want
// to correlate the query with their own logs and later fetch its trace;
// an empty id lets the server generate one (returned in Result.RequestID).
func (c *Client) QueryID(ctx context.Context, sql, requestID string) (*Result, error) {
	body, err := json.Marshal(queryRequest{SQL: sql, Tenant: c.Tenant, RequestID: requestID})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/query", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	var qr queryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		return nil, fmt.Errorf("server: bad query response: %w", err)
	}
	return &Result{
		Relation:   &engine.Relation{Cols: qr.Columns, Rows: qr.Rows},
		RuntimeSec: qr.RuntimeSec,
		Cost:       qr.Cost,
		Requests:   qr.Requests,
		CacheHits:  qr.CacheHits,
		Tenant:     qr.Tenant,
		RequestID:  qr.RequestID,
	}, nil
}

// Trace fetches a completed query's span tree by request id from the
// server's retained-trace ring, decoded from the JSON the server serves at
// GET /debug/trace/<id>.
func (c *Client) Trace(ctx context.Context, requestID string) (*obs.TraceData, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.BaseURL+"/debug/trace/"+requestID, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	var d obs.TraceData
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		return nil, fmt.Errorf("server: bad trace response: %w", err)
	}
	return &d, nil
}

// Stats fetches the server's shared-state snapshot.
func (c *Client) Stats(ctx context.Context) (*Stats, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/stats", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("server: bad stats response: %w", err)
	}
	return &st, nil
}

// Health probes /healthz; nil means the server is up and accepting.
func (c *Client) Health(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var h healthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return fmt.Errorf("server: bad health response: %w", err)
	}
	if h.Status != "ok" {
		return &Error{Kind: KindShuttingDown, Message: "server reports " + h.Status}
	}
	return nil
}

// decodeError reconstructs the server's structured error from a non-200
// reply, falling back to the raw body when it isn't ours.
func decodeError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	var er errorResponse
	if err := json.Unmarshal(body, &er); err == nil && er.Err.Kind != "" {
		return &er.Err
	}
	return &Error{
		Kind:    KindInternal,
		Message: fmt.Sprintf("http %d: %s", resp.StatusCode, strings.TrimSpace(string(body))),
	}
}
