// Package s3http exposes the simulated S3 service over HTTP and provides
// the matching s3api.Backend client. The protocol mirrors the parts of the
// S3 REST API PushdownDB needs:
//
//	PUT    /{bucket}/{key}                 store an object
//	GET    /{bucket}/{key}                 fetch an object; honours Range
//	                                       (single "bytes=a-b" range, plus
//	                                       multiple ranges as the paper's
//	                                       Suggestion-1 extension)
//	POST   /{bucket}/{key}?select          run S3 Select (JSON body)
//	GET    /{bucket}?list&prefix=p         list keys
//	HEAD   /{bucket}/{key}                 object size
//	GET    /?describe                      the server's self-description
//	                                       (select capabilities + profile)
//
// S3 Select requests and responses use JSON rather than AWS's XML +
// event-stream framing; the framing overhead is represented in the
// cloudsim cost model instead of on this wire.
//
// Failed operations carry a structured error kind in the
// X-Pushdowndb-Error-Kind response header (s3api.Kind values), which the
// client folds back into *s3api.Error, so error classification survives
// the wire instead of being guessed from status codes.
package s3http

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"pushdowndb/internal/cloudsim"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/selectengine"
	"pushdowndb/internal/store"
)

// errorKindHeader carries the s3api.Kind of a failed operation.
const errorKindHeader = "X-Pushdowndb-Error-Kind"

// SelectBody is the JSON body of a select POST.
type SelectBody struct {
	SQL          string                    `json:"sql"`
	HasHeader    bool                      `json:"has_header"`
	Capabilities selectengine.Capabilities `json:"capabilities"`
	ScanRange    *selectengine.ScanRange   `json:"scan_range,omitempty"`
}

// SelectResponse is the JSON response of a select POST.
type SelectResponse struct {
	Columns []string           `json:"columns"`
	Rows    [][]string         `json:"rows"`
	Stats   selectengine.Stats `json:"stats"`
}

// DescribeResponse is the JSON self-description served at GET /?describe.
type DescribeResponse struct {
	Capabilities selectengine.Capabilities `json:"capabilities"`
	Profile      cloudsim.Profile          `json:"profile"`
}

// multiRangeResponse carries Suggestion-1 multi-range GET results.
type multiRangeResponse struct {
	Parts []string `json:"parts"` // base64
}

// Server serves a store over HTTP.
type Server struct {
	store   *store.Store
	caps    selectengine.Capabilities
	profile cloudsim.Profile
}

// ServerOption configures NewServer.
type ServerOption func(*Server)

// WithCapabilities sets the S3 Select extensions this server executes and
// advertises (all off by default, matching 2020 AWS). Select requests
// asking for extensions the server does not allow fail with an
// "unsupported" error kind.
func WithCapabilities(caps selectengine.Capabilities) ServerOption {
	return func(s *Server) { s.caps = caps }
}

// WithProfile sets the performance/pricing profile the server advertises
// (default cloudsim.S3Profile).
func WithProfile(p cloudsim.Profile) ServerOption {
	return func(s *Server) { s.profile = p }
}

// NewServer wraps st.
func NewServer(st *store.Store, opts ...ServerOption) *Server {
	s := &Server{store: st, profile: cloudsim.S3Profile()}
	for _, o := range opts {
		o(s)
	}
	return s
}

// httpError writes status plus the structured error kind header.
func httpError(w http.ResponseWriter, msg string, status int, kind s3api.Kind) {
	w.Header().Set(errorKindHeader, string(kind))
	http.Error(w, msg, status)
}

// storeError maps a store error to its HTTP rendering.
func storeError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, store.ErrNotFound):
		httpError(w, err.Error(), http.StatusNotFound, s3api.KindNotFound)
	case errors.Is(err, store.ErrInvalidRange):
		httpError(w, err.Error(), http.StatusRequestedRangeNotSatisfiable, s3api.KindInvalidRange)
	default:
		httpError(w, err.Error(), http.StatusInternalServerError, s3api.KindInternal)
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	path := strings.TrimPrefix(r.URL.Path, "/")
	slash := strings.IndexByte(path, '/')
	var bucket, key string
	if slash < 0 {
		bucket = path
	} else {
		bucket, key = path[:slash], path[slash+1:]
	}
	if bucket == "" {
		if r.Method == http.MethodGet && r.URL.Query().Has("describe") {
			s.describe(w)
			return
		}
		httpError(w, "missing bucket", http.StatusBadRequest, s3api.KindBadRequest)
		return
	}
	switch {
	case r.Method == http.MethodPut && key != "":
		s.put(w, r, bucket, key)
	case r.Method == http.MethodPost && key != "" && r.URL.Query().Has("select"):
		s.sel(w, r, bucket, key)
	case r.Method == http.MethodGet && key == "":
		s.list(w, r, bucket)
	case r.Method == http.MethodGet && key != "":
		s.get(w, r, bucket, key)
	case r.Method == http.MethodHead && key != "":
		s.head(w, bucket, key)
	default:
		httpError(w, "unsupported operation", http.StatusMethodNotAllowed, s3api.KindUnsupported)
	}
}

func (s *Server) describe(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(&DescribeResponse{Capabilities: s.caps, Profile: s.profile})
}

func (s *Server) put(w http.ResponseWriter, r *http.Request, bucket, key string) {
	data, err := io.ReadAll(r.Body)
	if err != nil {
		httpError(w, err.Error(), http.StatusBadRequest, s3api.KindBadRequest)
		return
	}
	s.store.Put(bucket, key, data)
	w.WriteHeader(http.StatusOK)
}

func (s *Server) head(w http.ResponseWriter, bucket, key string) {
	n, err := s.store.Size(bucket, key)
	if err != nil {
		// HEAD responses have no body; the kind header is the only detail.
		w.Header().Set(errorKindHeader, string(s3api.KindNotFound))
		w.WriteHeader(http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Length", strconv.FormatInt(n, 10))
	w.WriteHeader(http.StatusOK)
}

func (s *Server) list(w http.ResponseWriter, r *http.Request, bucket string) {
	keys := s.store.List(bucket, r.URL.Query().Get("prefix"))
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(keys)
}

// parseRanges parses "bytes=a-b" or "bytes=a-b,c-d,...".
func parseRanges(h string) ([][2]int64, error) {
	if !strings.HasPrefix(h, "bytes=") {
		return nil, fmt.Errorf("s3http: bad Range header %q", h)
	}
	var out [][2]int64
	for _, part := range strings.Split(strings.TrimPrefix(h, "bytes="), ",") {
		dash := strings.IndexByte(part, '-')
		if dash <= 0 {
			return nil, fmt.Errorf("s3http: bad range %q", part)
		}
		first, err1 := strconv.ParseInt(strings.TrimSpace(part[:dash]), 10, 64)
		last, err2 := strconv.ParseInt(strings.TrimSpace(part[dash+1:]), 10, 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("s3http: bad range %q", part)
		}
		out = append(out, [2]int64{first, last})
	}
	return out, nil
}

func (s *Server) get(w http.ResponseWriter, r *http.Request, bucket, key string) {
	rangeHeader := r.Header.Get("Range")
	if rangeHeader == "" {
		data, err := s.store.Get(bucket, key)
		if err != nil {
			storeError(w, err)
			return
		}
		_, _ = w.Write(data)
		return
	}
	ranges, err := parseRanges(rangeHeader)
	if err != nil {
		httpError(w, err.Error(), http.StatusBadRequest, s3api.KindBadRequest)
		return
	}
	if len(ranges) == 1 {
		data, err := s.store.GetRange(bucket, key, ranges[0][0], ranges[0][1])
		if err != nil {
			storeError(w, err)
			return
		}
		w.WriteHeader(http.StatusPartialContent)
		_, _ = w.Write(data)
		return
	}
	// Suggestion-1 extension: multiple ranges in one request.
	parts, err := s.store.GetRanges(bucket, key, ranges)
	if err != nil {
		storeError(w, err)
		return
	}
	resp := multiRangeResponse{Parts: make([]string, len(parts))}
	for i, p := range parts {
		resp.Parts[i] = base64.StdEncoding.EncodeToString(p)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusPartialContent)
	_ = json.NewEncoder(w).Encode(&resp)
}

func (s *Server) sel(w http.ResponseWriter, r *http.Request, bucket, key string) {
	var body SelectBody
	// selectengine.MaxSQLBytes is 256 KiB; the rest of a request is small.
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&body); err != nil {
		httpError(w, err.Error(), http.StatusBadRequest, s3api.KindBadRequest)
		return
	}
	data, err := s.store.Get(bucket, key)
	if err != nil {
		storeError(w, err)
		return
	}
	// The server enforces its own capability set: requests may use at most
	// the extensions the server was started with.
	res, err := selectengine.Execute(data, selectengine.Request{
		SQL:          body.SQL,
		HasHeader:    body.HasHeader,
		Capabilities: body.Capabilities.Intersect(s.caps),
		ScanRange:    body.ScanRange,
	})
	if err != nil {
		kind := s3api.KindBadRequest
		if errors.Is(err, selectengine.ErrUnsupported) {
			kind = s3api.KindUnsupported
		}
		httpError(w, err.Error(), http.StatusBadRequest, kind)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(&SelectResponse{Columns: res.Columns, Rows: res.Rows, Stats: res.Stats})
}

// Client is the HTTP implementation of s3api.Backend. It is
// self-describing by asking the server: the first Capabilities or Profile
// call fetches GET /?describe and caches the answer (falling back to zero
// capabilities and cloudsim.S3Profile when the endpoint is unavailable).
type Client struct {
	base string
	hc   *http.Client

	mu        sync.Mutex
	described bool
	caps      selectengine.Capabilities
	profile   cloudsim.Profile
}

// NewClient returns a client for an s3http server at base (e.g.
// "http://127.0.0.1:9000").
func NewClient(base string, hc *http.Client) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Client{base: strings.TrimRight(base, "/"), hc: hc}
}

func (c *Client) url(bucket, key string) string {
	if key == "" {
		return c.base + "/" + bucket
	}
	return c.base + "/" + bucket + "/" + key
}

// kindFromResponse recovers the error kind: the wire header when present,
// else a status-code guess.
func kindFromResponse(resp *http.Response) s3api.Kind {
	if k := resp.Header.Get(errorKindHeader); k != "" {
		return s3api.Kind(k)
	}
	switch resp.StatusCode {
	case http.StatusNotFound:
		return s3api.KindNotFound
	case http.StatusRequestedRangeNotSatisfiable:
		return s3api.KindInvalidRange
	case http.StatusBadRequest:
		return s3api.KindBadRequest
	default:
		return s3api.KindInternal
	}
}

// do runs the request and returns the body, folding failures into
// structured *s3api.Error values.
func (c *Client) do(req *http.Request, op, bucket, key string, wantStatus ...int) ([]byte, error) {
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, s3api.NewError(op, bucket, key, s3api.KindInternal, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, s3api.NewError(op, bucket, key, s3api.KindInternal, err)
	}
	for _, s := range wantStatus {
		if resp.StatusCode == s {
			return body, nil
		}
	}
	return nil, s3api.NewError(op, bucket, key, kindFromResponse(resp),
		fmt.Errorf("s3http: %s %s: %s: %s", req.Method, req.URL, resp.Status, strings.TrimSpace(string(body))))
}

// Put stores an object (s3api.Putter).
func (c *Client) Put(ctx context.Context, bucket, key string, data []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, c.url(bucket, key), bytes.NewReader(data))
	if err != nil {
		return s3api.NewError("put", bucket, key, s3api.KindBadRequest, err)
	}
	_, err = c.do(req, "put", bucket, key, http.StatusOK)
	return err
}

// Get implements s3api.Backend.
func (c *Client) Get(ctx context.Context, bucket, key string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url(bucket, key), nil)
	if err != nil {
		return nil, s3api.NewError("get", bucket, key, s3api.KindBadRequest, err)
	}
	return c.do(req, "get", bucket, key, http.StatusOK)
}

// checkRange rejects ranges the HTTP Range header cannot even express
// (negative offsets, inverted bounds) before they hit the wire, with the
// same error kind the server would use.
func checkRange(op, bucket, key string, first, last int64) error {
	if first < 0 || last < first {
		return s3api.NewError(op, bucket, key, s3api.KindInvalidRange,
			fmt.Errorf("s3http: range [%d,%d] for %s/%s: %w", first, last, bucket, key, store.ErrInvalidRange))
	}
	return nil
}

// GetRange implements s3api.Backend.
func (c *Client) GetRange(ctx context.Context, bucket, key string, first, last int64) ([]byte, error) {
	if err := checkRange("get_range", bucket, key, first, last); err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url(bucket, key), nil)
	if err != nil {
		return nil, s3api.NewError("get_range", bucket, key, s3api.KindBadRequest, err)
	}
	req.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", first, last))
	return c.do(req, "get_range", bucket, key, http.StatusPartialContent)
}

// GetRanges implements s3api.Backend (Suggestion-1 extension).
func (c *Client) GetRanges(ctx context.Context, bucket, key string, ranges [][2]int64) ([][]byte, error) {
	if len(ranges) == 0 {
		// No Range header to send; a HEAD keeps the contract that a
		// missing object is KindNotFound even for an empty request.
		if _, err := c.Size(ctx, bucket, key); err != nil {
			kind := s3api.KindOf(err)
			if kind == "" {
				kind = s3api.KindInternal
			}
			return nil, s3api.NewError("get_ranges", bucket, key, kind, err)
		}
		return [][]byte{}, nil
	}
	for _, r := range ranges {
		if err := checkRange("get_ranges", bucket, key, r[0], r[1]); err != nil {
			return nil, err
		}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url(bucket, key), nil)
	if err != nil {
		return nil, s3api.NewError("get_ranges", bucket, key, s3api.KindBadRequest, err)
	}
	var sb strings.Builder
	sb.WriteString("bytes=")
	for i, r := range ranges {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%d-%d", r[0], r[1])
	}
	req.Header.Set("Range", sb.String())
	body, err := c.do(req, "get_ranges", bucket, key, http.StatusPartialContent)
	if err != nil {
		return nil, err
	}
	if len(ranges) == 1 {
		return [][]byte{body}, nil
	}
	var resp multiRangeResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, s3api.NewError("get_ranges", bucket, key, s3api.KindInternal,
			fmt.Errorf("s3http: decoding multi-range response: %w", err))
	}
	out := make([][]byte, len(resp.Parts))
	for i, p := range resp.Parts {
		out[i], err = base64.StdEncoding.DecodeString(p)
		if err != nil {
			return nil, s3api.NewError("get_ranges", bucket, key, s3api.KindInternal, err)
		}
	}
	return out, nil
}

// Select implements s3api.Backend.
func (c *Client) Select(ctx context.Context, bucket, key string, sreq selectengine.Request) (*selectengine.Result, error) {
	body, err := json.Marshal(&SelectBody{
		SQL:          sreq.SQL,
		HasHeader:    sreq.HasHeader,
		Capabilities: sreq.Capabilities,
		ScanRange:    sreq.ScanRange,
	})
	if err != nil {
		return nil, s3api.NewError("select", bucket, key, s3api.KindBadRequest, err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url(bucket, key)+"?select", bytes.NewReader(body))
	if err != nil {
		return nil, s3api.NewError("select", bucket, key, s3api.KindBadRequest, err)
	}
	req.Header.Set("Content-Type", "application/json")
	respBody, err := c.do(req, "select", bucket, key, http.StatusOK)
	if err != nil {
		return nil, err
	}
	var resp SelectResponse
	if err := json.Unmarshal(respBody, &resp); err != nil {
		return nil, s3api.NewError("select", bucket, key, s3api.KindInternal, err)
	}
	return &selectengine.Result{Columns: resp.Columns, Rows: resp.Rows, Stats: resp.Stats}, nil
}

// List implements s3api.Backend.
func (c *Client) List(ctx context.Context, bucket, prefix string) ([]string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url(bucket, "")+"?list&prefix="+prefix, nil)
	if err != nil {
		return nil, s3api.NewError("list", bucket, prefix, s3api.KindBadRequest, err)
	}
	body, err := c.do(req, "list", bucket, prefix, http.StatusOK)
	if err != nil {
		return nil, err
	}
	var keys []string
	if err := json.Unmarshal(body, &keys); err != nil {
		return nil, s3api.NewError("list", bucket, prefix, s3api.KindInternal, err)
	}
	return keys, nil
}

// Size implements s3api.Backend.
func (c *Client) Size(ctx context.Context, bucket, key string) (int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodHead, c.url(bucket, key), nil)
	if err != nil {
		return 0, s3api.NewError("size", bucket, key, s3api.KindBadRequest, err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, s3api.NewError("size", bucket, key, s3api.KindInternal, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, s3api.NewError("size", bucket, key, kindFromResponse(resp),
			fmt.Errorf("s3http: HEAD %s/%s: %s", bucket, key, resp.Status))
	}
	n, err := strconv.ParseInt(resp.Header.Get("Content-Length"), 10, 64)
	if err != nil {
		return 0, s3api.NewError("size", bucket, key, s3api.KindInternal, err)
	}
	return n, nil
}

// describeTimeout bounds the self-description probe so a hung server
// cannot stall Capabilities/Profile (which have no context parameter).
const describeTimeout = 5 * time.Second

// describeOnce fetches the server's self-description, caching the result.
// Only a *successful* fetch (including a non-200 "endpoint absent"
// answer) is cached: a transport failure — server restarting, connection
// refused — leaves described unset so the next call retries instead of
// pinning zero capabilities for the life of the process.
func (c *Client) describeOnce() (selectengine.Capabilities, cloudsim.Profile) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.described {
		return c.caps, c.profile
	}
	fallback := cloudsim.S3Profile()
	// Capabilities()/Profile() are context-free interface methods, so the
	// lazy describe probe has no caller context to thread; the short local
	// timeout bounds it instead.
	//lint:ignore ctxflow no caller context exists beneath the context-free Capabilities/Profile interface methods
	ctx, cancel := context.WithTimeout(context.Background(), describeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/?describe", nil)
	if err != nil {
		return selectengine.Capabilities{}, fallback
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		// Transport failure: answer with defaults but retry next time.
		return selectengine.Capabilities{}, fallback
	}
	defer resp.Body.Close()
	c.described = true
	c.profile = fallback
	if resp.StatusCode != http.StatusOK {
		return c.caps, c.profile // server without the endpoint
	}
	var d DescribeResponse
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		return c.caps, c.profile
	}
	c.caps = d.Capabilities
	if d.Profile.Defined() {
		c.profile = d.Profile
	}
	return c.caps, c.profile
}

// Capabilities implements s3api.Backend, asking the server.
func (c *Client) Capabilities() selectengine.Capabilities {
	caps, _ := c.describeOnce()
	return caps
}

// Profile implements s3api.Backend, asking the server.
func (c *Client) Profile() s3api.Profile {
	_, profile := c.describeOnce()
	return profile
}
