// Package s3http is the simulated S3 wire: Server carries any s3api.Backend
// over HTTP — it executes nothing itself — and Client is the matching
// s3api.Backend. The protocol mirrors the parts of the S3 REST API
// PushdownDB needs:
//
//	PUT    /{bucket}/{key}                 store an object
//	GET    /{bucket}/{key}                 fetch an object; honours Range
//	                                       (single "bytes=a-b" range, plus
//	                                       multiple ranges as the paper's
//	                                       Suggestion-1 extension)
//	POST   /{bucket}/{key}?select          run S3 Select (JSON request)
//	GET    /{bucket}?list&prefix=p         list keys
//	HEAD   /{bucket}/{key}                 object size
//	GET    /?describe                      the server's self-description
//	                                       (select capabilities + profile)
//
// A select response is one JSON line (SelectHeader), then the CSV body byte
// for byte. JSON stands in for AWS's XML + event-stream framing, whose
// overhead the cloudsim cost model represents instead of this wire.
//
// Failed operations carry a structured error kind in the
// X-Pushdowndb-Error-Kind response header (s3api.Kind values), which the
// client folds back into *s3api.Error, so error classification survives
// the wire instead of being guessed from status codes. Path segments are
// percent-escaped, so any key the backend holds can be named; no object,
// request or response body may exceed MaxObjectBytes.
package s3http

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"pushdowndb/internal/cloudsim"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/selectengine"
)

// errorKindHeader carries the s3api.Kind of a failed operation.
const errorKindHeader = "X-Pushdowndb-Error-Kind"

// MaxObjectBytes bounds every body on this wire: the server refuses a PUT
// declared or found larger, the client a response.
const MaxObjectBytes = 1 << 30

// SelectBody is the JSON body of a select POST: selectengine.Request's
// exported fields (TestSelectBodyCarriesEveryField), copied at each end. Only
// text crosses the wire; the server parses it once per request.
type SelectBody struct {
	SQL          string                    `json:"sql"`
	HasHeader    bool                      `json:"has_header"`
	Capabilities selectengine.Capabilities `json:"capabilities"`
	ScanRange    *selectengine.ScanRange   `json:"scan_range,omitempty"`
}

// SelectHeader is the JSON line opening a select response; the CSV body
// follows it.
type SelectHeader struct {
	Columns  []string           `json:"columns"`
	Stats    selectengine.Stats `json:"stats"`
	Columnar bool               `json:"columnar,omitempty"`
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

// Server is the wire adapter in front of a Backend: every handler decodes
// its request, calls b, and encodes the answer or b's error kind.
type Server struct{ b s3api.Backend }

// NewServer serves b. PUT needs b to be an s3api.Putter as well.
func NewServer(b s3api.Backend) *Server { return &Server{b: b} }

// httpError writes status plus the structured error kind header.
func httpError(w http.ResponseWriter, msg string, status int, kind s3api.Kind) {
	w.Header().Set(errorKindHeader, string(kind))
	http.Error(w, msg, status)
}

// backendError renders a Backend's error: its kind in the header, the
// matching status. (A HEAD answer has no body; the header is the detail.)
func backendError(w http.ResponseWriter, err error) {
	kind, status := s3api.KindOf(err), http.StatusInternalServerError
	switch kind {
	case s3api.KindNotFound:
		status = http.StatusNotFound
	case s3api.KindInvalidRange:
		status = http.StatusRequestedRangeNotSatisfiable
	case s3api.KindBadRequest, s3api.KindUnsupported:
		status = http.StatusBadRequest
	case "":
		kind = s3api.KindInternal
	}
	httpError(w, err.Error(), status, kind)
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
		s.head(w, r, bucket, key)
	default:
		httpError(w, "unsupported operation", http.StatusMethodNotAllowed, s3api.KindUnsupported)
	}
}

func (s *Server) describe(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(&DescribeResponse{Capabilities: s.b.Capabilities(), Profile: s.b.Profile()})
}

func (s *Server) put(w http.ResponseWriter, r *http.Request, bucket, key string) {
	p, ok := s.b.(s3api.Putter)
	if !ok {
		httpError(w, "backend is read-only", http.StatusMethodNotAllowed, s3api.KindUnsupported)
		return
	}
	if r.ContentLength > MaxObjectBytes {
		httpError(w, fmt.Sprintf("object over %d bytes", MaxObjectBytes), http.StatusRequestEntityTooLarge, s3api.KindBadRequest)
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxObjectBytes))
	if err != nil {
		httpError(w, err.Error(), http.StatusBadRequest, s3api.KindBadRequest)
		return
	}
	if err := p.Put(r.Context(), bucket, key, data); err != nil {
		backendError(w, err)
	}
}

func (s *Server) head(w http.ResponseWriter, r *http.Request, bucket, key string) {
	n, err := s.b.Size(r.Context(), bucket, key)
	if err != nil {
		backendError(w, err)
		return
	}
	w.Header().Set("Content-Length", strconv.FormatInt(n, 10))
}

func (s *Server) list(w http.ResponseWriter, r *http.Request, bucket string) {
	keys, err := s.b.List(r.Context(), bucket, r.URL.Query().Get("prefix"))
	if err != nil {
		backendError(w, err)
		return
	}
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
		data, err := s.b.Get(r.Context(), bucket, key)
		if err != nil {
			backendError(w, err)
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
	// More than one range is the Suggestion-1 extension.
	parts, err := s.b.GetRanges(r.Context(), bucket, key, ranges)
	if err != nil {
		backendError(w, err)
		return
	}
	if len(parts) == 1 {
		w.WriteHeader(http.StatusPartialContent)
		_, _ = w.Write(parts[0])
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
	res, err := s.b.Select(r.Context(), bucket, key, selectengine.Request{
		SQL: body.SQL, HasHeader: body.HasHeader, Capabilities: body.Capabilities, ScanRange: body.ScanRange})
	if err != nil {
		backendError(w, err)
		return
	}
	w.Header().Set("Content-Type", "text/csv")
	_ = json.NewEncoder(w).Encode(&SelectHeader{Columns: res.Columns, Stats: res.Stats, Columnar: res.Columnar})
	_, _ = w.Write(res.Body)
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

// url names an object (or, with key "", a bucket), escaping each path
// segment so reserved characters in a key ('?', '#', '%', ' ') reach the
// server as the key's bytes.
func (c *Client) url(bucket, key string) string {
	u := c.base + "/" + url.PathEscape(bucket)
	if key == "" {
		return u
	}
	for _, seg := range strings.Split(key, "/") {
		u += "/" + url.PathEscape(seg)
	}
	return u
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

var errTooLarge = fmt.Errorf("s3http: response over %d bytes", MaxObjectBytes)

// do runs one request — rng, when set, is its Range header — and returns
// the body of a response with status want, folding every failure into a
// structured *s3api.Error about (op, bucket, key).
func (c *Client) do(ctx context.Context, op, bucket, key, method, target, rng string, reqBody []byte, want int) ([]byte, error) {
	fail := func(kind s3api.Kind, err error) ([]byte, error) {
		return nil, s3api.NewError(op, bucket, key, kind, err)
	}
	req, err := http.NewRequestWithContext(ctx, method, target, bytes.NewReader(reqBody))
	if err != nil {
		return fail(s3api.KindBadRequest, err)
	}
	if rng != "" {
		req.Header.Set("Range", rng)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fail(s3api.KindInternal, err)
	}
	defer resp.Body.Close()
	if resp.ContentLength > MaxObjectBytes {
		return fail(s3api.KindInternal, errTooLarge)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, MaxObjectBytes+1))
	if err == nil && len(body) > MaxObjectBytes {
		err = errTooLarge
	}
	if err != nil {
		return fail(s3api.KindInternal, err)
	}
	if resp.StatusCode != want {
		return fail(kindFromResponse(resp),
			fmt.Errorf("s3http: %s %s: %s: %s", method, target, resp.Status, strings.TrimSpace(string(body))))
	}
	return body, nil
}

// Put stores an object (s3api.Putter).
func (c *Client) Put(ctx context.Context, bucket, key string, data []byte) error {
	_, err := c.do(ctx, "put", bucket, key, http.MethodPut, c.url(bucket, key), "", data, http.StatusOK)
	return err
}

// Get implements s3api.Backend.
func (c *Client) Get(ctx context.Context, bucket, key string) ([]byte, error) {
	return c.do(ctx, "get", bucket, key, http.MethodGet, c.url(bucket, key), "", nil, http.StatusOK)
}

// ranged is a GET with a Range header of one or more inclusive ranges. A
// range the header cannot even express (negative offset, inverted bounds)
// fails here with the kind the server would have used.
func (c *Client) ranged(ctx context.Context, op, bucket, key string, ranges [][2]int64) ([]byte, error) {
	var rng strings.Builder // an index scan batches hundreds of ranges
	rng.WriteString("bytes=")
	for i, r := range ranges {
		if r[0] < 0 || r[1] < r[0] {
			return nil, s3api.NewError(op, bucket, key, s3api.KindInvalidRange,
				fmt.Errorf("s3http: range [%d,%d] not satisfiable", r[0], r[1]))
		}
		if i > 0 {
			rng.WriteByte(',')
		}
		fmt.Fprintf(&rng, "%d-%d", r[0], r[1])
	}
	return c.do(ctx, op, bucket, key, http.MethodGet, c.url(bucket, key), rng.String(), nil, http.StatusPartialContent)
}

// GetRange implements s3api.Backend.
func (c *Client) GetRange(ctx context.Context, bucket, key string, first, last int64) ([]byte, error) {
	return c.ranged(ctx, "get_range", bucket, key, [][2]int64{{first, last}})
}

// GetRanges implements s3api.Backend (Suggestion-1 extension).
func (c *Client) GetRanges(ctx context.Context, bucket, key string, ranges [][2]int64) ([][]byte, error) {
	if len(ranges) == 0 {
		// No Range header to send; a HEAD keeps the contract that a
		// missing object is KindNotFound even for an empty request.
		if _, err := c.Size(ctx, bucket, key); err != nil {
			return nil, s3api.NewError("get_ranges", bucket, key, s3api.KindOf(err), err)
		}
		return [][]byte{}, nil
	}
	body, err := c.ranged(ctx, "get_ranges", bucket, key, ranges)
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

// Select implements s3api.Backend. A response whose body does not hold the
// rows its header claims, each as wide as its columns, is a KindInternal
// error.
func (c *Client) Select(ctx context.Context, bucket, key string, sreq selectengine.Request) (*selectengine.Result, error) {
	body, err := json.Marshal(SelectBody{
		SQL: sreq.SQL, HasHeader: sreq.HasHeader, Capabilities: sreq.Capabilities, ScanRange: sreq.ScanRange})
	if err != nil {
		return nil, s3api.NewError("select", bucket, key, s3api.KindBadRequest, err)
	}
	respBody, err := c.do(ctx, "select", bucket, key, http.MethodPost, c.url(bucket, key)+"?select", "", body, http.StatusOK)
	if err != nil {
		return nil, err
	}
	line, csv, _ := bytes.Cut(respBody, []byte{'\n'})
	var h SelectHeader
	err = json.Unmarshal(line, &h)
	res := &selectengine.Result{Columns: h.Columns, Body: csv, Stats: h.Stats, Columnar: h.Columnar}
	if err == nil {
		_, err = res.Records()
	}
	if err != nil {
		return nil, s3api.NewError("select", bucket, key, s3api.KindInternal, fmt.Errorf("s3http: select response: %w", err))
	}
	return res, nil
}

// List implements s3api.Backend.
func (c *Client) List(ctx context.Context, bucket, prefix string) ([]string, error) {
	query := url.Values{"list": {""}, "prefix": {prefix}}.Encode()
	body, err := c.do(ctx, "list", bucket, prefix, http.MethodGet, c.url(bucket, "")+"?"+query, "", nil, http.StatusOK)
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
