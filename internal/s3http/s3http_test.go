package s3http

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"pushdowndb/internal/cloudsim"
	"pushdowndb/internal/csvx"
	"pushdowndb/internal/localfs"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/selectengine"
	"pushdowndb/internal/store"
)

// The shared backend behaviour (reads, error kinds, context handling) is
// covered by conformance_test.go; these tests pin wire-protocol details.

func ctxb() context.Context { return context.Background() }

func newPair(t *testing.T, opts ...s3api.Option) (*store.Store, *Client) {
	t.Helper()
	st := store.New()
	srv := httptest.NewServer(NewServer(s3api.NewInProc(st, opts...)))
	t.Cleanup(srv.Close)
	return st, NewClient(srv.URL, srv.Client())
}

func TestPutGetOverHTTP(t *testing.T) {
	_, c := newPair(t)
	if err := c.Put(ctxb(), "b", "dir/key.csv", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get(ctxb(), "b", "dir/key.csv")
	if err != nil || string(got) != "hello" {
		t.Fatalf("Get = %q, %v", got, err)
	}
}

func TestErrorKindsSurviveTheWire(t *testing.T) {
	st, c := newPair(t)
	st.Put("b", "k", []byte("0123456789"))
	_, err := c.Get(ctxb(), "b", "missing")
	if s3api.KindOf(err) != s3api.KindNotFound {
		t.Errorf("missing key kind = %q (%v)", s3api.KindOf(err), err)
	}
	_, err = c.GetRange(ctxb(), "b", "k", 50, 60)
	if s3api.KindOf(err) != s3api.KindInvalidRange {
		t.Errorf("bad range kind = %q (%v)", s3api.KindOf(err), err)
	}
	_, err = c.Size(ctxb(), "b", "missing")
	if s3api.KindOf(err) != s3api.KindNotFound {
		t.Errorf("missing HEAD kind = %q (%v)", s3api.KindOf(err), err)
	}
}

func TestSelectOverHTTP(t *testing.T) {
	st, c := newPair(t)
	data := csvx.Encode([]string{"k", "v"}, [][]string{{"1", "10"}, {"2", "20"}, {"3", "30"}})
	st.Put("b", "t.csv", data)
	res, err := c.Select(ctxb(), "b", "t.csv", selectengine.Request{
		SQL:       "SELECT k FROM S3Object WHERE v >= 20",
		HasHeader: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Body) != "2\n3\n" || res.Stats.RowsReturned != 2 {
		t.Errorf("body = %q, %d rows", res.Body, res.Stats.RowsReturned)
	}
	if res.Stats.BytesScanned != int64(len(data)) {
		t.Errorf("stats lost over the wire: %+v", res.Stats)
	}
	// Errors propagate with a structured kind.
	_, err = c.Select(ctxb(), "b", "t.csv", selectengine.Request{
		SQL: "SELECT k FROM S3Object ORDER BY k", HasHeader: true,
	})
	if s3api.KindOf(err) != s3api.KindBadRequest {
		t.Errorf("ORDER BY rejection kind = %q (%v)", s3api.KindOf(err), err)
	}
}

func TestSelectScanRangeOverHTTP(t *testing.T) {
	st, c := newPair(t)
	data := csvx.Encode([]string{"k"}, [][]string{{"1"}, {"2"}, {"3"}, {"4"}})
	st.Put("b", "t.csv", data)
	ranges, _ := csvx.RowRanges(data, true)
	res, err := c.Select(ctxb(), "b", "t.csv", selectengine.Request{
		SQL:       "SELECT k FROM S3Object",
		HasHeader: true,
		ScanRange: &selectengine.ScanRange{Start: ranges[2][0], End: int64(len(data))},
	})
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Body) != "3\n4\n" {
		t.Errorf("body = %q", res.Body)
	}
}

func TestDescribeEndpoint(t *testing.T) {
	// A server with capabilities and a custom profile is self-describing:
	// the client learns both over the wire.
	_, c := newPair(t,
		s3api.WithCapabilities(selectengine.Capabilities{AllowGroupBy: true}),
		s3api.WithProfile(cloudsim.CrossRegionS3Profile()))
	if !c.Capabilities().AllowGroupBy {
		t.Error("client should learn the server's capabilities from ?describe")
	}
	if c.Profile().Name != "s3-cross-region" {
		t.Errorf("client profile = %+v, want the server's", c.Profile())
	}
	// A plain server describes the defaults.
	_, plain := newPair(t)
	if plain.Capabilities().AllowGroupBy {
		t.Error("plain server must not advertise extensions")
	}
	if plain.Profile() != cloudsim.S3Profile() {
		t.Errorf("plain profile = %+v, want S3Profile", plain.Profile())
	}
}

func TestServerEnforcesItsCapabilities(t *testing.T) {
	// Even if a client hand-crafts a request claiming an extension, a
	// server that does not allow it rejects the select.
	st, c := newPair(t) // no capabilities
	st.Put("b", "t.csv", csvx.Encode([]string{"g", "v"}, [][]string{{"a", "1"}, {"a", "2"}}))
	_, err := c.Select(ctxb(), "b", "t.csv", selectengine.Request{
		SQL:          "SELECT g, SUM(v) FROM S3Object GROUP BY g",
		HasHeader:    true,
		Capabilities: selectengine.Capabilities{AllowGroupBy: true}, // a lie
	})
	if err == nil {
		t.Fatal("server without AllowGroupBy must reject a GROUP BY select")
	}
}

func TestClientSatisfiesInterface(t *testing.T) {
	var _ s3api.Backend = (*Client)(nil)
	var _ s3api.Backend = (*s3api.Local)(nil)
	var _ s3api.Putter = (*Client)(nil)
}

func TestHTTPAndInProcAgree(t *testing.T) {
	st, httpClient := newPair(t)
	inproc := s3api.NewInProc(st)
	data := csvx.Encode([]string{"a", "b"}, [][]string{{"1", "x"}, {"2", "y"}})
	st.Put("b", "t.csv", data)

	req := selectengine.Request{SQL: "SELECT a, b FROM S3Object WHERE a = 2", HasHeader: true}
	r1, err1 := inproc.Select(ctxb(), "b", "t.csv", req)
	r2, err2 := httpClient.Select(ctxb(), "b", "t.csv", req)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if !reflect.DeepEqual(r1.Columns, r2.Columns) || string(r1.Body) != string(r2.Body) || r1.Stats != r2.Stats {
		t.Errorf("in-proc %+v != http %+v", r1, r2)
	}
}

// TestSelectBodyCarriesEveryField: the wire body has one field of the same
// name and type per exported Request field, and nothing else, so a field
// added to Request cannot silently stay behind on the wire. The compiled
// statement is unexported: only text crosses.
func TestSelectBodyCarriesEveryField(t *testing.T) {
	req, body := reflect.TypeOf(selectengine.Request{}), reflect.TypeOf(SelectBody{})
	exported := 0
	for i := 0; i < req.NumField(); i++ {
		f := req.Field(i)
		if !f.IsExported() {
			continue
		}
		exported++
		if g, ok := body.FieldByName(f.Name); !ok || g.Type != f.Type {
			t.Errorf("SelectBody does not carry Request.%s %v", f.Name, f.Type)
		}
	}
	if body.NumField() != exported {
		t.Errorf("SelectBody has %d fields, Request exports %d", body.NumField(), exported)
	}
}

// TestHostileSelectResponse: a select response whose body disagrees with its
// header — rows of another width, another row count, an unterminated quote,
// a header that is not JSON — is a KindInternal error, and a claimed row
// count far past what the body holds presizes nothing.
func TestHostileSelectResponse(t *testing.T) {
	for _, resp := range []string{
		`{"columns":["a","b"],"stats":{"RowsReturned":2}}` + "\n1,2\n3\n",
		`{"columns":["a","b"],"stats":{"RowsReturned":2}}` + "\n1,2\n3,4,5\n",
		`{"columns":["a","b"],"stats":{"RowsReturned":3}}` + "\n1,2\n3,4\n",
		`{"columns":["a","b"],"stats":{"RowsReturned":1}}` + "\n1,2\n3,4\n",
		`{"columns":["a"],"stats":{"RowsReturned":-1}}` + "\n",
		`{"columns":["a"],"stats":{"RowsReturned":1}}` + "\n\"1\n",
		`{"columns":["a","b"],"stats":{"RowsReturned":1099511627776}}` + "\n1,2\n",
		`{"columns":["a"],"stats":{"RowsReturned":1}}`,
		"1,2\n",
	} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			_, _ = w.Write([]byte(resp))
		}))
		c := NewClient(srv.URL, srv.Client())
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := c.Select(ctxb(), "b", "k", selectengine.Request{SQL: "SELECT a, b FROM S3Object"})
		runtime.ReadMemStats(&after)
		srv.Close()
		if s3api.KindOf(err) != s3api.KindInternal {
			t.Errorf("response %q: %+v, %v; want a %s error", resp, res, err, s3api.KindInternal)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
			t.Errorf("response %q: decoding allocated %d bytes", resp, n)
		}
	}
	// The same header with a body that agrees is a response.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte(`{"columns":["a","b"],"stats":{"RowsReturned":2}}` + "\n1,2\n\"x,\"\"y\"\"\",\n"))
	}))
	defer srv.Close()
	res, err := NewClient(srv.URL, srv.Client()).Select(ctxb(), "b", "k", selectengine.Request{SQL: "SELECT a, b FROM S3Object"})
	if err != nil {
		t.Fatal(err)
	}
	if rows, err := res.Records(); err != nil || !reflect.DeepEqual(rows, [][]string{{"1", "2"}, {`x,"y"`, ""}}) {
		t.Errorf("well-formed response decodes to %q, %v", rows, err)
	}
}

// TestSelectBodyIsExactSize: a select response through the client keeps
// only its rows, at their exact size (cap == len) — not the tail of the
// HTTP read, which also holds the header line and spare capacity — so the
// result cache's charge, cap(Body), is what the response keeps.
func TestSelectBodyIsExactSize(t *testing.T) {
	st := store.New()
	st.Put("b", "k", []byte("a,b\n1,x\n2,y\n3,z\n"))
	srv := httptest.NewServer(NewServer(s3api.NewInProc(st)))
	defer srv.Close()
	res, err := NewClient(srv.URL, srv.Client()).Select(ctxb(), "b", "k",
		selectengine.Request{SQL: "SELECT a, b FROM S3Object WHERE a > 1", HasHeader: true})
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Body) != "2,y\n3,z\n" || cap(res.Body) != len(res.Body) {
		t.Errorf("body %q has cap %d, len %d; want the two rows at cap == len", res.Body, cap(res.Body), len(res.Body))
	}
}

func TestBadRequests(t *testing.T) {
	st := store.New()
	st.Put("b", "k", []byte("xyz"))
	srv := httptest.NewServer(NewServer(s3api.NewInProc(st)))
	defer srv.Close()
	// Empty bucket path without ?describe is a bad request.
	resp, err := srv.Client().Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("empty bucket path status = %d", resp.StatusCode)
	}
	if kind := resp.Header.Get("X-Pushdowndb-Error-Kind"); kind != string(s3api.KindBadRequest) {
		t.Errorf("error kind header = %q", kind)
	}
}

// TestSelectRequestBodyIsBounded: the select handler reads at most 1 MiB
// of request (the SQL limit is selectengine.MaxSQLBytes, 256 KiB) and
// answers more with a bad_request, not with a buffer of whatever arrives.
func TestSelectRequestBodyIsBounded(t *testing.T) {
	st := store.New()
	st.Put("b", "t.csv", csvx.Encode([]string{"k"}, [][]string{{"1"}}))
	srv := httptest.NewServer(NewServer(s3api.NewInProc(st)))
	defer srv.Close()
	for pad, want := range map[int]int{1 << 10: 200, 1 << 20: 400} {
		body := `{"has_header":true,` + strings.Repeat(" ", pad) + `"sql":"SELECT k FROM S3Object"}`
		resp, err := srv.Client().Post(srv.URL+"/b/t.csv?select", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("%d-byte select request: status %d, want %d", len(body), resp.StatusCode, want)
		}
		if kind := resp.Header.Get("X-Pushdowndb-Error-Kind"); want == 400 && kind != string(s3api.KindBadRequest) {
			t.Errorf("oversized select request: error kind %q", kind)
		}
	}
}

func TestParseRanges(t *testing.T) {
	good, err := parseRanges("bytes=1-2,4-9")
	if err != nil || !reflect.DeepEqual(good, [][2]int64{{1, 2}, {4, 9}}) {
		t.Errorf("parseRanges = %v, %v", good, err)
	}
	for _, bad := range []string{"1-2", "bytes=", "bytes=a-b", "bytes=5"} {
		if _, err := parseRanges(bad); err == nil {
			t.Errorf("parseRanges(%q) should fail", bad)
		}
	}
}

// TestServerSurvivesRestart: a server over localfs.New(dir) — what
// `s3server -state dir` runs — has an object on disk when its PUT returns,
// so a second server over the same directory serves it.
func TestServerSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	data := csvx.Encode([]string{"k", "v"}, [][]string{{"1", "10"}, {"2", "20"}})
	first := httptest.NewServer(NewServer(localfs.New(dir)))
	if err := NewClient(first.URL, first.Client()).Put(ctxb(), "b", "t/part0000.csv", data); err != nil {
		t.Fatal(err)
	}
	first.Close()

	second := httptest.NewServer(NewServer(localfs.New(dir)))
	defer second.Close()
	c := NewClient(second.URL, second.Client())
	if got, err := c.Get(ctxb(), "b", "t/part0000.csv"); err != nil || string(got) != string(data) {
		t.Errorf("Get after restart = %q, %v", got, err)
	}
	if keys, err := c.List(ctxb(), "b", "t/"); err != nil || !reflect.DeepEqual(keys, []string{"t/part0000.csv"}) {
		t.Errorf("List after restart = %v, %v", keys, err)
	}
	res, err := c.Select(ctxb(), "b", "t/part0000.csv", selectengine.Request{
		SQL: "SELECT k FROM S3Object WHERE v >= 20", HasHeader: true,
	})
	if err != nil || string(res.Body) != "2\n" {
		t.Errorf("Select after restart = %+v, %v", res, err)
	}
}

// TestHeadReportsTheBackendsKind: HEAD answers with the kind the backend
// gave, not with not_found for every failure.
func TestHeadReportsTheBackendsKind(t *testing.T) {
	srv := httptest.NewServer(NewServer(localfs.New(t.TempDir())))
	defer srv.Close()
	c := NewClient(srv.URL, srv.Client())
	if _, err := c.Size(ctxb(), "..", "k"); s3api.KindOf(err) != s3api.KindBadRequest {
		t.Errorf("Size(bad bucket) kind = %q (%v), want bad_request", s3api.KindOf(err), err)
	}
	if _, err := c.Size(ctxb(), "b", "missing"); s3api.KindOf(err) != s3api.KindNotFound {
		t.Errorf("Size(missing) kind = %q (%v), want not_found", s3api.KindOf(err), err)
	}
}

// unreadBody fails the test if anything reads it: an oversize body must be
// refused on its declared length, not buffered.
type unreadBody struct{ t *testing.T }

func (b unreadBody) Read([]byte) (int, error) {
	b.t.Error("an oversize body was read")
	return 0, io.EOF
}
func (unreadBody) Close() error { return nil }

// roundTrip answers every request with one canned response.
type roundTrip func(*http.Request) *http.Response

func (f roundTrip) RoundTrip(r *http.Request) (*http.Response, error) { return f(r), nil }

// TestObjectSizeCeiling: neither end buffers more than MaxObjectBytes. A
// declared oversize length is refused before the body is touched, on the
// PUT handler (bad_request) and in the client (internal). A HEAD answer's
// Content-Length is a size, not a body: it is reported whatever it is.
func TestObjectSizeCeiling(t *testing.T) {
	st := store.New()
	srv := NewServer(s3api.NewInProc(st))
	req := httptest.NewRequest(http.MethodPut, "/b/k", unreadBody{t})
	req.ContentLength = MaxObjectBytes + 1
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if kind := rec.Header().Get(errorKindHeader); rec.Code != http.StatusRequestEntityTooLarge || kind != string(s3api.KindBadRequest) {
		t.Errorf("oversize PUT: status %d kind %q, want 413 bad_request", rec.Code, kind)
	}
	if _, err := st.Get("b", "k"); err == nil {
		t.Error("the refused PUT stored an object")
	}

	c := NewClient("http://storage.invalid", &http.Client{Transport: roundTrip(func(*http.Request) *http.Response {
		return &http.Response{StatusCode: 200, ContentLength: MaxObjectBytes + 1, Body: unreadBody{t}}
	})})
	_, err := c.Get(ctxb(), "b", "k")
	if s3api.KindOf(err) != s3api.KindInternal || !errors.Is(err, errTooLarge) {
		t.Errorf("oversize response: %v (kind %q), want errTooLarge as internal", err, s3api.KindOf(err))
	}

	hs := httptest.NewServer(NewServer(hugeObject{s3api.NewInProc(st)}))
	defer hs.Close()
	if n, err := NewClient(hs.URL, hs.Client()).Size(ctxb(), "b", "huge"); err != nil || n != 5*MaxObjectBytes {
		t.Errorf("Size over HEAD = %d, %v; want %d", n, err, int64(5*MaxObjectBytes))
	}
}

// hugeObject is a backend holding objects larger than the wire will carry.
type hugeObject struct{ s3api.Backend }

func (hugeObject) Size(context.Context, string, string) (int64, error) {
	return 5 * MaxObjectBytes, nil
}
