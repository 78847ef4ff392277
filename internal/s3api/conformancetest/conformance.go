// Package conformancetest is the shared behavioural suite every
// s3api.Backend implementation must pass. Each backend package runs it
// from its own tests (s3api, s3http, localfs), so the engine can rely on
// identical Get/GetRange/GetRanges/Select/List/Size semantics — including
// structured error kinds and context handling — whichever store a table
// lives on.
package conformancetest

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"pushdowndb/internal/colformat"
	"pushdowndb/internal/csvx"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/selectengine"
	"pushdowndb/internal/value"
)

// Env is one backend under test: the backend plus a loader for seeding
// objects (which may bypass the backend, e.g. writing straight into the
// store behind an HTTP server). A Backend that is also an s3api.Putter has
// its own Put exercised as well.
type Env struct {
	Backend s3api.Backend
	// Put seeds an object; the suite calls it before exercising reads.
	Put func(bucket, key string, data []byte)
}

// Maker builds a fresh Env for one subtest.
type Maker func(t *testing.T) Env

// Run exercises the full conformance suite against the backend mk builds.
func Run(t *testing.T, mk Maker) {
	t.Run("GetRoundTrip", func(t *testing.T) { testGetRoundTrip(t, mk(t)) })
	t.Run("EmptyObject", func(t *testing.T) { testEmptyObject(t, mk(t)) })
	t.Run("MissingKeyKinds", func(t *testing.T) { testMissingKeyKinds(t, mk(t)) })
	t.Run("Ranges", func(t *testing.T) { testRanges(t, mk(t)) })
	t.Run("RangeToMaxInt64", func(t *testing.T) { testRangeToMaxInt64(t, mk(t)) })
	t.Run("MultiRanges", func(t *testing.T) { testMultiRanges(t, mk(t)) })
	t.Run("MultiRangeEdges", func(t *testing.T) { testMultiRangeEdges(t, mk(t)) })
	t.Run("Select", func(t *testing.T) { testSelect(t, mk(t)) })
	t.Run("SelectReportsFormat", func(t *testing.T) { testSelectReportsFormat(t, mk(t)) })
	t.Run("Lend", func(t *testing.T) { testLend(t, mk(t)) })
	t.Run("ReservedKeyCharacters", func(t *testing.T) { testReservedKeyCharacters(t, mk(t)) })
	t.Run("ListAndSize", func(t *testing.T) { testListAndSize(t, mk(t)) })
	t.Run("CanceledContext", func(t *testing.T) { testCanceledContext(t, mk(t)) })
	t.Run("SelfDescription", func(t *testing.T) { testSelfDescription(t, mk(t)) })
}

func ctxb() context.Context { return context.Background() }

// wantKind asserts err is a structured *s3api.Error of the given kind with
// the object coordinates filled in.
func wantKind(t *testing.T, err error, kind s3api.Kind, op string) {
	t.Helper()
	if err == nil {
		t.Fatalf("%s: expected a %s error, got nil", op, kind)
	}
	var se *s3api.Error
	if !errors.As(err, &se) {
		t.Fatalf("%s: error %v (%T) is not a *s3api.Error", op, err, err)
	}
	if se.Kind != kind {
		t.Errorf("%s: kind = %s, want %s (err: %v)", op, se.Kind, kind, err)
	}
	if se.Op == "" || se.Bucket == "" {
		t.Errorf("%s: error is missing Op/Bucket context: %+v", op, se)
	}
}

func testGetRoundTrip(t *testing.T, env Env) {
	env.Put("b", "dir/k.bin", []byte("payload"))
	got, err := env.Backend.Get(ctxb(), "b", "dir/k.bin")
	if err != nil || string(got) != "payload" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	n, err := env.Backend.Size(ctxb(), "b", "dir/k.bin")
	if err != nil || n != 7 {
		t.Fatalf("Size = %d, %v", n, err)
	}
}

func testEmptyObject(t *testing.T, env Env) {
	env.Put("b", "empty", nil)
	got, err := env.Backend.Get(ctxb(), "b", "empty")
	if err != nil || len(got) != 0 {
		t.Fatalf("Get(empty) = %q, %v", got, err)
	}
	n, err := env.Backend.Size(ctxb(), "b", "empty")
	if err != nil || n != 0 {
		t.Fatalf("Size(empty) = %d, %v", n, err)
	}
	// No byte of an empty object is addressable: every range is invalid.
	_, err = env.Backend.GetRange(ctxb(), "b", "empty", 0, 0)
	wantKind(t, err, s3api.KindInvalidRange, "GetRange(empty)")
}

func testMissingKeyKinds(t *testing.T, env Env) {
	env.Put("b", "exists", []byte("x"))
	_, err := env.Backend.Get(ctxb(), "b", "missing")
	wantKind(t, err, s3api.KindNotFound, "Get(missing key)")
	_, err = env.Backend.Get(ctxb(), "nobucket", "k")
	wantKind(t, err, s3api.KindNotFound, "Get(missing bucket)")
	_, err = env.Backend.GetRange(ctxb(), "b", "missing", 0, 1)
	wantKind(t, err, s3api.KindNotFound, "GetRange(missing)")
	_, err = env.Backend.GetRanges(ctxb(), "b", "missing", [][2]int64{{0, 0}})
	wantKind(t, err, s3api.KindNotFound, "GetRanges(missing)")
	_, err = env.Backend.Size(ctxb(), "b", "missing")
	wantKind(t, err, s3api.KindNotFound, "Size(missing)")
	_, err = env.Backend.Select(ctxb(), "b", "missing",
		selectengine.Request{SQL: "SELECT * FROM S3Object"})
	wantKind(t, err, s3api.KindNotFound, "Select(missing)")
}

func testRanges(t *testing.T, env Env) {
	env.Put("b", "k", []byte("0123456789"))
	got, err := env.Backend.GetRange(ctxb(), "b", "k", 2, 4)
	if err != nil || string(got) != "234" {
		t.Fatalf("GetRange = %q, %v", got, err)
	}
	// The last byte clamps to the object end.
	got, err = env.Backend.GetRange(ctxb(), "b", "k", 8, 100)
	if err != nil || string(got) != "89" {
		t.Fatalf("GetRange(clamped) = %q, %v", got, err)
	}
	// A first offset at/past the end is unsatisfiable.
	_, err = env.Backend.GetRange(ctxb(), "b", "k", 10, 12)
	wantKind(t, err, s3api.KindInvalidRange, "GetRange(past end)")
	_, err = env.Backend.GetRange(ctxb(), "b", "k", -1, 3)
	wantKind(t, err, s3api.KindInvalidRange, "GetRange(negative)")
	_, err = env.Backend.GetRange(ctxb(), "b", "k", 5, 3)
	wantKind(t, err, s3api.KindInvalidRange, "GetRange(inverted)")
}

// testRangeToMaxInt64 pins the clamp at the far end of int64 (an HTTP
// client's open-ended Range arrives that way): last+1 must not wrap.
func testRangeToMaxInt64(t *testing.T, env Env) {
	env.Put("b", "k", []byte("0123456789"))
	got, err := env.Backend.GetRange(ctxb(), "b", "k", 8, math.MaxInt64)
	if err != nil || string(got) != "89" {
		t.Fatalf("GetRange(8, MaxInt64) = %q, %v", got, err)
	}
	parts, err := env.Backend.GetRanges(ctxb(), "b", "k", [][2]int64{{0, math.MaxInt64}, {9, math.MaxInt64 - 1}})
	if err != nil || len(parts) != 2 || string(parts[0]) != "0123456789" || string(parts[1]) != "9" {
		t.Fatalf("GetRanges(to MaxInt64) = %q, %v", parts, err)
	}
}

func testMultiRanges(t *testing.T, env Env) {
	env.Put("b", "k", []byte("abcdefghij"))
	parts, err := env.Backend.GetRanges(ctxb(), "b", "k", [][2]int64{{0, 1}, {5, 6}, {9, 9}})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]byte{[]byte("ab"), []byte("fg"), []byte("j")}
	if !reflect.DeepEqual(parts, want) {
		t.Errorf("GetRanges = %q, want %q", parts, want)
	}
	// Single range through the same API.
	parts, err = env.Backend.GetRanges(ctxb(), "b", "k", [][2]int64{{2, 4}})
	if err != nil || len(parts) != 1 || string(parts[0]) != "cde" {
		t.Errorf("single-range GetRanges = %q, %v", parts, err)
	}
	// One bad range fails the whole request.
	_, err = env.Backend.GetRanges(ctxb(), "b", "k", [][2]int64{{0, 1}, {50, 60}})
	wantKind(t, err, s3api.KindInvalidRange, "GetRanges(one bad)")
}

// testMultiRangeEdges pins the GetRanges semantics the IndexScan fetch
// path depends on, identically on every backend: request order preserved
// (no server-side sorting), adjacent ranges returned as separate parts,
// per-range EOF clamping, an empty range list succeeding with an empty
// result, and missing objects classified KindNotFound whatever the range
// list looks like.
func testMultiRangeEdges(t *testing.T, env Env) {
	env.Put("b", "k", []byte("abcdefghij"))
	// Unsorted ranges come back in request order, not offset order.
	parts, err := env.Backend.GetRanges(ctxb(), "b", "k", [][2]int64{{5, 6}, {0, 1}, {8, 8}})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]byte{[]byte("fg"), []byte("ab"), []byte("i")}
	if !reflect.DeepEqual(parts, want) {
		t.Errorf("unsorted GetRanges = %q, want %q (request order)", parts, want)
	}
	// Adjacent ranges are not merged by the backend: coalescing is the
	// client's decision.
	parts, err = env.Backend.GetRanges(ctxb(), "b", "k", [][2]int64{{0, 1}, {2, 3}})
	if err != nil || len(parts) != 2 || string(parts[0]) != "ab" || string(parts[1]) != "cd" {
		t.Errorf("adjacent GetRanges = %q, %v; want separate \"ab\" \"cd\"", parts, err)
	}
	// A last offset beyond EOF clamps per range (matching GetRange).
	parts, err = env.Backend.GetRanges(ctxb(), "b", "k", [][2]int64{{0, 0}, {8, 100}})
	if err != nil || len(parts) != 2 || string(parts[1]) != "ij" {
		t.Errorf("clamped GetRanges = %q, %v; want [\"a\" \"ij\"]", parts, err)
	}
	// The same range twice is served twice (the fetch path may retry a
	// batch; the backend must not dedupe).
	parts, err = env.Backend.GetRanges(ctxb(), "b", "k", [][2]int64{{2, 4}, {2, 4}})
	if err != nil || len(parts) != 2 || string(parts[0]) != "cde" || string(parts[1]) != "cde" {
		t.Errorf("duplicate GetRanges = %q, %v", parts, err)
	}
	// An empty range list is a successful no-op on an existing object...
	parts, err = env.Backend.GetRanges(ctxb(), "b", "k", nil)
	if err != nil || len(parts) != 0 {
		t.Errorf("empty GetRanges = %q, %v; want empty success", parts, err)
	}
	// ...and KindNotFound on a missing one — the not-found signal must not
	// depend on how many ranges the probe resolved.
	_, err = env.Backend.GetRanges(ctxb(), "b", "missing", nil)
	wantKind(t, err, s3api.KindNotFound, "GetRanges(missing, empty)")
	_, err = env.Backend.GetRanges(ctxb(), "nobucket", "k", [][2]int64{{0, 1}})
	wantKind(t, err, s3api.KindNotFound, "GetRanges(missing bucket)")
}

func testSelect(t *testing.T, env Env) {
	data := csvx.Encode([]string{"k", "v"}, [][]string{{"1", "10"}, {"2", "20"}, {"3", "30"}})
	env.Put("b", "t.csv", data)
	res, err := env.Backend.Select(ctxb(), "b", "t.csv", selectengine.Request{
		SQL: "SELECT k FROM S3Object WHERE v >= 20", HasHeader: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Body) != "2\n3\n" || res.Stats.RowsReturned != 2 {
		t.Errorf("body = %q, %d rows", res.Body, res.Stats.RowsReturned)
	}
	if res.Stats.BytesScanned != int64(len(data)) {
		t.Errorf("scan stats wrong: %+v", res.Stats)
	}
	// Unsupported SQL surfaces a structured (non-not-found) error.
	_, err = env.Backend.Select(ctxb(), "b", "t.csv", selectengine.Request{
		SQL: "SELECT k FROM S3Object ORDER BY k", HasHeader: true,
	})
	if err == nil {
		t.Fatal("ORDER BY must be rejected by the select engine")
	}
	var se *s3api.Error
	if !errors.As(err, &se) || se.Kind == s3api.KindNotFound {
		t.Errorf("select rejection should be a structured non-not-found error, got %v", err)
	}
	// A request claiming a capability the backend does not advertise is
	// clamped and rejected as unsupported — identically on every backend.
	// (These suites run backends with default, extension-free caps.)
	_, err = env.Backend.Select(ctxb(), "b", "t.csv", selectengine.Request{
		SQL: "SELECT k, SUM(v) FROM S3Object GROUP BY k", HasHeader: true,
		Capabilities: selectengine.Capabilities{AllowGroupBy: true},
	})
	wantKind(t, err, s3api.KindUnsupported, "Select(unadvertised GROUP BY)")
}

// testSelectReportsFormat: Result.Columnar says which format storage
// scanned — the planner prices a probed table by it — on every backend.
func testSelectReportsFormat(t *testing.T, env Env) {
	col, err := colformat.Encode(colformat.Schema{{Name: "k", Kind: value.KindInt}},
		[][]value.Value{{value.Int(1)}, {value.Int(2)}}, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	env.Put("b", "col", col)
	env.Put("b", "csv", csvx.Encode([]string{"k"}, [][]string{{"1"}, {"2"}}))
	for key, want := range map[string]bool{"col": true, "csv": false} {
		res, err := env.Backend.Select(ctxb(), "b", key, selectengine.Request{SQL: "SELECT k FROM S3Object", HasHeader: true})
		if err != nil || string(res.Body) != "1\n2\n" {
			t.Fatalf("Select(%s) = %+v, %v", key, res, err)
		}
		if res.Columnar != want {
			t.Errorf("Select(%s).Columnar = %v, want %v", key, res.Columnar, want)
		}
	}
}

// testLend: the backend in the lending form (s3api.Lending: its own Lend,
// or its Select's result lent) lends exactly what Select returns, and a
// sink's error comes back as is.
func testLend(t *testing.T, env Env) {
	col, err := colformat.Encode(colformat.Schema{{Name: "k", Kind: value.KindInt}}, [][]value.Value{{value.Int(1)}, {value.Int(2)}}, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	env.Put("b", "col", col)
	env.Put("b", "csv", csvx.Encode([]string{"k", "v"}, [][]string{{"1", "a,b"}, {"2", ""}}))
	boom := errors.New("sink failed")
	for _, key := range []string{"col", "csv"} {
		req := selectengine.Request{SQL: "SELECT * FROM S3Object", HasHeader: true}
		want, err := env.Backend.Select(ctxb(), "b", key, req)
		if err != nil {
			t.Fatal(err)
		}
		var got selectengine.Result
		if err := s3api.Lending(env.Backend).Lend(ctxb(), "b", key, req, func(res *selectengine.Result) error {
			got = *res.Own()
			return boom
		}); err != boom {
			t.Errorf("Lend(%s) = %v, want the sink's error as is", key, err)
		}
		if !reflect.DeepEqual(got.Columns, want.Columns) || string(got.Body) != string(want.Body) || got.Stats != want.Stats || got.Columnar != want.Columnar {
			t.Errorf("Lend(%s) lent %+v, Select returned %+v", key, got, *want)
		}
	}
}

// testReservedKeyCharacters: a key is bytes, not URL syntax. Keys holding
// characters a URL reserves name exactly their own object on every call.
func testReservedKeyCharacters(t *testing.T, env Env) {
	put := func(key string, data []byte) { env.Put("b", key, data) }
	if p, ok := env.Backend.(s3api.Putter); ok {
		put = func(key string, data []byte) {
			if err := p.Put(ctxb(), "b", key, data); err != nil {
				t.Errorf("Put(%q): %v", key, err)
			}
		}
	}
	put("t/pA", []byte("decoy: what %41 decodes to"))
	names := []string{"a b", "q?x", "h#y", "p%41", "p%zz", "plus+", "amp&x"}
	for _, name := range names {
		put("t/"+name, []byte(name))
	}
	for _, name := range names {
		key := "t/" + name
		got, err := env.Backend.Get(ctxb(), "b", key)
		if err != nil || string(got) != name {
			t.Errorf("Get(%q) = %q, %v", key, got, err)
		}
		n, err := env.Backend.Size(ctxb(), "b", key)
		if err != nil || n != int64(len(name)) {
			t.Errorf("Size(%q) = %d, %v; want %d", key, n, err, len(name))
		}
		keys, err := env.Backend.List(ctxb(), "b", key)
		if err != nil || !reflect.DeepEqual(keys, []string{key}) {
			t.Errorf("List(prefix %q) = %q, %v", key, keys, err)
		}
	}
}

func testListAndSize(t *testing.T, env Env) {
	env.Put("b", "t/part0001.csv", []byte("defg"))
	env.Put("b", "t/part0000.csv", []byte("abc"))
	env.Put("b", "u/part0000.csv", []byte("x"))
	keys, err := env.Backend.List(ctxb(), "b", "t/")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(keys, []string{"t/part0000.csv", "t/part0001.csv"}) {
		t.Errorf("List = %v (must be sorted and prefix-filtered)", keys)
	}
	// Missing buckets and unmatched prefixes list empty, not an error.
	keys, err = env.Backend.List(ctxb(), "nobucket", "")
	if err != nil || len(keys) != 0 {
		t.Errorf("List(missing bucket) = %v, %v; want empty", keys, err)
	}
	keys, err = env.Backend.List(ctxb(), "b", "zzz")
	if err != nil || len(keys) != 0 {
		t.Errorf("List(unmatched prefix) = %v, %v; want empty", keys, err)
	}
	n, err := env.Backend.Size(ctxb(), "b", "t/part0001.csv")
	if err != nil || n != 4 {
		t.Errorf("Size = %d, %v", n, err)
	}
}

func testCanceledContext(t *testing.T, env Env) {
	env.Put("b", "k", []byte("data"))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := env.Backend.Get(ctx, "b", "k"); err == nil {
		t.Error("Get with canceled context must fail")
	} else if !errors.Is(err, context.Canceled) {
		t.Errorf("canceled Get should wrap context.Canceled, got %v", err)
	}
	if _, err := env.Backend.Select(ctx, "b", "k",
		selectengine.Request{SQL: "SELECT * FROM S3Object"}); err == nil {
		t.Error("Select with canceled context must fail")
	}
}

func testSelfDescription(t *testing.T, env Env) {
	p := env.Backend.Profile()
	if !p.Defined() {
		t.Error("backend must advertise a defined (named) profile")
	}
	if p.NetworkBytesPerSec <= 0 || p.RequestRTTSec <= 0 {
		t.Errorf("profile must carry positive performance terms: %+v", p)
	}
	_ = env.Backend.Capabilities() // must not panic; flags are backend policy
}
