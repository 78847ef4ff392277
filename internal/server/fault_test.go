package server

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"
)

// TestStalledBackendCutByRequestTimeout is the fault-injection check the
// server layer exists for: a storage backend that stalls indefinitely
// must not hang the client — the per-request deadline cancels the
// engine's fan-out mid-flight and the client sees a structured timeout,
// promptly.
func TestStalledBackendCutByRequestTimeout(t *testing.T) {
	fx := newFixture(t, "inproc", Config{RequestTimeout: 150 * time.Millisecond})
	fx.fault.StallFor(30 * time.Second)
	fx.fault.OnOps("select")

	cl := NewClient(fx.base)
	start := time.Now()
	_, err := cl.Query(context.Background(), testQueries[0])
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("stalled query should fail")
	}
	var se *Error
	if !errors.As(err, &se) || se.Kind != KindTimeout {
		t.Fatalf("want structured KindTimeout, got %v (kind %q)", err, KindOf(err))
	}
	if elapsed > 10*time.Second {
		t.Fatalf("timeout did not cut the stall: client waited %v", elapsed)
	}

	// The failed attempt was billed for whatever it accrued and counted.
	st, err := cl.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ten := st.Tenants["default"]; ten.Errors != 1 {
		t.Errorf("timed-out query not billed as an error: %+v", ten)
	}

	// Disarm the fault: the same query now succeeds on the same server.
	fx.fault.Reset()
	if _, err := cl.Query(context.Background(), testQueries[0]); err != nil {
		t.Fatalf("query after fault cleared: %v", err)
	}
}

// TestStalledGetAlsoCut covers the GET-based paths (baseline loads) —
// the deadline applies to every backend call, not just Select.
func TestStalledGetAlsoCut(t *testing.T) {
	fx := newFixture(t, "inproc", Config{RequestTimeout: 150 * time.Millisecond})
	fx.fault.StallFor(30 * time.Second)
	fx.fault.OnOps("get", "get_range", "get_ranges", "select", "list")

	start := time.Now()
	_, err := NewClient(fx.base).Query(context.Background(), testQueries[0])
	if KindOf(err) != KindTimeout {
		t.Fatalf("want timeout, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("client waited %v", elapsed)
	}
}

// TestFailingBackendSurfacesInternal pins the non-timeout failure path:
// a hard backend error maps to KindInternal, and recovery is immediate
// once the fault clears.
func TestFailingBackendSurfacesInternal(t *testing.T) {
	fx := newFixture(t, "inproc", Config{})
	fx.fault.FailWith(errors.New("injected: storage down"))
	fx.fault.OnOps("select")

	_, err := NewClient(fx.base).Query(context.Background(), testQueries[0])
	if KindOf(err) != KindInternal {
		t.Fatalf("want internal, got %v", err)
	}
	fx.fault.Reset()
	if _, err := NewClient(fx.base).Query(context.Background(), testQueries[0]); err != nil {
		t.Fatalf("after recovery: %v", err)
	}
}

// TestCutResponseIsAnError: a success body cut inside "rows" — the server
// killed mid-write (it had declared the whole length) or a proxy giving up
// (a clean, short body) — is an error and no Result, never a short answer.
func TestCutResponseIsAnError(t *testing.T) {
	fx := newFixture(t, "inproc", Config{})
	body := postQuery(t, fx.base, testQueries[0])
	serve := func(cut int, declare bool) (*Result, error) {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if declare {
				w.Header().Set("Content-Length", strconv.Itoa(len(body)))
			}
			_, _ = w.Write(body[:cut])
		}))
		defer ts.Close()
		return NewClient(ts.URL).Query(context.Background(), testQueries[0])
	}
	if res, err := serve(len(body), true); err != nil || len(res.Relation.Rows) == 0 {
		t.Fatalf("the whole body: %v, %v", res, err)
	}
	from, to := bytes.Index(body, []byte(`"rows":[`)), bytes.Index(body, []byte(`"runtime_sec"`))
	if from < 0 || to-from < 100 {
		t.Fatalf("no rows to cut in %s", body)
	}
	for cut := from + len(`"rows":[`); cut < to; cut += (to - from) / 12 {
		for _, declare := range []bool{true, false} {
			if res, err := serve(cut, declare); err == nil || res != nil {
				t.Errorf("body cut at %d of %d (length declared: %v): %v, %v", cut, len(body), declare, res, err)
			}
		}
	}
}
