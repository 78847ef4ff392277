package s3api

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"pushdowndb/internal/cloudsim"
	"pushdowndb/internal/csvx"
	"pushdowndb/internal/selectengine"
	"pushdowndb/internal/store"
)

// The behavioural surface (Get/GetRange/GetRanges/Select/List/Size, error
// kinds, context handling) is covered by the shared suite in
// conformance_test.go; these tests pin NewInProc's construction and error
// classification details, and the range rule (moved here from the store,
// which no longer has one).

func TestInProcSelfDescription(t *testing.T) {
	st := store.New()
	plain := NewInProc(st)
	if caps := plain.Capabilities(); caps.AllowGroupBy || caps.AllowBloomContains {
		t.Errorf("default capabilities must be off (2020 AWS): %+v", caps)
	}
	if p := plain.Profile(); p != cloudsim.S3Profile() {
		t.Errorf("default profile = %+v, want S3Profile", p)
	}

	custom := NewInProc(st,
		WithCapabilities(selectengine.Capabilities{AllowGroupBy: true}),
		WithProfile(cloudsim.CrossRegionS3Profile()))
	if !custom.Capabilities().AllowGroupBy {
		t.Error("WithCapabilities not applied")
	}
	if custom.Profile().Name != "s3-cross-region" {
		t.Errorf("WithProfile not applied: %+v", custom.Profile())
	}
}

func TestInProcErrorClassification(t *testing.T) {
	st := store.New()
	c := NewInProc(st)
	ctx := context.Background()
	st.Put("b", "t.csv", csvx.Encode([]string{"a"}, [][]string{{"1"}}))

	_, err := c.Get(ctx, "b", "missing")
	var se *Error
	if !errors.As(err, &se) {
		t.Fatalf("Get error %v is not *Error", err)
	}
	if se.Kind != KindNotFound || se.Op != "get" || se.Bucket != "b" || se.Key != "missing" {
		t.Errorf("error context = %+v", se)
	}
	if !IsNotFound(err) {
		t.Error("IsNotFound should see through the wrap")
	}
	if !errors.Is(err, store.ErrNotFound) {
		t.Error("the store sentinel should still unwrap")
	}

	_, err = c.Select(ctx, "b", "t.csv", selectengine.Request{
		SQL: "SELECT a FROM S3Object ORDER BY a", HasHeader: true,
	})
	if KindOf(err) != KindBadRequest {
		t.Errorf("select rejection kind = %q, want bad_request (%v)", KindOf(err), err)
	}
	if KindOf(errors.New("plain")) != "" {
		t.Error("KindOf(non-storage error) must be empty")
	}
}

func TestInProcCanceledContextKind(t *testing.T) {
	st := store.New()
	st.Put("b", "k", []byte("x"))
	c := NewInProc(st)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := c.Get(ctx, "b", "k")
	if KindOf(err) != KindCanceled || !errors.Is(err, context.Canceled) {
		t.Errorf("canceled Get = %v (kind %q)", err, KindOf(err))
	}
}

func TestGetRange(t *testing.T) {
	st := store.New()
	st.Put("b", "k", []byte("0123456789"))
	c, ctx := NewInProc(st), context.Background()
	got, err := c.GetRange(ctx, "b", "k", 2, 5)
	if err != nil || string(got) != "2345" {
		t.Fatalf("GetRange = %q, %v", got, err)
	}
	// Clamp past end.
	got, err = c.GetRange(ctx, "b", "k", 8, 100)
	if err != nil || string(got) != "89" {
		t.Fatalf("clamped GetRange = %q, %v", got, err)
	}
	// Unsatisfiable.
	for name, r := range map[string][2]int64{"start past end": {10, 12}, "negative start": {-1, 3}, "inverted range": {5, 2}} {
		if _, err := c.GetRange(ctx, "b", "k", r[0], r[1]); KindOf(err) != KindInvalidRange {
			t.Errorf("%s: kind %q (%v), want invalid_range", name, KindOf(err), err)
		}
	}
}

func TestGetRanges(t *testing.T) {
	st := store.New()
	st.Put("b", "k", []byte("abcdefgh"))
	c, ctx := NewInProc(st), context.Background()
	got, err := c.GetRanges(ctx, "b", "k", [][2]int64{{0, 1}, {4, 5}, {7, 7}})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]byte{[]byte("ab"), []byte("ef"), []byte("h")}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("GetRanges = %q", got)
	}
	if _, err := c.GetRanges(ctx, "b", "k", [][2]int64{{0, 1}, {99, 100}}); KindOf(err) != KindInvalidRange {
		t.Errorf("any bad range should fail the request: %v", err)
	}
}

// Property: GetRange(first, last) equals slicing the original payload.
func TestQuickRangeMatchesSlice(t *testing.T) {
	st := store.New()
	c, ctx := NewInProc(st), context.Background()
	f := func(data []byte, a, b uint16) bool {
		if len(data) == 0 {
			return true
		}
		st.Put("q", "k", data)
		first := int64(a) % int64(len(data))
		last := first + int64(b)%8
		got, err := c.GetRange(ctx, "q", "k", first, last)
		return err == nil && bytes.Equal(got, data[first:min(last+1, int64(len(data)))])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestInProcReadsWithoutCopy: the in-memory path hands out the slice the
// store retains — Get, and the ranges cut from it, alias the stored bytes.
func TestInProcReadsWithoutCopy(t *testing.T) {
	st := store.New()
	data := []byte("0123456789")
	st.Put("b", "k", data)
	c, ctx := NewInProc(st), context.Background()
	got, err := c.Get(ctx, "b", "k")
	if err != nil || &got[0] != &data[0] {
		t.Errorf("Get copied the object (%v)", err)
	}
	part, err := c.GetRange(ctx, "b", "k", 3, 4)
	if err != nil || &part[0] != &data[3] {
		t.Errorf("GetRange copied the range (%v)", err)
	}
}
