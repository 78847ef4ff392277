package localfs_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"pushdowndb/internal/localfs"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/s3api/conformancetest"
)

func TestLocalFSConformance(t *testing.T) {
	conformancetest.Run(t, func(t *testing.T) conformancetest.Env {
		b := localfs.New(t.TempDir())
		return conformancetest.Env{
			Backend: b,
			Put: func(bucket, key string, data []byte) {
				if err := b.Put(context.Background(), bucket, key, data); err != nil {
					t.Fatalf("seed put %s/%s: %v", bucket, key, err)
				}
			},
		}
	})
}

func TestLocalFSRejectsEscapingKeys(t *testing.T) {
	b := localfs.New(t.TempDir())
	ctx := context.Background()
	for _, key := range []string{"../outside", "a/../../b", "/abs", ""} {
		if err := b.Put(ctx, "bkt", key, []byte("x")); err == nil {
			t.Errorf("Put(%q) should be rejected", key)
		}
		if _, err := b.Get(ctx, "bkt", key); err == nil {
			t.Errorf("Get(%q) should be rejected", key)
		}
	}
	// Buckets cannot escape the root either.
	for _, bucket := range []string{"..", ".", "", "a/b", `a\b`} {
		if err := b.Put(ctx, bucket, "k", []byte("x")); err == nil {
			t.Errorf("Put(bucket %q) should be rejected", bucket)
		}
		if _, err := b.Get(ctx, bucket, "k"); err == nil {
			t.Errorf("Get(bucket %q) should be rejected", bucket)
		}
	}
}

// TestLocalFSReservesItsTempPrefix states the one legal key localfs refuses:
// a last element starting ".tmp-" (the name of a Put's temporary file) is a
// bad request on every call, such a file left on disk by a crashed Put is
// not an object, and the prefix is free anywhere else in a key.
func TestLocalFSReservesItsTempPrefix(t *testing.T) {
	dir := t.TempDir()
	b := localfs.New(dir)
	ctx := context.Background()
	if err := b.Put(ctx, "bkt", ".tmp-dir/real", []byte("x")); err != nil {
		t.Fatalf("the prefix on a non-final element must be storable: %v", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "bkt", ".tmp-123"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{".tmp-123", ".tmp-", ".tmp-dir/.tmp-x"} {
		if err := b.Put(ctx, "bkt", key, []byte("x")); s3api.KindOf(err) != s3api.KindBadRequest {
			t.Errorf("Put(%q) = %v, want bad_request", key, err)
		}
		if _, err := b.Get(ctx, "bkt", key); s3api.KindOf(err) != s3api.KindBadRequest {
			t.Errorf("Get(%q) = %v, want bad_request", key, err)
		}
		if _, err := b.Size(ctx, "bkt", key); s3api.KindOf(err) != s3api.KindBadRequest {
			t.Errorf("Size(%q) = %v, want bad_request", key, err)
		}
	}
	keys, err := b.List(ctx, "bkt", "")
	if err != nil || !reflect.DeepEqual(keys, []string{".tmp-dir/real"}) {
		t.Errorf("List = %q, %v; want only the real object", keys, err)
	}
}

// TestLocalFSPutIsAtomic: a reader racing an overwrite sees the old object
// or the new one, never a truncated or mixed one (engine.writeTable relies
// on it: "a reader racing a reload finds stale stamps, not a lie"), and
// List never shows the temporary file a Put writes through.
func TestLocalFSPutIsAtomic(t *testing.T) {
	b := localfs.New(t.TempDir())
	ctx := context.Background()
	payloads := [2][]byte{bytes.Repeat([]byte("a"), 3<<20), bytes.Repeat([]byte("b"), 4<<20)}
	if err := b.Put(ctx, "bkt", "t/part0000.csv", payloads[0]); err != nil {
		t.Fatal(err)
	}
	var (
		wg          sync.WaitGroup
		done        atomic.Bool
		reads, torn atomic.Int64
	)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				got, err := b.Get(ctx, "bkt", "t/part0000.csv")
				reads.Add(1)
				if err != nil || !(bytes.Equal(got, payloads[0]) || bytes.Equal(got, payloads[1])) {
					torn.Add(1)
				}
				keys, err := b.List(ctx, "bkt", "")
				if err != nil || len(keys) != 1 {
					t.Errorf("List during a Put = %q, %v", keys, err)
					return
				}
			}
		}()
	}
	for i := 1; i <= 100; i++ {
		if err := b.Put(ctx, "bkt", "t/part0000.csv", payloads[i%2]); err != nil {
			t.Error(err)
			break
		}
	}
	done.Store(true)
	wg.Wait()
	if n := torn.Load(); n > 0 {
		t.Errorf("%d of %d reads saw neither payload", n, reads.Load())
	}
}
