package harness

import (
	"context"
	"strings"
	"testing"
)

// TestRunCacheWarmBeatsCold is the acceptance check for the Cache figure:
// on the metered S3 and CrossRegionS3 profiles, the warm repeat of every
// query must cost strictly less (and run no slower) than its cold run.
func TestRunCacheWarmBeatsCold(t *testing.T) {
	env := NewEnv(SmallScale())
	res, err := RunCache(context.Background(), env)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, res)
	queries := []string{"scan", "join"}
	for _, profile := range []string{"s3", "s3-cross-region"} {
		for _, q := range queries {
			cold, ok1 := res.Get(q+" cold", profile)
			warm, ok2 := res.Get(q+" warm", profile)
			if !ok1 || !ok2 {
				t.Fatalf("missing %s points for %s:\n%s", q, profile, res)
			}
			if warm.Cost.Total() >= cold.Cost.Total() {
				t.Errorf("%s on %s: warm cost $%.8f not strictly below cold $%.8f",
					q, profile, warm.Cost.Total(), cold.Cost.Total())
			}
			if warm.RuntimeSec > cold.RuntimeSec {
				t.Errorf("%s on %s: warm runtime %.3fs above cold %.3fs",
					q, profile, warm.RuntimeSec, cold.RuntimeSec)
			}
		}
		// The scan workload is always select-based, so its warm repeat must
		// actually have been served from the cache.
		warm, _ := res.Get("scan warm", profile)
		if warm.Extra["cache_hits"] == 0 {
			t.Errorf("scan warm on %s recorded no cache hits", profile)
		}
	}
	// The figure carries the localfs tier too (cost there is compute-only).
	if _, ok := res.Get("scan warm", "localfs"); !ok {
		t.Errorf("localfs points missing:\n%s", res)
	}
	if !strings.Contains(res.String(), "Cache") {
		t.Error("result does not render")
	}
}
