package harness

import (
	"context"
	"strconv"
	"strings"
	"testing"
)

// TestRunSharedCostFallsWithClients is the acceptance check for the Shared
// figure: the unshared series is flat in client count, so at every width of
// 4 or more the shared series must be strictly cheaper per query, and the
// shared series itself must fall as clients are added — one pushed pass
// serving the whole batch is the subsystem's economic reason to exist.
func TestRunSharedCostFallsWithClients(t *testing.T) {
	env := NewEnv(SmallScale())
	res, err := RunShared(context.Background(), env)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, res)
	for _, n := range sharedFigClientCounts {
		un, ok1 := res.Get("unshared", strconv.Itoa(n))
		sh, ok2 := res.Get("shared", strconv.Itoa(n))
		if !ok1 || !ok2 {
			t.Fatalf("missing points at %d clients:\n%s", n, res)
		}
		if n >= 4 {
			if sh.Cost.Total() >= un.Cost.Total() {
				t.Errorf("%d clients: shared cost/query $%.8f not strictly below unshared $%.8f",
					n, sh.Cost.Total(), un.Cost.Total())
			}
			if sh.Extra["coalesced"] == 0 {
				t.Errorf("%d clients: shared round coalesced nothing", n)
			}
			if avg := sh.Extra["sharers_avg"]; avg <= 1 {
				t.Errorf("%d clients: sharers per pass %.2f, want > 1", n, avg)
			}
		}
		t.Logf("%d clients: unshared $%.6f shared $%.6f (coalesced=%.0f, sharers_avg=%.1f, saved %.1f MB)",
			n, un.Cost.Total(), sh.Cost.Total(),
			sh.Extra["coalesced"], sh.Extra["sharers_avg"], sh.Extra["scan_saved_MB"])
	}
	wide, _ := res.Get("shared", strconv.Itoa(sharedFigClientCounts[len(sharedFigClientCounts)-1]))
	solo, _ := res.Get("shared", "1")
	if wide.Cost.Total() >= solo.Cost.Total() {
		t.Errorf("shared cost/query did not fall with width: $%.8f at %d clients vs $%.8f solo",
			wide.Cost.Total(), sharedFigClientCounts[len(sharedFigClientCounts)-1], solo.Cost.Total())
	}
	if !strings.Contains(res.String(), "Shared") {
		t.Error("result does not render")
	}
}
