package harness

import (
	"context"
	"fmt"

	"pushdowndb/internal/cloudsim"
	"pushdowndb/internal/engine"
	"pushdowndb/internal/s3api"
)

// BackendProfiles is the storage-tier sweep of the Backends figure: the
// same TPC-H data served from a local NVMe tier, in-region S3 (the
// paper's testbed), cross-region S3, and a congested thin-WAN remote.
// Each profile is what an s3api.Backend of that class advertises.
func BackendProfiles() []cloudsim.Profile {
	return []cloudsim.Profile{
		cloudsim.LocalFSProfile(),
		cloudsim.S3Profile(),
		cloudsim.CrossRegionS3Profile(),
		{
			Name:               "thin-wan",
			NetworkBytesPerSec: 2e6,
			RequestRTTSec:      0.05,
			RequestPer1000:     0.0004,
			ScanPerGB:          0.002,
			ReturnPerGB:        0.0007,
			TransferPerGB:      0.09,
		},
	}
}

// RunBackends shows the planner reacting to the storage backend: the
// Listing-2 join is planned and executed against backends advertising the
// BackendProfiles sweep, at the loosest Fig. 2 customer filter and the
// full 32-core worker budget (where the baseline-vs-Bloom decision is
// closest — a parallel server can out-parse a fast link's full-table
// loads). Fast, free tiers make the baseline full-load join cheapest;
// thin metered links flip the choice to the Bloom pushdown, because no
// amount of server parallelism speeds up the wire and shrinking the
// probe-side transfer saves real seconds and egress dollars. Every
// backend must still produce the same answer — only the strategy and the
// bill move.
func RunBackends(ctx context.Context, env *Env) (*Result, error) {
	res := &Result{
		ID:     "Backends",
		Title:  "Join strategy choice vs storage backend (Listing-2 join, loosest filter)",
		XLabel: "backend",
		Notes: []string{
			fmt.Sprintf("same Listing-2 join (c_acctbal <= %s) on every backend; answers are identical", loosestAcctbal),
			"series name records the strategy chosen per backend profile; est columns are its per-strategy runtime estimates",
		},
	}
	sameOnEveryBackend := acrossX(sameRows)
	for _, profile := range BackendProfiles() {
		if _, err := res.sweep(ctx, env.TPCH(s3api.WithProfile(profile)), []string{profile.Name}, func(db *engine.DB, _ int) ([]series, check) {
			// Full worker budget: server-side parse and row work run across
			// all 32 cores, so the backend link is what differentiates.
			db.Cfg.Workers = db.Cfg.Cores
			return []series{{name: "Planner", run: query(db, listing2SQL(loosestAcctbal, "")), note: planned(true)}}, sameOnEveryBackend
		}); err != nil {
			return nil, err
		}
	}
	// Every series is named after a strategy.
	res.Notes = append(res.Notes, fmt.Sprintf("distinct strategies chosen across backends: %d", len(res.SeriesNames())))
	return res, nil
}
