package tpch

import (
	"context"
	"fmt"

	"pushdowndb/internal/engine"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/store"
)

// Dataset describes one generated TPC-H instance.
type Dataset struct {
	// SF is the TPC-H scale factor (the paper uses 10; tests use much
	// smaller values — selectivities are scale-invariant).
	SF float64
	// Seed makes generation deterministic.
	Seed int64
	// Bucket receives the table objects.
	Bucket string
	// Partitions is the object count per large table (the paper
	// partitions each table for parallel loading; 32 matches the paper's
	// compute parallelism).
	Partitions int
}

// WithDefaults fills unset fields.
func (d Dataset) WithDefaults() Dataset {
	if d.SF <= 0 {
		d.SF = 0.01
	}
	if d.Bucket == "" {
		d.Bucket = "tpch"
	}
	if d.Partitions <= 0 {
		d.Partitions = 32
	}
	return d
}

// Load generates every TPC-H table at the dataset's scale factor and
// writes the partitioned CSV objects into the store. Canceling ctx stops
// the load between tables.
func Load(ctx context.Context, st *store.Store, d Dataset) (Dataset, error) {
	d = d.WithDefaults()
	orders := GenOrders(d.SF, d.Seed)
	steps := []struct {
		table  string
		header []string
		rows   [][]string
		parts  int
	}{
		{"customer", CustomerHeader, GenCustomers(d.SF, d.Seed), d.Partitions},
		{"orders", OrdersHeader, orders, d.Partitions},
		{"lineitem", LineitemHeader, GenLineitems(d.SF, d.Seed, orders), d.Partitions},
		{"part", PartHeader, GenParts(d.SF, d.Seed), d.Partitions},
		{"supplier", SupplierHeader, GenSuppliers(d.SF, d.Seed), 1},
		{"nation", NationHeader, GenNations(), 1},
		{"region", RegionHeader, GenRegions(), 1},
	}
	for _, s := range steps {
		if err := engine.PartitionTable(ctx, st, d.Bucket, s.table, s.header, s.rows, s.parts); err != nil {
			return d, fmt.Errorf("tpch: loading %s: %w", s.table, err)
		}
	}
	return d, nil
}

// LoadWithIndexes loads the dataset and builds, through the engine's own
// index catalog (DB.CreateIndex), a secondary index on
// lineitem(l_extendedprice): what pushdownd -demo serves, so a statement
// filtering on the price has an IndexScan to plan.
func LoadWithIndexes(ctx context.Context, st *store.Store, d Dataset) (Dataset, error) {
	d, err := Load(ctx, st, d)
	if err != nil {
		return d, err
	}
	db, err := engine.Open(d.Bucket, engine.WithBackend("load", s3api.NewInProc(st)))
	if err != nil {
		return d, err
	}
	return d, db.CreateIndex(ctx, "lineitem", "l_extendedprice")
}
