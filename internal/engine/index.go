package engine

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"pushdowndb/internal/index"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/sqlparse"
)

// Secondary-index catalog operations. An index is built once (CreateIndex
// scans every data partition and writes value-sorted
// |value|first_byte_offset|last_byte_offset| objects next to the data,
// plus a per-table manifest object), persists on the table's storage
// backend, and is rediscovered by any DB that opens the bucket later.
// Building and dropping are dataset-preparation operations like the
// loaders: they are not metered on any query's virtual clock. Querying
// through an index — the IndexScan access path in indexscan.go — is.

// CreateIndex builds (or rebuilds) the secondary index on table(column):
// one index object per data partition, written through the table's backend
// (which must accept writes — s3api.Putter), and an updated manifest. The
// table's cached statistics, cached select results for the index objects
// and the in-memory manifest view are invalidated so the next query plans
// against the fresh index.
func (db *DB) CreateIndex(ctx context.Context, table, column string) error {
	return db.CreateNamedIndex(ctx, "", table, column)
}

// CreateNamedIndex is CreateIndex with an explicit index name (the SQL
// front end's CREATE INDEX name ON table (column)); an empty name derives
// ix_<table>_<column>.
func (db *DB) CreateNamedIndex(ctx context.Context, name, table, column string) error {
	s := db.store(table)
	keys, err := s.List(ctx, table+"/part")
	if err != nil {
		return err
	}
	if len(keys) == 0 {
		return s3api.NewError("list", db.bucket, table+"/part", s3api.KindNotFound,
			fmt.Errorf("engine: table %q has no partitions in bucket %q on backend %q",
				table, db.bucket, s.Name()))
	}
	if name == "" {
		name = "ix_" + table + "_" + sqlparse.NameKey(column)
	}
	ent := index.Entry{
		Name: name, Column: column,
		Partitions: len(keys),
		DataSizes:  make([]int64, len(keys)),
	}
	for i, key := range keys {
		data, err := s.Unbilled().Get(ctx, db.bucket, key)
		if err != nil {
			return err
		}
		idxData, err := index.BuildPartition(data, column)
		if err != nil {
			return fmt.Errorf("engine: indexing %s: %w", key, err)
		}
		if err := s.Put(ctx, index.ObjectKey(table, column, i), idxData); err != nil {
			return err
		}
		ent.DataSizes[i] = int64(len(data))
		ent.IndexBytes += int64(len(idxData))
	}
	if err := db.updateManifest(ctx, table, func(m *index.Manifest) error {
		m.Set(ent)
		return nil
	}); err != nil {
		return err
	}
	db.dropIndexCaches(table, column)
	return nil
}

// DropIndex retires the index on table(column) from the manifest. The
// index objects themselves are left behind (backends expose no delete);
// they are orphaned bytes a future CreateIndex on the same column
// overwrites, and nothing reads them once the manifest entry is gone.
func (db *DB) DropIndex(ctx context.Context, table, column string) error {
	err := db.updateManifest(ctx, table, func(m *index.Manifest) error {
		if !m.Remove(column) {
			return fmt.Errorf("engine: no index on %s(%s)", table, column)
		}
		return nil
	})
	if err != nil {
		return err
	}
	db.dropIndexCaches(table, column)
	return nil
}

// DropNamedIndex retires the index called name on table (the SQL front
// end's DROP INDEX name ON table).
func (db *DB) DropNamedIndex(ctx context.Context, table, name string) error {
	var column string
	err := db.updateManifest(ctx, table, func(m *index.Manifest) error {
		for _, e := range m.Indexes {
			if strings.EqualFold(e.Name, name) {
				column = e.Column
				m.Remove(e.Column)
				return nil
			}
		}
		return fmt.Errorf("engine: no index named %q on table %s", name, table)
	})
	if err != nil {
		return err
	}
	db.dropIndexCaches(table, column)
	return nil
}

// Indexes returns the table's live (non-stale) index entries, sorted by
// column. A table with no manifest has no indexes.
func (db *DB) Indexes(ctx context.Context, table string) []index.Entry {
	m := db.indexManifest(ctx, table)
	var out []index.Entry
	for _, e := range m.Indexes {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Column < out[j].Column })
	return out
}

// updateManifest applies fn to the table's stored manifest (reading the
// raw object, not the validated in-memory view) and writes it back.
func (db *DB) updateManifest(ctx context.Context, table string, fn func(*index.Manifest) error) error {
	m, err := db.loadManifest(ctx, table)
	if err != nil {
		return err
	}
	if err := fn(m); err != nil {
		return err
	}
	return db.store(table).Put(ctx, index.ManifestKey(table), m.Encode())
}

// loadManifest reads and decodes the table's manifest object, returning an
// empty manifest when none exists yet.
func (db *DB) loadManifest(ctx context.Context, table string) (*index.Manifest, error) {
	data, err := db.store(table).Unbilled().Get(ctx, db.bucket, index.ManifestKey(table))
	if err != nil {
		if s3api.IsNotFound(err) {
			return index.NewManifest(), nil
		}
		return nil, err
	}
	return index.DecodeManifest(data)
}

// indexManifest returns the table's validated index view, loading it from
// storage on first use: entries whose recorded data-partition sizes no
// longer match the live partitions are dropped (the index would resolve
// byte ranges into rewritten objects), as is everything when the manifest
// is missing or unreadable. Catalog reads are not metered — they are the
// engine's own metadata, refreshed per DB and after InvalidateTable, not
// per query.
func (db *DB) indexManifest(ctx context.Context, table string) *index.Manifest {
	m, gen := db.metaOf(table)
	if m.manifest != nil {
		return m.manifest
	}
	man := db.validatedManifest(ctx, table)
	db.remember(table, gen, func(m tableMeta) tableMeta {
		m.manifest = man
		return m
	})
	return man
}

// validatedManifest loads the stored manifest and filters out stale
// entries. Any read failure yields an empty manifest: an index the engine
// cannot vouch for is an index it must not use.
func (db *DB) validatedManifest(ctx context.Context, table string) *index.Manifest {
	m, err := db.loadManifest(ctx, table)
	if err != nil {
		return index.NewManifest()
	}
	if len(m.Indexes) == 0 {
		return m
	}
	sizes, err := db.livePartSizes(ctx, table)
	if err != nil {
		return index.NewManifest()
	}
	for col, e := range m.Indexes {
		if e.Stale(sizes) {
			delete(m.Indexes, col)
		}
	}
	return m
}

// livePartSizes lists the table's partitions and sizes them: the staleness
// stamps an index manifest and a statistics object are checked against.
func (db *DB) livePartSizes(ctx context.Context, table string) ([]int64, error) {
	s := db.store(table)
	keys, err := s.List(ctx, table+"/part")
	if err != nil {
		return nil, err
	}
	sizes := make([]int64, len(keys))
	for i, k := range keys {
		if sizes[i], err = s.Unbilled().Size(ctx, db.bucket, k); err != nil {
			return nil, err
		}
	}
	return sizes, nil
}

// dropIndexCaches invalidates what a rebuilt or dropped index makes stale:
// the in-memory manifest view, cached planner stats of the table (their
// index-matched counts referenced the old index), and select responses
// against the index objects — resident, in flight to the cache, or in
// flight as a shared pass.
func (db *DB) dropIndexCaches(table, column string) {
	db.void(table, index.Table(table, column)+"/")
}
