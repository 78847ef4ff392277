package engine

import (
	"context"
	"fmt"
	"os"

	"pushdowndb/internal/colformat"
	"pushdowndb/internal/csvx"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/store"
	"pushdowndb/internal/value"
)

// Loading helpers write tables into the store at setup time. They bypass
// the metered client deliberately: dataset preparation is not part of any
// query's cost (the paper pre-loads TPC-H into S3 before measuring).

// PartitionTable writes rows as parts CSV partition objects (each with the
// header row) under table/partNNNN.csv, mirroring how PushdownDB lays out
// S3 data for parallel loading. Canceling ctx stops the load between
// partition writes.
func PartitionTable(ctx context.Context, st *store.Store, bucket, table string, header []string, rows [][]string, parts int) error {
	return PartitionTableTo(ctx, s3api.NewInProc(st), bucket, table, header, rows, parts)
}

// PartitionTableTo writes rows as partition objects through any backend
// that accepts writes (s3api.Putter) — the loading path for backends that
// are not a *store.Store, e.g. localfs.
func PartitionTableTo(ctx context.Context, p s3api.Putter, bucket, table string, header []string, rows [][]string, parts int) error {
	return writeTable(func(key string, data []byte) error { return p.Put(ctx, bucket, key, data) },
		table, "csv", header, len(rows), parts, strideSample(rows),
		func(lo, hi int) ([]byte, error) { return csvx.Encode(header, rows[lo:hi]), nil })
}

// LoadCSVFile reads the CSV file at path (first line the header) and writes
// it through p as table, in parts partitions; it returns the row count.
func LoadCSVFile(ctx context.Context, p s3api.Putter, bucket, table, path string, parts int) (rows int, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	header, recs, err := csvx.Decode(data, true)
	if err != nil {
		return 0, fmt.Errorf("parsing %s: %w", path, err)
	}
	return len(recs), PartitionTableTo(ctx, p, bucket, table, header, recs, parts)
}

// writeTable writes a table of nrows rows as parts partition objects —
// encode renders rows [lo, hi) — and then, last, its statistics object
// (tablestats.go): a reader racing a reload finds stale stamps, not a lie.
func writeTable(put func(key string, data []byte) error, table, format string, cols []string, nrows, parts int,
	sample [][]string, encode func(lo, hi int) ([]byte, error)) error {
	parts = max(parts, 1)
	per := max((nrows+parts-1)/parts, 1)
	sizes := make([]int64, parts)
	for i := range sizes {
		data, err := encode(min(i*per, nrows), min((i+1)*per, nrows))
		if err == nil {
			err = put(store.PartitionKey(table, i), data)
		}
		if err != nil {
			return err
		}
		sizes[i] = int64(len(data))
	}
	// Each sample row is as wide as the header (value.CSVCell): "" is NULL.
	shaped := make([][]string, len(sample))
	for i, row := range sample {
		shaped[i] = make([]string, len(cols))
		copy(shaped[i], row)
	}
	return put(StatsKey(table), encodeTableStats(format, cols, nrows, sizes, shaped))
}

// PartitionTableColumnar writes rows as columnar (Parquet stand-in)
// partitions under table/partNNNN.csv keys. The key suffix stays .csv so
// partition listing is uniform; readers detect the format by magic.
func PartitionTableColumnar(st *store.Store, bucket, table string, schema colformat.Schema, rows [][]value.Value, parts, groupRows int, compress bool) error {
	// The sample is stored as the CSV text S3 Select would render the rows
	// as, whatever the table's own format.
	typed := strideSample(rows)
	sample := make([][]string, len(typed))
	for i, row := range typed {
		sample[i] = make([]string, len(row))
		for j, v := range row {
			sample[i][j] = v.String()
		}
	}
	return writeTable(func(key string, data []byte) error { st.Put(bucket, key, data); return nil },
		table, "columnar", schema.Names(), len(rows), parts, sample,
		func(lo, hi int) ([]byte, error) { return colformat.Encode(schema, rows[lo:hi], groupRows, compress) })
}
