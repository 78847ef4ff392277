package engine

import (
	"testing"

	"pushdowndb/internal/s3api"
)

// Exports for the external engine_test package, whose tests also need
// internal/tpch, which imports engine.

// DiffBucket and DiffLoad are the differential corpus's dataset.
const DiffBucket = diffBucket

func DiffLoad(t testing.TB, put s3api.Putter) { diffLoad(t, put) }

// DiffSQL returns the differential corpus's statements.
func DiffSQL() []string {
	out := make([]string, len(diffQueries))
	for i, q := range diffQueries {
		out[i] = q.sql
	}
	return out
}

// RankRows is TestTopKTailMatchesSortLimit's table of n rows.
func RankRows(n int) [][]string { return rankRows(n) }
