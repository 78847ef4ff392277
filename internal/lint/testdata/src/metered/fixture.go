// Fixture for the metered analyzer: priced s3api.Backend calls with and
// without an open *cloudsim.Phase in scope, exempt catalog operations,
// and the documented suppression escape.
package metered

import (
	"context"

	"pushdowndb/internal/cloudsim"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/selectengine"
)

// No phase anywhere in the function: the operation escapes the cost model.
func unmetered(ctx context.Context, b s3api.Backend, bucket, key string) ([]byte, error) {
	return b.Get(ctx, bucket, key) // want `s3api\.Backend\.Get with no \*cloudsim\.Phase open in the enclosing function`
}

// A backend's select pipeline is priced like the backend it ends in.
func unmeteredPipeline(ctx context.Context, sel s3api.Selector, bucket, key string) error {
	_, err := sel.Select(ctx, bucket, key, selectengine.Request{SQL: "SELECT * FROM S3Object"}) // want `s3api\.Backend\.Select with no \*cloudsim\.Phase open`
	return err
}

// A phase opened before the call satisfies the invariant.
func meteredLocal(ctx context.Context, b s3api.Backend, m *cloudsim.Metrics, bucket, key string) ([]byte, error) {
	phase := m.Phase("fixture get", 0)
	data, err := b.Get(ctx, bucket, key)
	if err == nil {
		phase.AddGetRequest(int64(len(data)))
	}
	return data, err
}

// A *cloudsim.Phase parameter counts: the caller opened it.
func meteredByParam(ctx context.Context, b s3api.Backend, phase *cloudsim.Phase, bucket, key string) (int64, error) {
	n, err := b.Size(ctx, bucket, key)
	if err == nil {
		phase.AddGetRequest(0)
	}
	return n, err
}

// A step — a struct holding the phase it meters — counts as an open phase.
type step struct{ *cloudsim.Phase }

func meteredByStep(ctx context.Context, b s3api.Backend, st step, bucket, key string) (int64, error) {
	return b.Size(ctx, bucket, key)
}

// A phase in an enclosing function is visible inside closures.
func meteredInClosure(ctx context.Context, b s3api.Backend, m *cloudsim.Metrics, bucket string, keys []string) error {
	phase := m.Phase("fixture sweep", 0)
	for _, key := range keys {
		fetch := func() error {
			_, err := b.GetRange(ctx, bucket, key, 0, 15)
			return err
		}
		if err := fetch(); err != nil {
			return err
		}
		phase.AddRangedGetRequest(1, 1)
	}
	return nil
}

// The declaration must precede the call: a phase opened afterwards cannot
// have metered it.
func phaseOpenedTooLate(ctx context.Context, b s3api.Backend, m *cloudsim.Metrics, bucket, key string) (int64, error) {
	n, err := b.Size(ctx, bucket, key) // want `s3api\.Backend\.Size with no \*cloudsim\.Phase open`
	phase := m.Phase("fixture late", 0)
	phase.AddGetRequest(0)
	return n, err
}

// List is catalog traffic, never billed to a query: exempt by design.
func catalogList(ctx context.Context, b s3api.Backend, bucket, prefix string) ([]string, error) {
	return b.List(ctx, bucket, prefix)
}

// A documented suppression marks a deliberate catalog read.
func manifestRead(ctx context.Context, b s3api.Backend, bucket string) ([]byte, error) {
	//lint:ignore metered catalog read: fixture manifest is engine metadata, never billed to a query
	return b.Get(ctx, bucket, "manifest")
}
