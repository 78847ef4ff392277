// Fixture for the errkind analyzer: error construction on backend paths
// (functions whose subtree calls an s3api.Backend/Putter method, or a
// storage operation of the engine's handle, s3api.Metered) versus purely
// local helpers, plus the suppression escape.
package errkind

import (
	"context"
	"errors"
	"fmt"

	"pushdowndb/internal/cloudsim"
	"pushdowndb/internal/s3api"
)

// Naked constructors on a backend path reach the server as "internal".
func nakedOnBackendPath(ctx context.Context, b s3api.Backend, bucket, key string) ([]byte, error) {
	data, err := b.Get(ctx, bucket, key)
	if err != nil {
		return nil, errors.New("object fetch failed") // want `errors\.New on a backend path builds an error with no s3api\.Kind`
	}
	if len(data) == 0 {
		return nil, fmt.Errorf("object %s/%s is empty", bucket, key) // want `fmt\.Errorf on a backend path builds an error with no s3api\.Kind`
	}
	return data, nil
}

// A priced call on the engine's handle on a backend is a backend path too.
func nakedBesideHandle(ctx context.Context, s s3api.Metered, ph *cloudsim.Phase, key string) ([]byte, error) {
	data, err := s.Get(ctx, ph, key)
	if err != nil {
		return nil, err
	}
	if len(data) == 0 {
		return nil, fmt.Errorf("object %s is empty", key) // want `fmt\.Errorf on a backend path builds an error with no s3api\.Kind`
	}
	return data, nil
}

// The handle's metadata methods reach no storage: not a backend path.
func handleMetadata(s s3api.Metered) error {
	if s.Name() == "" {
		return errors.New("unnamed backend")
	}
	return nil
}

// Wrapping with %w preserves the kind of the underlying storage error.
func wrapped(ctx context.Context, b s3api.Backend, bucket, key string) ([]byte, error) {
	data, err := b.Get(ctx, bucket, key)
	if err != nil {
		return nil, fmt.Errorf("fixture load %s: %w", key, err)
	}
	return data, nil
}

// Minting a kinded error directly is the other sanctioned pattern.
func kinded(ctx context.Context, b s3api.Backend, bucket, key string) ([]byte, error) {
	data, err := b.Get(ctx, bucket, key)
	if err != nil {
		return nil, s3api.NewError("get", bucket, key, s3api.KindNotFound, err)
	}
	return data, nil
}

// A closure inside the function also makes it a backend path.
func backendViaClosure(ctx context.Context, b s3api.Backend, bucket string, keys []string) error {
	probe := func(key string) error {
		_, err := b.Size(ctx, bucket, key)
		return err
	}
	for _, key := range keys {
		if err := probe(key); err != nil {
			return errors.New("probe failed") // want `errors\.New on a backend path`
		}
	}
	return nil
}

// Local validation never races a storage error to the server's
// classifier: out of scope, naked constructors are fine here.
func localValidation(parts int) error {
	if parts < 1 {
		return fmt.Errorf("errkind fixture: need at least one partition, got %d", parts)
	}
	return nil
}

// A documented suppression overrides the rule at a deliberate site.
func suppressed(ctx context.Context, b s3api.Backend, bucket, key string) error {
	if _, err := b.Get(ctx, bucket, key); err != nil {
		//lint:ignore errkind fixture pins that an honored suppression silences the analyzer
		return errors.New("suppressed naked error")
	}
	return nil
}
