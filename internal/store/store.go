// Package store implements the object-store substrate standing in for
// Amazon S3: buckets of immutable byte objects addressed by key. Ranged
// reads, S3 Select and error kinds are s3api.Local's, over this store or a
// directory alike.
//
// Tables are stored as one or more partition objects under a common prefix,
// e.g. customer/part0000.csv — the layout PushdownDB uses to load
// partitions in parallel. The store is safe for concurrent use.
package store

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// ErrNotFound marks a missing bucket or key. Store errors wrap it so
// s3api.NewError can kind them without parsing messages.
var ErrNotFound = errors.New("not found")

// Store is an in-memory object store.
type Store struct {
	mu      sync.RWMutex
	buckets map[string]map[string][]byte
}

// New returns an empty store.
func New() *Store {
	return &Store{buckets: map[string]map[string][]byte{}}
}

// CreateBucket creates a bucket; creating an existing bucket is an error.
func (s *Store) CreateBucket(bucket string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.buckets[bucket]; ok {
		return fmt.Errorf("store: bucket %q already exists", bucket)
	}
	s.buckets[bucket] = map[string][]byte{}
	return nil
}

// Put stores an object, creating the bucket implicitly if needed. The data
// slice is retained; callers must not mutate it afterwards.
func (s *Store) Put(bucket, key string, data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.buckets[bucket]
	if !ok {
		b = map[string][]byte{}
		s.buckets[bucket] = b
	}
	b[key] = data
}

// Delete removes an object if present.
func (s *Store) Delete(bucket, key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if b, ok := s.buckets[bucket]; ok {
		delete(b, key)
	}
}

// Get returns the full object payload.
func (s *Store) Get(bucket, key string) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	data, err := s.lookup(bucket, key)
	if err != nil {
		return nil, err
	}
	return data, nil
}

// Size returns the object length in bytes.
func (s *Store) Size(bucket, key string) (int64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	data, err := s.lookup(bucket, key)
	if err != nil {
		return 0, err
	}
	return int64(len(data)), nil
}

// List returns the keys in bucket with the given prefix, sorted.
func (s *Store) List(bucket, prefix string) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b := s.buckets[bucket]
	var keys []string
	for k := range b {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

func (s *Store) lookup(bucket, key string) ([]byte, error) {
	b, ok := s.buckets[bucket]
	if !ok {
		return nil, fmt.Errorf("store: no such bucket %q: %w", bucket, ErrNotFound)
	}
	data, ok := b[key]
	if !ok {
		return nil, fmt.Errorf("store: no such key %q in bucket %q: %w", key, bucket, ErrNotFound)
	}
	return data, nil
}

// PartitionKey formats the canonical key of partition i of a table.
func PartitionKey(table string, i int) string {
	return fmt.Sprintf("%s/part%04d.csv", table, i)
}

// TableParts lists the partition keys of a table stored under the
// PartitionKey convention.
func (s *Store) TableParts(bucket, table string) []string {
	return s.List(bucket, table+"/part")
}

// TableSize sums the byte sizes of all partitions of a table.
func (s *Store) TableSize(bucket, table string) int64 {
	var total int64
	for _, k := range s.TableParts(bucket, table) {
		n, err := s.Size(bucket, k)
		if err == nil {
			total += n
		}
	}
	return total
}
