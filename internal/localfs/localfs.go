// Package localfs keeps objects in a directory tree on the local
// filesystem: <root>/<bucket>/<key>, key slashes mapped to subdirectories.
// Dir is the object source; New serves it through s3api.Local, so S3 Select
// runs in-process against the file bytes: pushdown works, it just costs
// nothing extra on the wire. By default it advertises cloudsim.LocalFSProfile
// (wide, sub-millisecond, no dollar cost) — the "fast local tier" where a
// Bloom-pushdown join is usually cheapest as a plain baseline load.
package localfs

import (
	"fmt"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"

	"pushdowndb/internal/cloudsim"
	"pushdowndb/internal/s3api"
)

// Dir is an s3api.Objects rooted at a directory (created lazily by Write).
type Dir string

// New returns the backend over the objects under dir.
func New(dir string, opts ...s3api.Option) *s3api.Local {
	return s3api.NewLocal(Dir(dir), append([]s3api.Option{s3api.WithProfile(cloudsim.LocalFSProfile())}, opts...)...)
}

// tmpPrefix starts the name of a Write's temporary file and is reserved: a key
// whose last element has it is a bad request and List hides such files (one
// a crash mid-Write left behind is no object and may be deleted).
const tmpPrefix = ".tmp-"

// bucketDir validates bucket and maps it under the root.
func (d Dir) bucketDir(bucket string) (string, error) {
	if bucket == "" || bucket == "." || bucket == ".." || strings.ContainsAny(bucket, `/\`) {
		return "", fmt.Errorf("localfs: bad bucket %q: %w", bucket, fs.ErrInvalid)
	}
	return filepath.Join(string(d), bucket), nil
}

// path maps a validated bucket/key under the root; empty, reserved or escaping
// names (".." elements, absolute keys) are rejected, not resolved.
func (d Dir) path(bucket, key string) (string, error) {
	dir, err := d.bucketDir(bucket)
	if err != nil {
		return "", err
	}
	if key == "" || strings.HasPrefix(key, "/") || path.Clean("/"+key) != "/"+key ||
		strings.HasPrefix(path.Base(key), tmpPrefix) {
		return "", fmt.Errorf("localfs: bad key %q: %w", key, fs.ErrInvalid)
	}
	return filepath.Join(dir, filepath.FromSlash(key)), nil
}

// Read implements s3api.Objects.
func (d Dir) Read(bucket, key string) ([]byte, error) {
	p, err := d.path(bucket, key)
	if err != nil {
		return nil, err
	}
	return os.ReadFile(p)
}

// Size implements s3api.Objects.
func (d Dir) Size(bucket, key string) (int64, error) {
	p, err := d.path(bucket, key)
	if err != nil {
		return 0, err
	}
	fi, err := os.Stat(p)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// List implements s3api.Objects. A missing bucket directory lists empty.
func (d Dir) List(bucket, prefix string) ([]string, error) {
	dir, err := d.bucketDir(bucket)
	if err != nil {
		return nil, err
	}
	var keys []string
	err = filepath.WalkDir(dir, func(p string, ent fs.DirEntry, err error) error {
		if os.IsNotExist(err) {
			return nil // no such bucket, or a file gone mid-walk
		} else if err != nil || ent.IsDir() || strings.HasPrefix(ent.Name(), tmpPrefix) {
			return err
		}
		rel, err := filepath.Rel(dir, p)
		if key := filepath.ToSlash(rel); err == nil && strings.HasPrefix(key, prefix) {
			keys = append(keys, key)
		}
		return err
	})
	sort.Strings(keys)
	return keys, err
}

// Write implements s3api.Objects: a temporary file beside the target, renamed
// over it, so a concurrent Read sees the old or the new object, never a torn one.
func (d Dir) Write(bucket, key string, data []byte) error {
	p, err := d.path(bucket, key)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(filepath.Dir(p), tmpPrefix)
	if err != nil {
		return err
	}
	if err = f.Chmod(0o644); err == nil {
		_, err = f.Write(data)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), p)
	}
	if err != nil {
		_ = os.Remove(f.Name()) // best effort: the write already failed
	}
	return err
}
