package s3api

import (
	"context"
	"errors"
	"fmt"
	"io/fs"

	"pushdowndb/internal/expr"
	"pushdowndb/internal/store"
)

// Kind classifies a storage error so callers can branch without parsing
// message strings (and so the HTTP backend can carry the class across the
// wire as a header instead of a status-code guess).
type Kind string

const (
	// KindNotFound: the bucket or key does not exist.
	KindNotFound Kind = "not_found"
	// KindInvalidRange: a byte range was unsatisfiable (HTTP 416).
	KindInvalidRange Kind = "invalid_range"
	// KindBadRequest: the request was malformed (bad Select SQL, bad key).
	KindBadRequest Kind = "bad_request"
	// KindUnsupported: the operation needs a capability this backend does
	// not advertise.
	KindUnsupported Kind = "unsupported"
	// KindCanceled: the request's context was canceled or timed out.
	KindCanceled Kind = "canceled"
	// KindInternal: everything else (I/O failures, wire errors).
	KindInternal Kind = "internal"
)

// Error is the structured error every Backend method returns on failure:
// which operation, against which object, and what class of failure. It
// wraps the underlying cause, so errors.Is/As (including context.Canceled)
// keep working through it.
type Error struct {
	Op     string // "get", "get_range", "get_ranges", "select", "list", "size", "put"
	Bucket string
	Key    string
	Kind   Kind
	Err    error
}

// Error implements error.
func (e *Error) Error() string {
	target := e.Bucket
	if e.Key != "" {
		target = e.Bucket + "/" + e.Key
	}
	if e.Err != nil {
		return fmt.Sprintf("s3api: %s %s: %s", e.Op, target, e.Err)
	}
	return fmt.Sprintf("s3api: %s %s: %s", e.Op, target, e.Kind)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *Error) Unwrap() error { return e.Err }

// KindOf returns the Kind of err if it is (or wraps) a *Error, and "" when
// it is not a storage error; except that a column a statement names and its
// input lacks (expr.ErrUnknownColumn), which a binding refuses on either side
// of the wire, is always the caller's to fix: KindBadRequest.
func KindOf(err error) Kind {
	var se *Error
	switch {
	case errors.As(err, &se):
		return se.Kind
	case errors.Is(err, expr.ErrUnknownColumn):
		return KindBadRequest
	}
	return ""
}

// IsNotFound reports whether err is a storage miss (no such bucket/key).
func IsNotFound(err error) bool { return KindOf(err) == KindNotFound }

// NewError builds a structured backend error, classifying well-known
// causes — a miss in the store or on disk is KindNotFound, a name the
// filesystem layout cannot hold (fs.ErrInvalid) KindBadRequest, context
// cancellation KindCanceled — so an Objects returns plain wrapped errors;
// anything else takes the given default kind.
func NewError(op, bucket, key string, kind Kind, err error) *Error {
	switch {
	case errors.Is(err, store.ErrNotFound), errors.Is(err, fs.ErrNotExist):
		kind = KindNotFound
	case errors.Is(err, fs.ErrInvalid):
		kind = KindBadRequest
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		kind = KindCanceled
	}
	return &Error{Op: op, Bucket: bucket, Key: key, Kind: kind, Err: err}
}

// ctxErr returns a KindCanceled error when ctx is already done, nil
// otherwise. Backends call it on entry so a canceled fan-out stops issuing
// requests promptly.
func ctxErr(ctx context.Context, op, bucket, key string) error {
	if err := ctx.Err(); err != nil {
		return &Error{Op: op, Bucket: bucket, Key: key, Kind: KindCanceled, Err: err}
	}
	return nil
}
