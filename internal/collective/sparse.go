package collective

import (
	"errors"
	"fmt"

	"psrahgadmm/internal/sparse"
	"psrahgadmm/internal/wire"
)

// ErrPayloadKind reports that a message of the wrong payload kind arrived
// on a sparse collective's tag — a protocol confusion (mis-tagged dense or
// control traffic) that must surface as an error on the receiving member,
// never as a nil-dereference panic.
var ErrPayloadKind = errors.New("collective: unexpected payload kind")

// SparsePayload returns the sparse vector a received frame carries, or an
// error wrapping ErrPayloadKind when the frame is of another kind or its
// vector is not of dimension dim (dim < 0 accepts any). It is the one
// payload check of every sparse receive, here and in package wlg, and it
// reads the frame in place: a hot receive loop pays for no copy of its
// header.
func SparsePayload(in *wire.Message, dim int) (*sparse.Vector, error) {
	if in.Kind != wire.KindSparse || in.Sparse == nil {
		return nil, fmt.Errorf("collective: tag %d from %d carries kind %v, want sparse: %w",
			in.Tag, in.From, in.Kind, ErrPayloadKind)
	}
	if dim >= 0 && in.Sparse.Dim != dim {
		return nil, fmt.Errorf("collective: tag %d from %d carries dimension %d, want %d: %w",
			in.Tag, in.From, in.Sparse.Dim, dim, ErrPayloadKind)
	}
	return in.Sparse, nil
}
