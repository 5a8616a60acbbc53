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

// sparsePayload validates that an arrival actually carries a sparse
// vector before any field of it is dereferenced. It reads the arrival in
// place: a hot receive loop pays for no copy of its header.
func sparsePayload(in *wire.Message) (*sparse.Vector, error) {
	if in.Kind != wire.KindSparse || in.Sparse == nil {
		return nil, fmt.Errorf("collective: tag %d from %d carries kind %v, want sparse: %w",
			in.Tag, in.From, in.Kind, ErrPayloadKind)
	}
	return in.Sparse, nil
}
