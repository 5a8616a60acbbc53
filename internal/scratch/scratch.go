// Package scratch provides a length-bucketed free list for the []byte
// wire-encode buffers the transports churn through. It wraps sync.Pool so
// buffers are reclaimed under memory pressure, while steady-state
// iterations hit the pool and perform no heap allocation.
//
// Buckets are powers of two: a request for n capacity is served from the
// bucket holding the next power of two ≥ n, so a returned buffer is
// reusable by any request of similar size instead of only exact matches.
// Slice headers round-trip through a secondary box pool — Put must not
// allocate, or the pool would defeat its own purpose.
//
// Ownership contract: a buffer obtained from Get is exclusively the
// caller's until Put; after Put it must not be touched. Put accepts
// buffers of any origin (stray capacities land in the bucket of the
// largest power of two ≤ cap), so pools never grow stale entries that can
// serve no request.
package scratch

import (
	"math/bits"
	"sync"
)

// maxBucket caps pooling at 1<<maxBucket elements; larger buffers are
// allocated directly and dropped on Put (they are rare and better left to
// the GC than pinned in a pool).
const maxBucket = 26

// bucketFor returns the bucket index whose capacity 1<<idx is the
// smallest power of two ≥ n.
func bucketFor(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// Bytes pools []byte buffers by capacity bucket (wire encode scratch).
// The zero value is ready to use.
type Bytes struct {
	buckets [maxBucket + 1]sync.Pool
	boxes   sync.Pool // *[]byte headers, recycled so Put never allocates
}

// Get returns a slice of length 0 with capacity ≥ n, ready for append.
func (p *Bytes) Get(n int) []byte {
	if n < 0 {
		panic("scratch: negative length")
	}
	b := bucketFor(n)
	if b > maxBucket {
		return make([]byte, 0, n)
	}
	if v, ok := p.buckets[b].Get().(*[]byte); ok {
		s := (*v)[:0]
		*v = nil
		p.boxes.Put(v)
		return s
	}
	return make([]byte, 0, 1<<b)
}

// Put returns a buffer to the pool. nil and zero-capacity slices are
// ignored.
func (p *Bytes) Put(s []byte) {
	c := cap(s)
	if c == 0 {
		return
	}
	b := bits.Len(uint(c)) - 1
	if b > maxBucket {
		return
	}
	box, ok := p.boxes.Get().(*[]byte)
	if !ok {
		box = new([]byte)
	}
	*box = s[: 0 : 1<<b]
	p.buckets[b].Put(box)
}
