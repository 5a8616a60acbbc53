package scratch

import "testing"

func TestBucketFor(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4},
		{1024, 10}, {1025, 11},
	}
	for _, c := range cases {
		if got := bucketFor(c.n); got != c.want {
			t.Errorf("bucketFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestBytesReuse(t *testing.T) {
	var p Bytes
	s := p.Get(128)
	if len(s) != 0 || cap(s) < 128 {
		t.Fatalf("Get(128): len=%d cap=%d", len(s), cap(s))
	}
	p.Put(s)
	avg := testing.AllocsPerRun(100, func() {
		b := p.Get(128)
		p.Put(b)
	})
	if avg > 0 {
		t.Errorf("Get/Put cycle allocates %.1f times, want 0", avg)
	}
}

func TestPutForeignCapacity(t *testing.T) {
	var p Bytes
	// A buffer whose capacity is not a power of two lands in the bucket
	// below, so a Get from that bucket still fits.
	p.Put(make([]byte, 0, 100)) // bucket 6 (64)
	if s := p.Get(60); len(s) != 0 || cap(s) < 60 {
		t.Fatalf("Get(60): len=%d cap=%d", len(s), cap(s))
	}
	// Zero-capacity and nil are ignored.
	p.Put(nil)
	p.Put([]byte{})
}
