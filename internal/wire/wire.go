// Package wire defines the binary message format used by the PSRA-HGADMM
// communication fabrics. The format is deliberately tiny and self-contained
// (no reflection, no gob): a fixed 16-byte little-endian header followed by
// one typed payload. The same encoding defines the byte counts fed to the
// simnet cost model, so "bytes on the wire" means the same thing for the
// in-process fabric, the TCP fabric, and the analytical model.
//
// Sparse payload entries cost 12 bytes each (4-byte index + 8-byte value),
// matching the paper's per-element transmission cost θ_s = (value+index)/B.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"sync"

	"psrahgadmm/internal/sparse"
)

// Kind tags the payload type of a message.
type Kind uint8

const (
	// KindControl carries a small []int64 payload (grouping requests,
	// notifications, barrier tokens).
	KindControl Kind = iota + 1
	// KindDense carries a dense []float64 vector.
	KindDense
	// KindSparse carries a sparse vector (dim + index/value pairs).
	KindSparse
)

func (k Kind) String() string {
	switch k {
	case KindControl:
		return "control"
	case KindDense:
		return "dense"
	case KindSparse:
		return "sparse"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Message is one unit of communication between ranks. Exactly one payload
// field is meaningful, selected by Kind. From is stamped by the fabric on
// delivery; Tag disambiguates concurrent conversations the way MPI tags do.
type Message struct {
	Kind   Kind
	Tag    int32
	From   int32
	Ints   []int64
	Dense  []float64
	Sparse *sparse.Vector
}

// Control builds a control message.
func Control(tag int32, ints ...int64) Message {
	return Message{Kind: KindControl, Tag: tag, Ints: ints}
}

// DenseMsg builds a dense-vector message. The slice is NOT copied; the
// sender must not mutate it until the message has been delivered.
func DenseMsg(tag int32, x []float64) Message {
	return Message{Kind: KindDense, Tag: tag, Dense: x}
}

// SparseMsg builds a sparse-vector message. The vector is NOT copied.
func SparseMsg(tag int32, v *sparse.Vector) Message {
	return Message{Kind: KindSparse, Tag: tag, Sparse: v}
}

// Reserved control tags. The transports claim a small band at the very
// bottom of the int32 tag space for internal control frames; user code must
// never send on these. Keeping them in wire (rather than each transport
// picking its own) guarantees every fabric and every tool that inspects
// frames agrees on what is algorithm traffic and what is plumbing.
const (
	// TagHandshake carries the one-time rank identification frame exchanged
	// when a mesh connection is established.
	TagHandshake int32 = -0x7fffffff
	// TagHeartbeat marks the empty keepalive frames the TCP fabric sends on
	// idle connections so silent peer failures are detectable. Heartbeats
	// are consumed by the transport and never surface from Recv.
	TagHeartbeat int32 = -0x7ffffffe
	// TagGoodbye announces an orderly shutdown: a rank that Closes its
	// endpoint sends this before the FIN, letting peers distinguish a clean
	// departure (tolerated by any-source waits) from a crash (which must
	// fail them). An EOF without a preceding goodbye is a crash.
	TagGoodbye int32 = -0x7ffffffd
)

// IsReservedTag reports whether tag belongs to the transport-internal band.
func IsReservedTag(tag int32) bool {
	return tag == TagHandshake || tag == TagHeartbeat || tag == TagGoodbye
}

const (
	magic0 = 'P'
	magic1 = 'S'
	// version2 frames append a 4-byte CRC32C (Castagnoli) over header +
	// payload. It is the only version: the trailer-less version 1 is
	// rejected as a bad frame, so every accepted frame is CRC-verified.
	version2    = 2
	headerBytes = 16
	// crcBytes is the version-2 integrity trailer size. It is part of
	// EncodedBytes (real bytes on a real wire) but deliberately NOT part of
	// PayloadBytes: the simnet cost model and the paper's per-element
	// transmission costs count payload, and a fixed 4-byte trailer would
	// skew every committed golden byte count for no analytical gain.
	crcBytes = 4
	// SparseEntryBytes is the wire cost of one sparse element: a 4-byte
	// index plus an 8-byte value. This constant is what the collective
	// cost analysis (paper eqs. 11-16) multiplies by.
	SparseEntryBytes = 12
	// DenseEntryBytes is the wire cost of one dense element.
	DenseEntryBytes = 8
	// HeaderBytes is the fixed frame header size, exported for fault
	// injectors that need to aim bit-flips at the payload region.
	HeaderBytes = headerBytes
	// CRCBytes is the version-2 integrity trailer size.
	CRCBytes = crcBytes
)

// ErrBadFrame is returned when a frame fails validation on decode.
var ErrBadFrame = errors.New("wire: malformed frame")

// ErrFrameCorrupt is returned when a version-2 frame's CRC32C trailer does
// not match its contents. Unlike ErrBadFrame the framing itself was intact —
// exactly one frame's worth of bytes was consumed from the stream — so the
// caller can skip the frame and keep reading; the lost message is recovered
// by the collective retry layer like any other recv failure.
var ErrFrameCorrupt = errors.New("wire: frame checksum mismatch")

// castagnoli is the CRC32C polynomial table shared by encode and decode.
// Castagnoli rather than IEEE because it detects all 1- and 2-bit errors on
// frames this size and has hardware support on amd64/arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// maxPayload caps a single frame at 1 GiB to fail fast on corrupt length
// prefixes instead of attempting a huge allocation.
const maxPayload = 1 << 30

// decodeChunk bounds how much payload buffer is allocated ahead of the
// bytes actually read. A header is 16 bytes of attacker-controlled input;
// trusting its length field for an up-front allocation would let a
// truncated or hostile stream pin ~1 GiB per frame. Growing chunk by chunk
// means a lying header costs at most one chunk before ReadFull reports the
// stream short.
const decodeChunk = 1 << 20

// PayloadBytes returns the encoded payload size of m in bytes, excluding
// the fixed header. This is the number the cost model charges per message.
func PayloadBytes(m Message) int {
	switch m.Kind {
	case KindControl:
		return 4 + 8*len(m.Ints)
	case KindDense:
		return 4 + DenseEntryBytes*len(m.Dense)
	case KindSparse:
		if m.Sparse == nil {
			return 8
		}
		return 8 + SparseEntryBytes*m.Sparse.NNZ()
	default:
		return 0
	}
}

// EncodedBytes returns the full on-wire size of m as the encoder emits it:
// header + payload + the version-2 CRC trailer.
func EncodedBytes(m Message) int { return headerBytes + PayloadBytes(m) + crcBytes }

// AppendMessage appends m's full wire encoding (header + payload + CRC32C
// trailer) to dst and returns the extended slice. This is the
// allocation-free core of Encode: callers that reuse dst encode with zero
// steady-state heap traffic.
func AppendMessage(dst []byte, m Message) ([]byte, error) {
	plen := PayloadBytes(m)
	if plen > maxPayload {
		return dst, fmt.Errorf("wire: payload %d exceeds limit", plen)
	}
	start := len(dst)
	le := binary.LittleEndian
	dst = append(dst, magic0, magic1, version2, byte(m.Kind))
	dst = le.AppendUint32(dst, uint32(m.Tag))
	dst = le.AppendUint32(dst, uint32(m.From))
	dst = le.AppendUint32(dst, uint32(plen))
	switch m.Kind {
	case KindControl:
		dst = le.AppendUint32(dst, uint32(len(m.Ints)))
		for _, v := range m.Ints {
			dst = le.AppendUint64(dst, uint64(v))
		}
	case KindDense:
		dst = le.AppendUint32(dst, uint32(len(m.Dense)))
		for _, v := range m.Dense {
			dst = le.AppendUint64(dst, math.Float64bits(v))
		}
	case KindSparse:
		var dim, nnz int
		if sv := m.Sparse; sv != nil {
			dim, nnz = sv.Dim, sv.NNZ()
		}
		dst = le.AppendUint32(dst, uint32(dim))
		dst = le.AppendUint32(dst, uint32(nnz))
		if sv := m.Sparse; sv != nil {
			for k := range sv.Index {
				dst = le.AppendUint32(dst, uint32(sv.Index[k]))
				dst = le.AppendUint64(dst, math.Float64bits(sv.Value[k]))
			}
		}
	default:
		return dst[:len(dst)-headerBytes], fmt.Errorf("wire: cannot encode kind %v", m.Kind)
	}
	dst = le.AppendUint32(dst, crc32.Checksum(dst[start:], castagnoli))
	return dst, nil
}

// encBufs pools encode buffers so Encode's steady state allocates
// nothing; a buffer returns to the pool as soon as its Write completes.
var encBufs = sync.Pool{New: func() any { return new([]byte) }}

// Encode writes m to w in wire format.
func Encode(w io.Writer, m Message) error {
	bp := encBufs.Get().(*[]byte)
	// Presized: a small pooled buffer grown by append's doubling costs
	// several copies per large frame.
	buf, err := AppendMessage(slices.Grow((*bp)[:0], EncodedBytes(m)), m)
	if err == nil {
		_, err = w.Write(buf)
	}
	*bp = buf
	encBufs.Put(bp)
	return err
}

// Decode reads one message from r. It returns io.EOF cleanly if the stream
// ends exactly at a frame boundary and io.ErrUnexpectedEOF mid-frame.
func Decode(r io.Reader) (Message, error) {
	m, _, err := DecodeFrom(r, nil)
	return m, err
}

// DecodeFrom is Decode reading the frame into scratch (grown only when
// too small), returning the possibly-grown buffer for the caller to reuse
// on the next frame. It is DecodeInto with no vector to reuse, so the
// decoded Message's payload fields are freshly allocated and outlive the
// scratch.
func DecodeFrom(r io.Reader, scratch []byte) (Message, []byte, error) {
	return DecodeInto(r, scratch, nil)
}

// DecodeInto is DecodeFrom decoding a sparse payload into reuse when it is
// non-nil: reuse's Dim, Index and Value are overwritten by position, its
// arrays grown only when too small and never cleared, and the returned
// Message's Sparse is reuse. Any other payload kind, and every payload when
// reuse is nil, is freshly allocated. After an error reuse holds garbage
// and no Message refers to it, so the caller may pass it again. Frames the
// TCP fabric receives decode this way into pooled vectors (see
// transport.Releaser).
func DecodeInto(r io.Reader, scratch []byte, reuse *sparse.Vector) (Message, []byte, error) {
	// The header is read into the scratch, not a local array: a local handed
	// to an io.Reader escapes, and would be one allocation per frame.
	if cap(scratch) < headerBytes {
		scratch = make([]byte, headerBytes)
	}
	hdr := scratch[:headerBytes]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return Message{}, scratch, err // io.EOF exactly at a frame boundary
	}
	if hdr[0] != magic0 || hdr[1] != magic1 {
		return Message{}, scratch, fmt.Errorf("%w: bad magic %x%x", ErrBadFrame, hdr[0], hdr[1])
	}
	if hdr[2] != version2 {
		return Message{}, scratch, fmt.Errorf("%w: unsupported version %d", ErrBadFrame, hdr[2])
	}
	m := Message{
		Kind: Kind(hdr[3]),
		Tag:  int32(binary.LittleEndian.Uint32(hdr[4:8])),
		From: int32(binary.LittleEndian.Uint32(hdr[8:12])),
	}
	plen := binary.LittleEndian.Uint32(hdr[12:16])
	if plen > maxPayload {
		return Message{}, scratch, fmt.Errorf("%w: payload length %d too large", ErrBadFrame, plen)
	}
	sum := crc32.Checksum(hdr, castagnoli) // before the payload overwrites it
	body, scratch, rerr := readPayload(r, scratch, int(plen)+crcBytes)
	if rerr != nil {
		return Message{}, scratch, rerr
	}
	// Verify the trailer BEFORE the structural decoder touches the payload:
	// corrupt bytes must surface as ErrFrameCorrupt (skippable, exactly one
	// frame consumed), never as a wrong-but-well-formed message.
	p := body[:plen]
	if crc32.Update(sum, castagnoli, p) != binary.LittleEndian.Uint32(body[plen:]) {
		return Message{}, scratch, fmt.Errorf("%w: tag %d from %d (%d payload bytes)",
			ErrFrameCorrupt, m.Tag, m.From, plen)
	}
	err := decodePayload(&m, p, reuse)
	return m, scratch, err
}

// readPayload reads plen bytes (payload and trailer) into scratch, growing
// it only as bytes actually arrive (in decodeChunk steps, doubling capacity
// for amortized-linear growth). The steady-state path — scratch already
// large enough — reads in one ReadFull with zero allocation. It returns the
// filled prefix, the possibly-grown scratch for reuse, and any read error
// (io.EOF mid-frame becomes io.ErrUnexpectedEOF).
func readPayload(r io.Reader, scratch []byte, plen int) ([]byte, []byte, error) {
	if cap(scratch) >= plen {
		scratch = scratch[:cap(scratch)]
		p := scratch[:plen]
		if _, err := io.ReadFull(r, p); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, scratch, err
		}
		return p, scratch, nil
	}
	buf := scratch[:0]
	for len(buf) < plen {
		chunk := plen - len(buf)
		if chunk > decodeChunk {
			chunk = decodeChunk
		}
		start := len(buf)
		if cap(buf) < start+chunk {
			newCap := 2 * cap(buf)
			if newCap < start+chunk {
				newCap = start + chunk
			}
			if newCap > plen {
				newCap = plen
			}
			nb := make([]byte, start+chunk, newCap)
			copy(nb, buf)
			buf = nb
		} else {
			buf = buf[:start+chunk]
		}
		if _, err := io.ReadFull(r, buf[start:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, buf[:start], err
		}
	}
	return buf, buf, nil
}

func decodePayload(m *Message, p []byte, reuse *sparse.Vector) error {
	switch m.Kind {
	case KindControl:
		if len(p) < 4 {
			return fmt.Errorf("%w: short control payload", ErrBadFrame)
		}
		n := binary.LittleEndian.Uint32(p[0:4])
		if uint64(len(p)) != 4+8*uint64(n) {
			return fmt.Errorf("%w: control payload size mismatch", ErrBadFrame)
		}
		m.Ints = make([]int64, n)
		off := 4
		for i := range m.Ints {
			m.Ints[i] = int64(binary.LittleEndian.Uint64(p[off : off+8]))
			off += 8
		}
	case KindDense:
		if len(p) < 4 {
			return fmt.Errorf("%w: short dense payload", ErrBadFrame)
		}
		n := binary.LittleEndian.Uint32(p[0:4])
		if uint64(len(p)) != 4+8*uint64(n) {
			return fmt.Errorf("%w: dense payload size mismatch", ErrBadFrame)
		}
		m.Dense = make([]float64, n)
		off := 4
		for i := range m.Dense {
			m.Dense[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[off : off+8]))
			off += 8
		}
	case KindSparse:
		if len(p) < 8 {
			return fmt.Errorf("%w: short sparse payload", ErrBadFrame)
		}
		dim := binary.LittleEndian.Uint32(p[0:4])
		n := binary.LittleEndian.Uint32(p[4:8])
		if uint64(len(p)) != 8+SparseEntryBytes*uint64(n) {
			return fmt.Errorf("%w: sparse payload size mismatch", ErrBadFrame)
		}
		sv := reuse
		if sv == nil {
			sv = sparse.NewVector(int(dim), int(n))
		}
		sv.Dim = int(dim)
		sv.Index, sv.Value = resize(sv.Index, int(n)), resize(sv.Value, int(n))
		idx, val, entries := sv.Index, sv.Value[:len(sv.Index)], p[8:]
		for k := range idx {
			e := entries[SparseEntryBytes*k : SparseEntryBytes*(k+1)]
			idx[k] = int32(binary.LittleEndian.Uint32(e[0:4]))
			val[k] = math.Float64frombits(binary.LittleEndian.Uint64(e[4:12]))
		}
		if err := sv.Check(); err != nil {
			return fmt.Errorf("%w: %v", ErrBadFrame, err)
		}
		m.Sparse = sv
	default:
		return fmt.Errorf("%w: unknown kind %d", ErrBadFrame, uint8(m.Kind))
	}
	return nil
}

// resize returns s with length n, reslicing when its capacity allows and
// allocating exactly n otherwise. Nothing is cleared: the decoder
// overwrites every element.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
