// Package checkpoint provides the pluggable snapshot stores the
// degraded-mode runtimes write to. The store is deliberately dumb — save
// one opaque blob, load it back — so the binary snapshot format (package
// exchange) and the storage medium evolve independently. A training job
// that dies keeps at most CheckpointEvery iterations of work to redo.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
)

// On-disk integrity: DirStore appends an 12-byte trailer — the magic
// "PSCKSUM1" plus a little-endian CRC32C of the blob — to every file it
// writes, and Load verifies and strips it. A flipped bit anywhere in the
// snapshot (or the trailer) then surfaces as ErrChecksum instead of a
// decode-time shape error or, worse, silently wrong restored state. A file
// without the trailer is rejected the same way: nothing is ever restored
// unverified.

// ErrChecksum reports a snapshot file whose integrity trailer is absent or
// does not match its contents — on-disk corruption, not a missing snapshot.
var ErrChecksum = errors.New("checkpoint: snapshot checksum mismatch")

const sumMagic = "PSCKSUM1"

// sumTrailerLen is the trailer's size: 8 magic bytes + 4 CRC bytes.
const sumTrailerLen = len(sumMagic) + 4

var sumTable = crc32.MakeTable(crc32.Castagnoli)

// checkSum verifies and strips the trailer; a file without one fails like
// any other file whose trailer does not match.
func checkSum(data []byte) ([]byte, error) {
	if len(data) < sumTrailerLen || string(data[len(data)-sumTrailerLen:len(data)-4]) != sumMagic {
		return nil, fmt.Errorf("%w: no integrity trailer", ErrChecksum)
	}
	body := data[:len(data)-sumTrailerLen]
	want := binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.Checksum(body, sumTable); got != want {
		return nil, fmt.Errorf("%w: file CRC %08x, computed %08x", ErrChecksum, want, got)
	}
	return body, nil
}

// Store persists the latest snapshot blob. Save replaces any previous
// snapshot atomically; Load returns (nil, false, nil) when no snapshot
// exists yet.
type Store interface {
	Save(data []byte) error
	Load() (data []byte, ok bool, err error)
}

// DirStore keeps the snapshot as one file inside a directory, written via
// a temp file + rename so a crash mid-save never corrupts the previous
// snapshot (rename within a directory is atomic on POSIX). The temp file
// is fsynced before the rename and the directory after it: without the
// first, a power loss can promote a zero-length or torn temp file to the
// "committed" name; without the second, the rename itself may not survive
// the crash and Load would silently resurrect the previous snapshot.
type DirStore struct {
	dir  string
	name string
}

// NewDirStore returns a store writing `name` (e.g. "rank-0.ckpt") inside
// dir, creating the directory if needed.
func NewDirStore(dir, name string) (*DirStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	if name == "" {
		name = "checkpoint.bin"
	}
	return &DirStore{dir: dir, name: name}, nil
}

// Path returns the snapshot's final path.
func (s *DirStore) Path() string { return filepath.Join(s.dir, s.name) }

// Save atomically replaces the stored snapshot: the caller's bytes, read
// once for the CRC and once by the write and never copied or kept, then the
// integrity trailer Load verifies.
func (s *DirStore) Save(data []byte) error {
	tmp, err := os.CreateTemp(s.dir, s.name+".tmp-*")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	var trailer [sumTrailerLen]byte
	copy(trailer[:], sumMagic)
	binary.LittleEndian.PutUint32(trailer[len(sumMagic):], crc32.Checksum(data, sumTable))
	_, err = tmp.Write(data)
	if err == nil {
		_, err = tmp.Write(trailer[:])
	}
	if err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("checkpoint: fsync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.Path()); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("checkpoint: %w", err)
	}
	return syncDir(s.dir)
}

// syncDir fsyncs a directory so a just-committed rename is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("checkpoint: fsync dir: %w", err)
	}
	return nil
}

// Load reads the stored snapshot, reporting ok=false when none exists and
// ErrChecksum when the file's integrity trailer is missing or does not
// match its contents.
func (s *DirStore) Load() ([]byte, bool, error) {
	data, err := os.ReadFile(s.Path())
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("checkpoint: %w", err)
	}
	body, err := checkSum(data)
	if err != nil {
		return nil, false, fmt.Errorf("%s: %w", s.Path(), err)
	}
	return body, true, nil
}

// MemStore is an in-memory Store for tests and the in-process engine.
type MemStore struct {
	mu   sync.Mutex
	data []byte
	has  bool
	// Saves counts completed Save calls (test assertions).
	saves int
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{} }

// Save replaces the stored snapshot.
func (s *MemStore) Save(data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.data = append([]byte(nil), data...)
	s.has = true
	s.saves++
	return nil
}

// Load returns the stored snapshot, ok=false when none was saved.
func (s *MemStore) Load() ([]byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.has {
		return nil, false, nil
	}
	return append([]byte(nil), s.data...), true, nil
}

// Saves reports how many snapshots were saved.
func (s *MemStore) Saves() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.saves
}
