// The sweep-level result store: canonical document bytes, addressed by
// the request's content hash. A hit at submit time answers the whole
// request without queueing a job — determinism makes the stored bytes
// exactly what a fresh run would produce for the same address.

package serve

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sync"
)

// keyPattern is the only shape a content address can take; it keeps
// directory-backed lookups from ever leaving the cache directory.
var keyPattern = regexp.MustCompile(`^[0-9a-f]{64}$`)

// Store holds document bytes by content address, in memory and
// optionally persisted to a directory, with hit/miss accounting. Each
// persisted entry is one <key>.entry file: the hex SHA-256 of the
// document bytes on the first line, then the bytes. A file whose digest
// does not match (truncated, or corrupted on disk) is never served: Get
// counts it as a miss and as corrupt, and deletes it.
type Store struct {
	mu      sync.Mutex
	mem     map[string][]byte
	dir     string
	hits    int64
	misses  int64
	corrupt int64
}

// NewStore returns a store persisting to dir ("" keeps entries in
// memory only). The directory is created if absent.
func NewStore(dir string) (*Store, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("serve: cache dir: %w", err)
		}
	}
	return &Store{mem: make(map[string][]byte), dir: dir}, nil
}

// Get returns the bytes stored under key and counts the hit or miss.
// Directory entries found on disk are verified and promoted into memory.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if data, ok := s.mem[key]; ok {
		s.hits++
		return data, true
	}
	if s.dir != "" && keyPattern.MatchString(key) {
		path := filepath.Join(s.dir, key+".entry")
		if file, err := os.ReadFile(path); err == nil {
			if data, ok := unframe(file); ok {
				s.mem[key] = data
				s.hits++
				return data, true
			}
			s.corrupt++
			os.Remove(path)
		}
	}
	s.misses++
	return nil, false
}

// unframe returns the document bytes of an entry file, or false when its
// digest line is missing or does not match them.
func unframe(file []byte) ([]byte, bool) {
	digest, data, ok := bytes.Cut(file, []byte("\n"))
	if !ok || string(digest) != fmt.Sprintf("%x", sha256.Sum256(data)) {
		return nil, false
	}
	return data, true
}

// Put stores data under key (and persists it when the store is
// directory-backed). Persistence failures are silent: the in-memory
// entry still serves this process, and the next process recomputes.
func (s *Store) Put(key string, data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mem[key] = data
	if s.dir == "" || !keyPattern.MatchString(key) {
		return
	}
	tmp, err := os.CreateTemp(s.dir, "put-*")
	if err != nil {
		return
	}
	_, err = fmt.Fprintf(tmp, "%x\n%s", sha256.Sum256(data), data)
	if cerr := tmp.Close(); err != nil || cerr != nil ||
		os.Rename(tmp.Name(), filepath.Join(s.dir, key+".entry")) != nil {
		os.Remove(tmp.Name())
	}
}

// Hits returns how many Get calls found an entry.
func (s *Store) Hits() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits
}

// Misses returns how many Get calls found nothing.
func (s *Store) Misses() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.misses
}

// Corrupt returns how many persisted entries failed verification and
// were deleted.
func (s *Store) Corrupt() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.corrupt
}

// Len returns the number of in-memory entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.mem)
}
