// The persisted sweep store: canonical document bytes on disk,
// addressed by the request's content hash, so a restarted server
// answers a warm resubmit without recomputing it. In memory, the
// server's job table is the only copy of a finished document.

package serve

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
)

// keyPattern is the only shape a content address can take; it keeps
// directory-backed lookups from ever leaving the cache directory.
var keyPattern = regexp.MustCompile(`^[0-9a-f]{64}$`)

// Store persists document bytes by content address in a directory
// (-cache-dir); a store without one holds nothing. Each entry is one
// <key>.entry file: the hex SHA-256 of the document bytes on the first
// line, then the bytes. A file whose digest does not match (truncated,
// or corrupted on disk) is never served: Get reports it as corrupt and
// deletes it. Callers do this file I/O outside the server mutex.
type Store struct {
	dir string
}

// NewStore returns a store persisting to dir ("" persists nothing).
// The directory is created if absent.
func NewStore(dir string) (*Store, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("serve: cache dir: %w", err)
		}
	}
	return &Store{dir: dir}, nil
}

// Get returns the verified bytes persisted under key. corrupt reports a
// damaged entry this call deleted, so racing lookups count it once; it
// may delete a racing Put's sound file, costing a recompute on restart.
func (s *Store) Get(key string) (data []byte, ok, corrupt bool) {
	if s.dir == "" || !keyPattern.MatchString(key) {
		return nil, false, false
	}
	path := filepath.Join(s.dir, key+".entry")
	file, err := os.ReadFile(path)
	if err != nil {
		return nil, false, false
	}
	if data, ok := unframe(file); ok {
		return data, true, false
	}
	return nil, false, os.Remove(path) == nil
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

// Put persists data under key, writing a temp file and renaming it into
// place. Failures are silent: the job table still serves this process,
// and the next process recomputes.
func (s *Store) Put(key string, data []byte) {
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
