package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/crc64"
	"os"
	"sort"
	"sync"
)

// Manifest is the run ledger: the result payload of every completed run,
// keyed by Key. It is an append-only log: each Put appends one record and
// fsyncs before returning, so however the process dies — SIGKILL included —
// every run that finished before the crash is preserved and a restart
// serves it instead of re-simulating it. A Put costs the bytes of its own
// record, whatever the size of the ledger.
//
// The file is a header (magic, version, CRC) followed by CRC-framed
// records. A short tail after the last complete record is a torn append and
// is cut off on open; any other defect decodes to a typed error and the
// caller starts a fresh ledger — losing memoized work, never correctness.
type Manifest struct {
	path string

	mu      sync.Mutex
	entries map[string][]byte
}

var manifestMagic = [8]byte{'M', 'A', 'C', 'A', 'W', 'M', 'A', 'N'}

// manifestVersion is the ledger's format version. Version 1 was a gob of
// the whole entry map, rewritten on every Put.
const manifestVersion = 2

// The framing of a version-2 ledger, all integers little-endian:
//
//	header: magic[8] version u32 crc32(magic‖version) u32
//	record: len u32 crc32(len) u32 body[len] crc64(len‖body) u64
//	body:   keylen u32 key[keylen] payload
//
// The length's own CRC tells a torn append (a valid length whose record
// runs past the end of the file) from a corrupt length.
const (
	headerLen     = len(manifestMagic) + 4 + 4
	recordHeadLen = 4 + 4
	recordTailLen = 8
)

// OpenManifest loads the ledger at path, or returns an empty one bound to
// path when the file does not exist; nothing is written until the first
// Put creates the file. A torn append at the end of the file is dropped and
// the file truncated to the last complete record. A malformed file returns
// a typed error (ErrBadMagic/ErrVersion/ErrChecksum/ErrTruncated) and an
// empty manifest the caller may continue with; the file is then replaced
// atomically by an empty ledger, so later appends land in a valid log.
func OpenManifest(path string) (*Manifest, error) {
	m := &Manifest{path: path, entries: make(map[string][]byte)}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return m, nil
	}
	if err != nil {
		return m, err
	}
	end, err := m.decode(data)
	if err != nil {
		m.entries = make(map[string][]byte)
		if werr := WriteFileAtomic(path, appendHeader(nil)); werr != nil {
			return m, fmt.Errorf("%w (resetting the ledger: %v)", err, werr)
		}
		return m, err
	}
	if end < len(data) {
		if err := os.Truncate(path, int64(end)); err != nil {
			m.entries = make(map[string][]byte)
			return m, fmt.Errorf("snapshot: dropping a torn append: %w", err)
		}
	}
	return m, nil
}

// Key builds the canonical manifest key for one run.
func Key(run string, configHash uint64, seed int64) string {
	return fmt.Sprintf("%s|%#x|%d", run, configHash, seed)
}

// Get returns the payload recorded for key, if any. The slice is the
// ledger's own copy and must not be modified.
func (m *Manifest) Get(key string) ([]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p, ok := m.entries[key]
	return p, ok
}

// Keys returns every recorded key in sorted order — the canonical
// enumeration callers (the campaign daemon's cache introspection, tests)
// iterate, independent of completion order.
func (m *Manifest) Keys() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.entries))
	for k := range m.entries {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Len reports the number of completed runs recorded.
func (m *Manifest) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}

// Put records a completed run's payload and, when the manifest is
// file-backed, appends it to the file as one record and fsyncs. A later
// record for the same key supersedes an earlier one. The ledger keeps a
// copy of payload of its own, which Get returns from then on, whether or
// not the append succeeds. Safe for concurrent use — parallel workers
// record results as they finish.
func (m *Manifest) Put(key string, payload []byte) error {
	// Room for a header in front, used only when this Put creates the file.
	buf := appendHeader(make([]byte, 0, headerLen+recordHeadLen+4+len(key)+len(payload)+recordTailLen))
	buf = appendRecord(buf, key, payload)
	rec := buf[headerLen:]
	m.mu.Lock()
	defer m.mu.Unlock()
	m.entries[key] = rec[recordHeadLen+4+len(key) : len(rec)-recordTailLen : len(rec)-recordTailLen]
	if m.path == "" {
		return nil
	}
	return appendFile(m.path, buf)
}

// appendFile appends buf's record — header and record when the file is
// new or empty — in one write and fsyncs. On failure it truncates the file
// back to its size before the append, so a failed Put never leaves a
// partial record for a later one to land behind.
func appendFile(path string, buf []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	if fi.Size() > 0 {
		buf = buf[headerLen:]
	}
	_, err = f.Write(buf)
	if err == nil {
		err = f.Sync()
	}
	if err != nil {
		err = errors.Join(err, f.Truncate(fi.Size()))
		f.Close()
		return err
	}
	return f.Close()
}

// appendHeader appends the ledger header to b.
func appendHeader(b []byte) []byte {
	start := len(b)
	b = append(b, manifestMagic[:]...)
	b = binary.LittleEndian.AppendUint32(b, manifestVersion)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b[start:]))
}

// appendRecord appends one framed (key, payload) record to b.
func appendRecord(b []byte, key string, payload []byte) []byte {
	start := len(b)
	b = binary.LittleEndian.AppendUint32(b, uint32(4+len(key)+len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b[start:]))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(key)))
	b = append(b, key...)
	b = append(b, payload...)
	crc := crc64.Update(crc64.Checksum(b[start:start+4], crcTable), crcTable, b[start+recordHeadLen:])
	return binary.LittleEndian.AppendUint64(b, crc)
}

// decode parses a ledger, failing closed with typed errors, and returns the
// offset just past the last complete record. Everything after it is a torn
// append: shorter than a record head, or a record whose (CRC-checked)
// length runs past the end of data. Payloads alias data.
func (m *Manifest) decode(data []byte) (int, error) {
	if len(data) < headerLen {
		return 0, ErrTruncated
	}
	if string(data[:len(manifestMagic)]) != string(manifestMagic[:]) {
		return 0, ErrBadMagic
	}
	if v := binary.LittleEndian.Uint32(data[len(manifestMagic):]); v != manifestVersion {
		return 0, fmt.Errorf("%w: got %d, want %d", ErrVersion, v, manifestVersion)
	}
	if crc32.ChecksumIEEE(data[:headerLen-4]) != binary.LittleEndian.Uint32(data[headerLen-4:]) {
		return 0, ErrChecksum
	}
	off := headerLen
	for {
		rest := data[off:]
		if len(rest) < recordHeadLen {
			return off, nil
		}
		if crc32.ChecksumIEEE(rest[:4]) != binary.LittleEndian.Uint32(rest[4:]) {
			return 0, ErrChecksum
		}
		n := uint64(binary.LittleEndian.Uint32(rest))
		if uint64(len(rest)) < recordHeadLen+n+recordTailLen {
			return off, nil
		}
		body := rest[recordHeadLen : recordHeadLen+n]
		crc := crc64.Update(crc64.Checksum(rest[:4], crcTable), crcTable, body)
		if crc != binary.LittleEndian.Uint64(rest[recordHeadLen+n:]) {
			return 0, ErrChecksum
		}
		if len(body) < 4 || uint64(binary.LittleEndian.Uint32(body)) > uint64(len(body)-4) {
			return 0, fmt.Errorf("%w: record key overruns its record", ErrTruncated)
		}
		k := 4 + int(binary.LittleEndian.Uint32(body))
		m.entries[string(body[4:k])] = body[k:len(body):len(body)]
		off += recordHeadLen + int(n) + recordTailLen
	}
}
