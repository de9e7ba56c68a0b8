// Package snapshot is the run ledger: a crash-safe store of completed runs'
// results (Manifest), keyed by each run's canonical identity (Key over a
// ConfigHash of its description). The campaign daemon keeps one per state
// directory as <dir>/cache.bin; a run whose key is recorded there is served
// from the ledger instead of re-simulated. Every run is a pure function of
// its configuration, so serving a recorded result is indistinguishable from
// rerunning it.
//
// The ledger file is an append-only log (format version 2): a magic-tagged,
// versioned, CRC-checked header followed by one CRC-framed record per Put,
// appended and fsynced on its own, so recording a run costs the bytes of
// that run and not of the ledger. A short tail after the last complete
// record is a torn append, dropped on open. Every other decode failure is a
// typed error (ErrBadMagic, ErrVersion, ErrTruncated, ErrChecksum) and
// resets the file to an empty ledger; decoding never panics, whatever the
// input — FuzzOpenManifest holds that line.
package snapshot

import (
	"errors"
	"hash/crc64"
	"hash/fnv"
	"os"
	"path/filepath"
)

// Typed decode failures. Callers match with errors.Is and fall back to a
// fresh ledger; none of these is ever a panic.
var (
	// ErrBadMagic means the file is not a ledger at all.
	ErrBadMagic = errors.New("snapshot: bad magic")
	// ErrVersion means the file was written by an incompatible format
	// version.
	ErrVersion = errors.New("snapshot: unsupported format version")
	// ErrTruncated means the file ends inside its header, or a record's
	// body is malformed.
	ErrTruncated = errors.New("snapshot: truncated or malformed")
	// ErrChecksum means the header or a record does not match its CRC.
	ErrChecksum = errors.New("snapshot: checksum mismatch")
)

var crcTable = crc64.MakeTable(crc64.ECMA)

// ConfigHash returns the FNV-64a hash of a canonical config description
// string; the description must include every parameter that affects the
// run's event history.
func ConfigHash(desc string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(desc))
	return h.Sum64()
}

// WriteFileAtomic writes data to path through a same-directory temp file
// that is synced before it is renamed over path. A crash or power loss at
// any point leaves either the old file or the complete new one, never a
// torn or empty file under path.
func WriteFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}
