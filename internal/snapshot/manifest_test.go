package snapshot

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

func TestManifestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "manifest.bin")
	m, err := OpenManifest(path)
	if err != nil {
		t.Fatalf("OpenManifest: %v", err)
	}
	key := Key("table1/MACAW", 0xabcd, 1)
	if err := m.Put(key, []byte("payload-1")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := m.Put(Key("table2/MACA", 0xabcd, 1), []byte("payload-2")); err != nil {
		t.Fatalf("Put: %v", err)
	}

	re, err := OpenManifest(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if re.Len() != 2 {
		t.Fatalf("reopened manifest has %d entries, want 2", re.Len())
	}
	got, ok := re.Get(key)
	if !ok || string(got) != "payload-1" {
		t.Fatalf("Get(%q) = %q, %t", key, got, ok)
	}
}

func TestManifestCorruptionFailsClosed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "manifest.bin")
	m, _ := OpenManifest(path)
	if err := m.Put(Key("r", 1, 1), []byte("x")); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := OpenManifest(path)
	if err == nil {
		t.Fatal("corrupted manifest opened without error")
	}
	if re == nil || re.Len() != 0 {
		t.Fatal("corrupted manifest must yield a fresh empty ledger")
	}
	// The corrupt file was replaced by an empty ledger that later appends
	// extend.
	if err := re.Put(Key("r", 2, 1), []byte("y")); err != nil {
		t.Fatal(err)
	}
	again, err := OpenManifest(path)
	if err != nil || again.Len() != 1 {
		t.Fatalf("reopening the reset ledger: %d entries, %v; want 1, nil", again.Len(), err)
	}
}

// ledger encodes pairs as a ledger file and returns it with the offset just
// past each record.
func ledger(pairs ...[2]string) ([]byte, []int) {
	b := appendHeader(nil)
	var ends []int
	for _, p := range pairs {
		b = appendRecord(b, p[0], []byte(p[1]))
		ends = append(ends, len(b))
	}
	return b, ends
}

// sameEntries fails unless got and want hold the same keys and payloads.
func sameEntries(t *testing.T, got, want *Manifest) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("ledger has %d entries, want %d", got.Len(), want.Len())
	}
	for _, k := range want.Keys() {
		w, _ := want.Get(k)
		if g, ok := got.Get(k); !ok || !bytes.Equal(g, w) {
			t.Fatalf("entry %q = %q (%t), want %q", k, g, ok, w)
		}
	}
}

func TestDecodeFailsClosed(t *testing.T) {
	pairs := [][2]string{
		{Key("table1/MACAW", 0xabcd, 1), "payload-1"},
		{Key("table2/MACA", 0xabcd, 2), "payload-2"},
		{Key("table1/MACAW", 0xabcd, 3), ""},
	}
	enc, ends := ledger(pairs...)
	decode := func(data []byte) (*Manifest, int, error) {
		m := &Manifest{entries: make(map[string][]byte)}
		end, err := m.decode(data)
		return m, end, err
	}
	typed := func(err error) bool {
		return errors.Is(err, ErrBadMagic) || errors.Is(err, ErrVersion) ||
			errors.Is(err, ErrTruncated) || errors.Is(err, ErrChecksum)
	}
	if m, end, err := decode(enc); err != nil || end != len(enc) || m.Len() != len(pairs) {
		t.Fatalf("valid ledger: %d entries to offset %d, %v", m.Len(), end, err)
	}

	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), enc...)
		bad[0] ^= 0xFF
		if _, _, err := decode(bad); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("got %v, want ErrBadMagic", err)
		}
	})
	t.Run("version bump", func(t *testing.T) {
		bad := append([]byte(nil), enc...)
		bad[8] = 99
		if _, _, err := decode(bad); !errors.Is(err, ErrVersion) {
			t.Fatalf("got %v, want ErrVersion", err)
		}
	})
	t.Run("every truncation", func(t *testing.T) {
		// A cut anywhere opens to exactly the records that end before
		// it: never a partial record, never an altered payload.
		for n := 0; n < len(enc); n++ {
			m, end, err := decode(enc[:n])
			if n < headerLen {
				if !errors.Is(err, ErrTruncated) {
					t.Fatalf("cut inside the header at %d: got %v, want ErrTruncated", n, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("cut at %d: %v", n, err)
			}
			want, wantEnd := &Manifest{entries: make(map[string][]byte)}, headerLen
			for i, e := range ends {
				if e <= n {
					want.entries[pairs[i][0]] = []byte(pairs[i][1])
					wantEnd = e
				}
			}
			if end != wantEnd {
				t.Fatalf("cut at %d: complete records end at %d, want %d", n, end, wantEnd)
			}
			sameEntries(t, m, want)
		}
	})
	t.Run("every bit flip is detected", func(t *testing.T) {
		// Any single-bit corruption must fail with a typed error: the
		// header CRC, the length CRC and the record CRC guarantee it.
		for i := range enc {
			bad := append([]byte(nil), enc...)
			bad[i] ^= 0x10
			if _, _, err := decode(bad); !typed(err) {
				t.Fatalf("bit flip at byte %d: got %v, want a typed error", i, err)
			}
		}
	})
	t.Run("trailing garbage", func(t *testing.T) {
		// Shorter than a record head, a tail is a torn append and is
		// dropped; eight bytes or more of junk fail the length CRC.
		for n := 1; n <= 24; n++ {
			junk := append(append([]byte(nil), enc...), bytes.Repeat([]byte{0xAB}, n)...)
			m, end, err := decode(junk)
			if n < recordHeadLen {
				if err != nil || end != len(enc) || m.Len() != len(pairs) {
					t.Fatalf("%d-byte tail: %d entries to offset %d, %v; want it dropped", n, m.Len(), end, err)
				}
				continue
			}
			if !errors.Is(err, ErrChecksum) {
				t.Fatalf("%d bytes of junk: got %v, want ErrChecksum", n, err)
			}
		}
	})
}

// TestTornTailIsTruncated: a crash mid-append leaves part of a record at
// the end of the file. Reopening keeps every complete record, cuts the file
// back to the last record boundary, and the next Put lands on it.
func TestTornTailIsTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.bin")
	m, _ := OpenManifest(path)
	for i := range 3 {
		if err := m.Put(Key("r", uint64(i), 1), bytes.Repeat([]byte{byte(i)}, 100)); err != nil {
			t.Fatal(err)
		}
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	boundary := fi.Size()
	torn := appendRecord(nil, Key("r", 3, 1), bytes.Repeat([]byte{3}, 100))
	for _, cut := range []int{1, recordHeadLen, len(torn) - 1} {
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		_, err = f.Write(torn[:cut])
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
		re, err := OpenManifest(path)
		if err != nil {
			t.Fatalf("torn append of %d bytes: %v", cut, err)
		}
		sameEntries(t, re, m)
		if fi, err := os.Stat(path); err != nil || fi.Size() != boundary {
			t.Fatalf("torn append of %d bytes: file is %d bytes after reopening, want %d", cut, fi.Size(), boundary)
		}
	}
	if err := m.Put(Key("r", 3, 1), []byte("whole")); err != nil {
		t.Fatal(err)
	}
	re, err := OpenManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	sameEntries(t, re, m)
}

// TestPutCostIndependentOfLedgerSize: a Put allocates for its own record,
// not for the ledger it appends to — the 200th 64 KiB payload costs about
// 64 KiB, not the 12.5 MiB already recorded.
func TestPutCostIndependentOfLedgerSize(t *testing.T) {
	m, _ := OpenManifest(filepath.Join(t.TempDir(), "cache.bin"))
	payload := make([]byte, 64<<10)
	for i := range 199 {
		if err := m.Put(Key("r", uint64(i), 1), payload); err != nil {
			t.Fatal(err)
		}
	}
	key := Key("r", 199, 1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := m.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if d := after.TotalAlloc - before.TotalAlloc; d >= 3*uint64(len(payload)) {
		t.Fatalf("the 200th Put allocated %d bytes for a %d-byte payload", d, len(payload))
	}
}

// TestWriteFileAtomicReplaces: an atomic write replaces the previous file
// whole and leaves no temp file behind.
func TestWriteFileAtomicReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cache.bin")
	for _, data := range []string{"first version", "second"} {
		if err := WriteFileAtomic(path, []byte(data)); err != nil {
			t.Fatalf("WriteFileAtomic: %v", err)
		}
		got, err := os.ReadFile(path)
		if err != nil || string(got) != data {
			t.Fatalf("read back %q, %v; want %q", got, err, data)
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) != 1 {
		t.Fatalf("directory holds %d entries (%v), want only cache.bin", len(ents), err)
	}
}

// FuzzOpenManifest holds the fail-closed line for the one file this package
// decodes: whatever bytes sit in cache.bin — torn, bit-flipped,
// version-bumped, or adversarial — OpenManifest must return a typed error
// with an empty ledger, or the ledger's complete records. Either way it
// leaves a file that reopens to the same entries and that a Put extends. It
// must never panic.
//
// The checked-in corpus (testdata/fuzz/FuzzOpenManifest) seeds the
// interesting shapes: empty, header-only, torn headers (magic-only,
// torn-header), a version-1 file, a version bump, torn appends (torn-body,
// truncated), a header-CRC flip, a record bit flip, trailing bytes, and a
// valid two-entry ledger.
func FuzzOpenManifest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "cache.bin")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := OpenManifest(path)
		if m == nil {
			t.Fatal("OpenManifest returned no ledger")
		}
		if err != nil {
			if m.Len() != 0 {
				t.Fatalf("failed decode (%v) left %d entries", err, m.Len())
			}
			if !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrVersion) &&
				!errors.Is(err, ErrTruncated) && !errors.Is(err, ErrChecksum) {
				t.Fatalf("untyped decode failure: %v", err)
			}
		}
		re, rerr := OpenManifest(path)
		if rerr != nil {
			t.Fatalf("reopening after open (%v): %v", err, rerr)
		}
		sameEntries(t, re, m)
		if err := m.Put("fuzz|probe", []byte("probe")); err != nil {
			t.Fatal(err)
		}
		re, rerr = OpenManifest(path)
		if rerr != nil {
			t.Fatalf("reopening after a Put: %v", rerr)
		}
		sameEntries(t, re, m)
	})
}
