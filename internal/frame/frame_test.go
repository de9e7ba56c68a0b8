package frame

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"macaw/internal/sim"
)

func TestTypeStrings(t *testing.T) {
	want := map[Type]string{RTS: "RTS", CTS: "CTS", DS: "DS", DATA: "DATA", ACK: "ACK", RRTS: "RRTS", NACK: "NACK", TOKEN: "TOKEN"}
	for ty, name := range want {
		if ty.String() != name {
			t.Errorf("%d.String() = %q, want %q", ty, ty.String(), name)
		}
		if !ty.Valid() {
			t.Errorf("%s reported invalid", name)
		}
	}
	if Type(200).Valid() {
		t.Error("Type(200) reported valid")
	}
	if Type(200).String() != "Type(200)" {
		t.Errorf("Type(200).String() = %q", Type(200).String())
	}
}

func TestControlClassification(t *testing.T) {
	for _, ty := range []Type{RTS, CTS, DS, ACK, RRTS, NACK, TOKEN} {
		if !ty.Control() {
			t.Errorf("%s not classified as control", ty)
		}
	}
	if DATA.Control() {
		t.Error("DATA classified as control")
	}
	if Type(99).Control() {
		t.Error("invalid type classified as control")
	}
}

func TestSizes(t *testing.T) {
	rts := &Frame{Type: RTS, DataBytes: 512}
	if rts.Size() != ControlBytes {
		t.Fatalf("RTS size = %d, want %d", rts.Size(), ControlBytes)
	}
	data := &Frame{Type: DATA, DataBytes: 512}
	if data.Size() != 512 {
		t.Fatalf("DATA size = %d, want 512", data.Size())
	}
}

func TestAirtimeExactAtPaperBitrate(t *testing.T) {
	// 30 bytes at 256 kbps is exactly 937.5 us — the contention slot.
	if got := Airtime(30, 256000); got != 937500*sim.Nanosecond {
		t.Fatalf("control airtime = %d ns, want 937500", got)
	}
	// 512 bytes at 256 kbps is exactly 16 ms.
	if got := Airtime(512, 256000); got != 16*sim.Millisecond {
		t.Fatalf("data airtime = %d, want 16ms", got)
	}
	f := &Frame{Type: DATA, DataBytes: 512}
	if f.Airtime(256000) != 16*sim.Millisecond {
		t.Fatal("Frame.Airtime disagrees with Airtime")
	}
}

func TestNodeIDString(t *testing.T) {
	if NodeID(3).String() != "N3" {
		t.Fatalf("NodeID(3) = %q", NodeID(3).String())
	}
	if Broadcast.String() != "MCAST" {
		t.Fatalf("Broadcast = %q", Broadcast.String())
	}
}

func TestFrameString(t *testing.T) {
	f := &Frame{Type: RTS, Src: 1, Dst: 2, DataBytes: 512}
	if got := f.String(); got != "RTS N1->N2 len=512" {
		t.Fatalf("String = %q", got)
	}
	d := &Frame{Type: DATA, Src: 1, Dst: 2, Seq: 7, DataBytes: 512}
	if got := d.String(); got != "DATA N1->N2 seq=7" {
		t.Fatalf("String = %q", got)
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	f := &Frame{
		Type: DATA, Src: 10, Dst: 20, DataBytes: 512,
		LocalBackoff: 17, RemoteBackoff: IDontKnow,
		ESN: 0xDEADBEEF, Seq: 42, Multicast: true,
		AckRequested: true, HasAck: true, Ack: 41,
		Payload: []byte("hello macaw"),
	}
	b, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	g, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f, g) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", g, f)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	f := &Frame{Type: RTS, Src: 1, Dst: 2}
	b, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}

	if _, err := Unmarshal(b[:5]); !errors.Is(err, ErrShortBuffer) {
		t.Errorf("short buffer: err = %v", err)
	}

	bad := bytes.Clone(b)
	bad[0] = 0
	if _, err := Unmarshal(bad); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic: err = %v", err)
	}

	bad = bytes.Clone(b)
	bad[2] = 99
	if _, err := Unmarshal(bad); !errors.Is(err, ErrBadVersion) {
		t.Errorf("bad version: err = %v", err)
	}

	bad = bytes.Clone(b)
	bad[3] = 99
	if _, err := Unmarshal(bad); !errors.Is(err, ErrBadType) {
		t.Errorf("bad type: err = %v", err)
	}

	bad = bytes.Clone(b)
	bad[7] ^= 0xFF // flip dst, invalidating the CRC
	if _, err := Unmarshal(bad); !errors.Is(err, ErrBadChecksum) {
		t.Errorf("bad checksum: err = %v", err)
	}

	// Truncating the payload region must not pass the length check.
	if _, err := Unmarshal(b[:len(b)-1]); err == nil {
		t.Error("truncated frame decoded successfully")
	}
}

func TestMarshalRejectsInvalid(t *testing.T) {
	if _, err := (&Frame{Type: Type(99)}).Marshal(); !errors.Is(err, ErrBadType) {
		t.Errorf("invalid type: err = %v", err)
	}
	if _, err := (&Frame{Type: DATA, Payload: make([]byte, MaxPayload+1)}).Marshal(); !errors.Is(err, ErrTooLong) {
		t.Errorf("oversize payload: err = %v", err)
	}
}

// Property: Marshal then Unmarshal is the identity for arbitrary frames.
func TestQuickRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	f := func(ty uint8, src, dst, dataBytes uint16, lb, rb int16, esn, seq, ack uint32, mcast, ackReq, hasAck bool, payloadLen uint16) bool {
		fr := &Frame{
			Type:          Type(ty % uint8(numTypes)),
			Src:           NodeID(src),
			Dst:           NodeID(dst),
			DataBytes:     dataBytes,
			LocalBackoff:  lb,
			RemoteBackoff: rb,
			ESN:           esn,
			Seq:           seq,
			Ack:           ack,
			Multicast:     mcast,
			AckRequested:  ackReq,
			HasAck:        hasAck,
		}
		if n := int(payloadLen % 600); n > 0 {
			fr.Payload = make([]byte, n)
			r.Read(fr.Payload)
		}
		b, err := fr.Marshal()
		if err != nil {
			return false
		}
		got, err := Unmarshal(b)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(fr, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: single-bit corruption anywhere in the buffer is detected (the
// decoder never silently returns a different frame).
func TestQuickBitFlipDetected(t *testing.T) {
	base := &Frame{Type: DATA, Src: 3, Dst: 9, DataBytes: 512, ESN: 5, Seq: 11, Payload: []byte("payload bytes")}
	b, err := base.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	f := func(pos uint16, bit uint8) bool {
		buf := bytes.Clone(b)
		buf[int(pos)%len(buf)] ^= 1 << (bit % 8)
		got, err := Unmarshal(buf)
		if err != nil {
			return true // detected
		}
		return reflect.DeepEqual(got, base) // flipped back? impossible, but equality is the only pass
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMarshal(b *testing.B) {
	f := &Frame{Type: DATA, Src: 1, Dst: 2, DataBytes: 512, Payload: make([]byte, 482)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := f.Marshal(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnmarshal(b *testing.B) {
	f := &Frame{Type: DATA, Src: 1, Dst: 2, DataBytes: 512, Payload: make([]byte, 482)}
	buf, err := f.Marshal()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}
