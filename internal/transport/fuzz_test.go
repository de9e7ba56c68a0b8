package transport

import "testing"

// FuzzUnmarshalSegment: the segment decoder must never panic and accepted
// segments must round-trip.
func FuzzUnmarshalSegment(f *testing.F) {
	f.Add(encode(Segment{Proto: ProtoTCP, Stream: 1, Kind: KindData, Seq: 7, Ack: 3}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		seg, err := UnmarshalSegment(data)
		if err != nil {
			return
		}
		back, err := UnmarshalSegment(encode(seg))
		if err != nil || back != seg {
			t.Fatalf("round trip: %+v %v", back, err)
		}
	})
}
