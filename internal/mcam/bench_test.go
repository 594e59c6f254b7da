package mcam

import "testing"

// benchPDUs is a small representative corpus: a control request, a rich
// response, and a stream event — the three PDU shapes the hot path moves.
func benchPDUs() []*PDU {
	return []*PDU{
		{Request: &Request{
			InvokeID: 42, Op: OpPlay, Movie: "clip-0042",
			Position: 1234, Count: 500,
			StreamAddr: "127.0.0.1:9000", StreamID: 7,
		}},
		{Response: &Response{
			InvokeID: 42, Op: OpQueryAttributes, Status: StatusSuccess,
			Attrs: []Attr{
				{Name: "title", Value: "Benchmark Movie"},
				{Name: "format", Value: "mjpeg"},
			},
			Position: 10, Length: 5400, FrameRate: 25,
		}},
		{Event: &Event{
			Kind: EventStreamProgress, StreamID: 7, Position: 100,
		}},
	}
}

// BenchmarkPDUEncodeDecode measures the MCAM PDU codec hot paths: the
// append-style encoder into a reused buffer, the typed decoder, and a full
// round trip.
func BenchmarkPDUEncodeDecode(b *testing.B) {
	pdus := benchPDUs()
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		buf := make([]byte, 0, 1024)
		for i := 0; i < b.N; i++ {
			for _, p := range pdus {
				var err error
				buf, err = p.Append(buf[:0])
				if err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		encs := make([][]byte, len(pdus))
		for i, p := range pdus {
			enc, err := p.Encode()
			if err != nil {
				b.Fatal(err)
			}
			encs[i] = enc
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, enc := range encs {
				if _, err := Decode(enc); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("roundtrip", func(b *testing.B) {
		b.ReportAllocs()
		buf := make([]byte, 0, 1024)
		for i := 0; i < b.N; i++ {
			for _, p := range pdus {
				var err error
				buf, err = p.Append(buf[:0])
				if err != nil {
					b.Fatal(err)
				}
				if _, err := Decode(buf); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
