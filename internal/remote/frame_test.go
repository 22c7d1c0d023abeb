package remote

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// frameEq compares decoded frames, treating nil and empty payloads
// alike.
func frameEq(a, b *frame) bool {
	return a.kind == b.kind && a.ch == b.ch && a.id == b.id && a.name == b.name && bytes.Equal(a.data, b.data)
}

// ints is the int veneer's payload for vs.
func ints(vs ...int64) []byte { return appendInts(nil, vs) }

var roundTripFrames = []frame{
	{kind: fBegin, ch: 1, name: "counter"},
	{kind: fBegin, ch: 0xFFFFFFFF, name: ""},
	{kind: fEnd, ch: 7},
	{kind: fClose, ch: 42},
	{kind: fCallB, ch: 3, name: "add", data: ints(1, -1, 1<<62, -(1 << 62))}, // the int veneer's frames
	{kind: fCallB, ch: 3, name: "tick", data: ints()},
	{kind: fQueryB, ch: 9, id: 123456789, name: "get", data: ints(0)},
	{kind: fSync, ch: 2, id: 1},
	{kind: fReplyB, ch: 5, id: 99, data: ints(-987654321)},
	{kind: fError, ch: 5, id: 0, name: `unknown handler "nonesuch"`},
	{kind: fCredit, ch: 6, id: 960},
	{kind: fCredit, ch: 0, id: 1},
	{kind: fCallB, ch: 4, name: "put", data: []byte("hello payload")},
	{kind: fCallB, ch: 4, name: "put"},
	{kind: fQueryB, ch: 8, id: 77, name: "echo", data: bytes.Repeat([]byte{0xAB}, 300)},
	{kind: fQueryB, ch: 8, id: 78, name: "echo", data: []byte{}},
	{kind: fReplyB, ch: 8, id: 77, data: bytes.Repeat([]byte{0xCD}, 300)},
	{kind: fReplyB, ch: 8, id: 79},
}

func TestFrameRoundTrip(t *testing.T) {
	var buf []byte
	for i := range roundTripFrames {
		buf = appendFrame(buf, &roundTripFrames[i])
	}
	fr := newFrameReader(bytes.NewReader(buf))
	defer fr.close()
	var got frame
	for i := range roundTripFrames {
		if err := fr.readFrame(&got); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !frameEq(&got, &roundTripFrames[i]) {
			t.Fatalf("frame %d: got %+v, want %+v", i, got, roundTripFrames[i])
		}
		Release(got.data)
	}
	if err := fr.readFrame(&got); err != io.EOF {
		t.Fatalf("after last frame: err = %v, want io.EOF", err)
	}
}

// A stream cut inside a frame must yield ErrUnexpectedEOF (not a clean
// EOF), for every truncation point (TestBytesFrameTruncation cuts a
// payload frame).
func TestFrameTruncation(t *testing.T) {
	full := appendFrame(nil, &frame{kind: fError, ch: 300, id: 7, name: `unknown procedure "add"`})
	for cut := 1; cut < len(full); cut++ {
		fr := newFrameReader(bytes.NewReader(full[:cut]))
		var f frame
		if err := fr.readFrame(&f); err != io.ErrUnexpectedEOF {
			t.Fatalf("cut at %d: err = %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}

// A bytes frame cut anywhere — in the header, the name, the length
// prefix, or the payload itself — must fail with ErrUnexpectedEOF and
// leave the slab pool balanced: the decoder releases a partially read
// payload, and closing the reader drops its allocator hold.
func TestBytesFrameTruncation(t *testing.T) {
	base := takeLeakBaseline()
	full := appendFrame(nil, &frame{kind: fQueryB, ch: 9, id: 5, name: "echo", data: bytes.Repeat([]byte{0x5A}, 200)})
	for cut := 1; cut < len(full); cut++ {
		fr := newFrameReader(bytes.NewReader(full[:cut]))
		var f frame
		if err := fr.readFrame(&f); err != io.ErrUnexpectedEOF {
			t.Fatalf("cut at %d: err = %v, want io.ErrUnexpectedEOF", cut, err)
		}
		fr.close()
	}
	if err := base.settle(nil); err != nil {
		t.Fatalf("across truncated decodes: %v", err)
	}
}

func TestFrameLimits(t *testing.T) {
	// A declared string length beyond the cap must be rejected before
	// any allocation of that size.
	buf := []byte{byte(fBegin), 1}
	buf = append(buf, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F) // uvarint ~34GB
	fr := newFrameReader(bytes.NewReader(buf))
	var f frame
	if err := fr.readFrame(&f); err == nil {
		t.Fatal("oversized string accepted")
	}

	buf = []byte{byte(fCallB), 1, 1, 'x'}
	buf = append(buf, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F) // oversized payload length
	fr = newFrameReader(bytes.NewReader(buf))
	if err := fr.readFrame(&f); !errors.Is(err, ErrProtocol) {
		t.Fatalf("oversized payload: err = %v, want ErrProtocol", err)
	}
}

// retiredKinds are the int64-vector frames the bytes frames replaced
// (CALL, QUERY, REPLY): their kind bytes decode as ErrProtocol.
var retiredKinds = []byte{0x03, 0x04, 0x81}

// The codec hot path — encode into a reused batch buffer, decode into
// a reused frame with interned names and a slab payload — must not
// allocate per message.
func TestFrameCodecZeroAlloc(t *testing.T) {
	msg := frame{kind: fQueryB, ch: 17, id: 12345, name: "add", data: ints(1, -2, 3)}
	enc := appendFrame(make([]byte, 0, 64), &msg)
	br := bytes.NewReader(enc)
	fr := newFrameReader(br)
	defer fr.close()
	var got frame
	// Warm up: populate the intern table, grow scratch buffers and take
	// a slab.
	if err := fr.readFrame(&got); err != nil {
		t.Fatal(err)
	}
	Release(got.data)
	buf := make([]byte, 0, 64)
	allocs := testing.AllocsPerRun(1000, func() {
		buf = appendFrame(buf[:0], &msg)
		br.Reset(buf)
		fr.r.Reset(br)
		if err := fr.readFrame(&got); err != nil {
			t.Fatal(err)
		}
		if !frameEq(&got, &msg) {
			t.Fatalf("got %+v, want %+v", got, msg)
		}
		Release(got.data)
	})
	if allocs != 0 {
		t.Fatalf("codec round-trip allocates %.1f allocs/op, want 0", allocs)
	}
}

func BenchmarkFrameCodec(b *testing.B) {
	msg := frame{kind: fQueryB, ch: 17, id: 12345, name: "add", data: ints(1, -2, 3)}
	enc := appendFrame(nil, &msg)
	br := bytes.NewReader(enc)
	fr := newFrameReader(br)
	defer fr.close()
	var got frame
	buf := make([]byte, 0, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = appendFrame(buf[:0], &msg)
		br.Reset(buf)
		fr.r.Reset(br)
		if err := fr.readFrame(&got); err != nil {
			b.Fatal(err)
		}
		Release(got.data)
	}
}

// FuzzFrameDecode feeds arbitrary bytes to the decoder: it must never
// panic or allocate unboundedly, a stream opening with a retired kind
// byte must fail with ErrProtocol, and everything it does decode must
// re-encode and re-decode to the same frame (the codec is canonical on
// its own output). The seeds cover every live kind and the retired
// ones.
func FuzzFrameDecode(f *testing.F) {
	for i := range roundTripFrames {
		f.Add(appendFrame(nil, &roundTripFrames[i]))
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF})
	for _, k := range retiredKinds {
		f.Add([]byte{k, 1, 3, 'a', 'd', 'd', 1, 2})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := newFrameReader(bytes.NewReader(data))
		defer fr.close()
		var got frame
		for i := 0; i < 1024; i++ {
			if err := fr.readFrame(&got); err != nil {
				// The kind is judged once the channel id is read (here a
				// one-byte one).
				retired := len(data) > 1 && data[1] < 0x80 && bytes.IndexByte(retiredKinds, data[0]) >= 0
				if i == 0 && retired && !errors.Is(err, ErrProtocol) {
					t.Fatalf("retired kind 0x%02x: err = %v, want ErrProtocol", data[0], err)
				}
				return
			}
			reenc := appendFrame(nil, &got)
			fr2 := newFrameReader(bytes.NewReader(reenc))
			var again frame
			err := fr2.readFrame(&again)
			if err == nil {
				if !frameEq(&got, &again) {
					t.Fatalf("round-trip mismatch: %+v vs %+v", got, again)
				}
				if n := len(again.data); n != 0 && cap(again.data) != n {
					t.Fatalf("decoded payload cap %d > len %d: slab neighbors reachable", cap(again.data), n)
				}
			}
			Release(again.data)
			fr2.close()
			if err != nil {
				t.Fatalf("re-decode of %+v failed: %v", got, err)
			}
			Release(got.data)
		}
	})
}
