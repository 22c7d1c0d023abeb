package chaos

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// recordConn is a net.Conn sink that records the size of every Write —
// enough to observe the chunking the wrapper injects.
type recordConn struct {
	net.Conn // nil: only Write/Close are exercised
	sizes    []int
	data     bytes.Buffer
}

func (r *recordConn) Write(b []byte) (int, error) {
	r.sizes = append(r.sizes, len(b))
	return r.data.Write(b)
}
func (r *recordConn) Close() error { return nil }

func TestWrapZeroProfileIsPassThrough(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	if w := Wrap(c1, Profile{Name: "baseline"}, 1); w != c1 {
		t.Fatal("inactive profile must not wrap the conn")
	}
}

// TestChunkingIsSeedDeterministic pins the replayability contract: the
// same profile and seed split a write into the identical chunk
// sequence, and the split never loses or reorders bytes.
func TestChunkingIsSeedDeterministic(t *testing.T) {
	payload := bytes.Repeat([]byte("deterministic-fault-injection"), 64)
	split := func(seed int64) ([]int, []byte) {
		rec := &recordConn{}
		w := Wrap(rec, Profile{ChunkMax: 17}, seed)
		n, err := w.Write(payload)
		if err != nil || n != len(payload) {
			t.Fatalf("chunked write: n=%d err=%v (io.Writer contract: full count, nil error)", n, err)
		}
		return rec.sizes, rec.data.Bytes()
	}
	sizesA, dataA := split(42)
	sizesB, dataB := split(42)
	if len(sizesA) < 2 {
		t.Fatalf("ChunkMax=17 produced %d chunks for %d bytes", len(sizesA), len(payload))
	}
	for i := range sizesA {
		if sizesA[i] != sizesB[i] {
			t.Fatalf("same seed, different chunking at %d: %d vs %d", i, sizesA[i], sizesB[i])
		}
	}
	if !bytes.Equal(dataA, payload) || !bytes.Equal(dataB, payload) {
		t.Fatal("chunking corrupted the byte stream")
	}
	sizesC, _ := split(43)
	same := len(sizesC) == len(sizesA)
	for i := 0; same && i < len(sizesA); i++ {
		same = sizesA[i] == sizesC[i]
	}
	if same {
		t.Fatal("different seeds produced the identical chunk sequence")
	}
}

// TestTruncateCutsMidStream pins byte-exact truncation: the peer
// receives exactly TruncateAfter bytes and then a terminated stream,
// while the injecting side's Write reports the cut.
func TestTruncateCutsMidStream(t *testing.T) {
	cli, peer := net.Pipe()
	defer peer.Close()
	w := Wrap(cli, Profile{TruncateAfter: 10}, 7)

	got := make(chan []byte, 1)
	go func() {
		b, _ := io.ReadAll(peer)
		got <- b
	}()
	n, err := w.Write(bytes.Repeat([]byte{0xAB}, 64))
	if !errors.Is(err, ErrInjectedTruncate) {
		t.Fatalf("crossing write: err=%v, want ErrInjectedTruncate", err)
	}
	if n != 10 {
		t.Fatalf("crossing write delivered %d bytes, want 10", n)
	}
	select {
	case b := <-got:
		if len(b) != 10 {
			t.Fatalf("peer received %d bytes, want exactly 10", len(b))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("peer never saw the stream end")
	}
	if _, err := w.Write([]byte{1}); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("write after the cut: %v, want net.ErrClosed", err)
	}
	if c := w.(*Conn).Counts(); c.Truncates != 1 {
		t.Fatalf("Truncates = %d, want 1", c.Truncates)
	}
}

// TestResetCutsAbruptly pins the reset fault: once the threshold is
// reached, the next write delivers nothing and the connection is gone.
func TestResetCutsAbruptly(t *testing.T) {
	cli, peer := net.Pipe()
	defer peer.Close()
	w := Wrap(cli, Profile{ResetAfter: 8}, 7)

	got := make(chan []byte, 1)
	go func() {
		b, _ := io.ReadAll(peer)
		got <- b
	}()
	if n, err := w.Write(make([]byte, 8)); err != nil || n != 8 {
		t.Fatalf("pre-threshold write: n=%d err=%v", n, err)
	}
	n, err := w.Write([]byte{1, 2, 3})
	if !errors.Is(err, ErrInjectedReset) || n != 0 {
		t.Fatalf("post-threshold write: n=%d err=%v, want 0, ErrInjectedReset", n, err)
	}
	select {
	case b := <-got:
		if len(b) != 8 {
			t.Fatalf("peer received %d bytes, want the 8 pre-reset ones only", len(b))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("peer never saw the reset")
	}
	if c := w.(*Conn).Counts(); c.Resets != 1 {
		t.Fatalf("Resets = %d, want 1", c.Resets)
	}
}

// TestLatencyAndStallCount pins that the timing faults fire (their
// durations are the profile's business; counting keeps the test fast).
func TestLatencyAndStallCount(t *testing.T) {
	rec := &recordConn{}
	w := Wrap(rec, Profile{
		LatencyMin: time.Microsecond, LatencyMax: 5 * time.Microsecond,
		StallEvery: 2, StallDur: time.Microsecond,
	}, 1).(*Conn)
	for i := 0; i < 6; i++ {
		if _, err := w.Write([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	c := w.Counts()
	if c.Delays != 6 {
		t.Fatalf("Delays = %d, want 6", c.Delays)
	}
	if c.Stalls != 3 {
		t.Fatalf("Stalls = %d, want 3 (every 2nd of 6 writes)", c.Stalls)
	}
}

// TestFloodWireFormat decodes Flood's burst with an independent varint
// reader: one BEGIN for the handler on channel 1, then exactly n CALLBs
// of the procedure with empty payloads.
func TestFloodWireFormat(t *testing.T) {
	const n = 5
	r := bytes.NewReader(Flood("counter", "tick", n))
	readStr := func() string {
		l, err := binary.ReadUvarint(r)
		if err != nil {
			t.Fatalf("length varint: %v", err)
		}
		b := make([]byte, l)
		if _, err := io.ReadFull(r, b); err != nil {
			t.Fatalf("string bytes: %v", err)
		}
		return string(b)
	}
	kind, _ := r.ReadByte()
	ch, _ := binary.ReadUvarint(r)
	if kind != frameBegin || ch != 1 {
		t.Fatalf("first frame: kind=0x%02x ch=%d, want BEGIN on channel 1", kind, ch)
	}
	if h := readStr(); h != "counter" {
		t.Fatalf("BEGIN handler = %q", h)
	}
	for i := 0; i < n; i++ {
		kind, err := r.ReadByte()
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		ch, _ := binary.ReadUvarint(r)
		if kind != frameCallB || ch != 1 {
			t.Fatalf("call %d: kind=0x%02x ch=%d", i, kind, ch)
		}
		if p := readStr(); p != "tick" {
			t.Fatalf("call %d proc = %q", i, p)
		}
		if n, _ := binary.ReadUvarint(r); n != 0 {
			t.Fatalf("call %d payload length = %d", i, n)
		}
	}
	if r.Len() != 0 {
		t.Fatalf("%d trailing bytes after the burst", r.Len())
	}
}
