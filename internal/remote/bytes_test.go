package remote

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"scoopqs/internal/core"
	"scoopqs/internal/future"
)

// slabPayload sizes the tests' bytes payloads: a few of them share a
// slab, so a leaked reference pins one.
const slabPayload = 300

// The bytes codec hot path — encode a request into a reused batch
// buffer, decode its payload from a pooled slab, ship the reply the
// same way, Release both — must not allocate per message in either
// direction. This is the property the whole slab machinery exists for.
func TestBytesCodecZeroAlloc(t *testing.T) {
	payload := bytes.Repeat([]byte{0xA5}, slabPayload)
	req := frame{kind: fQueryB, ch: 17, id: 12345, name: "echo", data: payload}
	rep := frame{kind: fReplyB, ch: 17, id: 12345, data: payload}

	buf := make([]byte, 0, 1024)
	br := bytes.NewReader(nil)
	fr := newFrameReader(br)
	defer fr.close()
	var got frame
	roundTrip := func(f *frame) {
		buf = appendFrame(buf[:0], f)
		br.Reset(buf)
		fr.r.Reset(br)
		if err := fr.readFrame(&got); err != nil {
			t.Fatal(err)
		}
		Release(got.data)
	}
	// Warm up: intern the name, cycle enough slabs to populate the free
	// list (a 64 KiB slab holds ~200 carves of this size).
	for i := 0; i < 600; i++ {
		roundTrip(&req)
		roundTrip(&rep)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		roundTrip(&req)
		roundTrip(&rep)
	})
	if allocs != 0 {
		t.Fatalf("bytes codec round trip allocates %.1f allocs/op, want 0", allocs)
	}
}

func BenchmarkBytesCodec(b *testing.B) {
	payload := bytes.Repeat([]byte{0xA5}, slabPayload)
	req := frame{kind: fQueryB, ch: 17, id: 12345, name: "echo", data: payload}
	buf := make([]byte, 0, 1024)
	br := bytes.NewReader(nil)
	fr := newFrameReader(br)
	defer fr.close()
	var got frame
	b.SetBytes(slabPayload)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = appendFrame(buf[:0], &req)
		br.Reset(buf)
		fr.r.Reset(br)
		if err := fr.readFrame(&got); err != nil {
			b.Fatal(err)
		}
		Release(got.data)
	}
}

// Slab payloads are three-index sub-slices: cap == len, so no append
// or re-slice from a decoded payload can reach a neighboring payload
// or the slab header.
func TestSlabPayloadBounds(t *testing.T) {
	var a slabAlloc
	defer a.close()
	one := a.take(100)
	two := a.take(50)
	if len(one) != 100 || cap(one) != 100 {
		t.Fatalf("take(100): len %d cap %d, want 100/100", len(one), cap(one))
	}
	if len(two) != 50 || cap(two) != 50 {
		t.Fatalf("take(50): len %d cap %d, want 50/50", len(two), cap(two))
	}
	// Writing every byte of one must not be visible through two (they
	// are carved from the same slab).
	for i := range one {
		one[i] = 0xFF
	}
	for i, b := range two {
		if b == 0xFF {
			t.Fatalf("payloads alias: two[%d] saw one's write", i)
		}
	}
	Release(one)
	Release(two)
}

// Release poisons the payload header, so releasing the same payload
// twice panics deterministically instead of corrupting a refcount.
func TestSlabDoubleReleasePanics(t *testing.T) {
	var a slabAlloc
	defer a.close()
	b := a.take(100)
	Release(b)
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("second Release did not panic")
		}
	}()
	Release(b)
}

// Released slabs go back to their size class's free list and are
// reused rather than reallocated.
func TestSlabRecycling(t *testing.T) {
	base := takeLeakBaseline()
	_, reuses0 := slabStats()
	var a slabAlloc
	// Two 40 KB carves overflow one 64 KiB slab, so every iteration
	// swaps slabs; with all payloads released promptly, the pool cycles
	// the same slabs through the free list.
	for i := 0; i < 10; i++ {
		p := a.take(40_000)
		Release(p)
	}
	a.close()
	_, reuses1 := slabStats()
	if reuses1-reuses0 < 4 {
		t.Fatalf("slab reuses grew by %d over 10 swap cycles, want >= 4", reuses1-reuses0)
	}
	if err := base.settle(nil); err != nil {
		t.Fatalf("after all Releases: %v", err)
	}
}

// A peer streaming an unbounded vocabulary of distinct names is an
// attack on the intern table, not a workload: the decoder must reject
// it with ErrProtocol at the entry cap, holding only bounded memory.
func TestNameInternFloodEntries(t *testing.T) {
	var buf []byte
	for i := 0; i < maxInterned+10; i++ {
		buf = appendFrame(buf, &frame{kind: fBegin, ch: 1, name: fmt.Sprintf("flood-%06d", i)})
		buf = appendFrame(buf, &frame{kind: fEnd, ch: 1})
	}
	fr := newFrameReader(bytes.NewReader(buf))
	defer fr.close()
	var f frame
	var err error
	decoded := 0
	for {
		if err = fr.readFrame(&f); err != nil {
			break
		}
		decoded++
	}
	if !errors.Is(err, ErrProtocol) {
		t.Fatalf("flood ended with %v, want ErrProtocol", err)
	}
	if decoded > 2*maxInterned {
		t.Fatalf("decoded %d frames before the overflow tripped", decoded)
	}
	if len(fr.names) > maxInterned || fr.nameBytes > maxInternedBytes {
		t.Fatalf("intern table grew past its caps: %d names, %d bytes", len(fr.names), fr.nameBytes)
	}
}

// The byte cap trips before the entry cap when the names are long:
// few-but-huge names cannot pin hundreds of megabytes.
func TestNameInternFloodBytes(t *testing.T) {
	name := strings.Repeat("x", 1<<12) // 4 KiB per name
	var buf []byte
	for i := 0; i < maxInternedBytes/len(name)+8; i++ {
		buf = appendFrame(buf, &frame{kind: fBegin, ch: 1, name: fmt.Sprintf("%s%06d", name, i)})
		buf = appendFrame(buf, &frame{kind: fEnd, ch: 1})
	}
	fr := newFrameReader(bytes.NewReader(buf))
	defer fr.close()
	var f frame
	var err error
	for {
		if err = fr.readFrame(&f); err != nil {
			break
		}
	}
	if !errors.Is(err, ErrProtocol) {
		t.Fatalf("flood ended with %v, want ErrProtocol", err)
	}
	if len(fr.names) >= maxInterned {
		t.Fatalf("byte cap never tripped: %d names interned", len(fr.names))
	}
	if fr.nameBytes > maxInternedBytes {
		t.Fatalf("interned %d name bytes, cap is %d", fr.nameBytes, maxInternedBytes)
	}
}

// End to end: a raw client flooding a live server with distinct names
// is dropped (the connection dies under it) and counted as a protocol
// violation — the regression test for the intern-table cap.
func TestServerDropsNameFlood(t *testing.T) {
	rt := core.New(core.ConfigAll)
	defer rt.Shutdown()
	h := rt.NewHandler("h")
	srv := NewServer(rt)
	srv.Expose("h", h, map[string]Proc{"nop": func([]int64) int64 { return 0 }})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	before := srv.Stats().ProtocolViolations
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var buf []byte
	for i := 0; i < maxInterned+10; i++ {
		buf = appendFrame(buf, &frame{kind: fBegin, ch: 1, name: fmt.Sprintf("flood-%06d", i)})
		buf = appendFrame(buf, &frame{kind: fEnd, ch: 1})
	}
	conn.Write(buf) //nolint:errcheck // the server may cut us off mid-write
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.Copy(io.Discard, conn); err != nil && !errors.Is(err, net.ErrClosed) {
		// A reset from the dropped connection is as good as EOF.
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			t.Fatal("server kept the flooding connection alive")
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().ProtocolViolations == before {
		if time.Now().After(deadline) {
			t.Fatal("protocol violation was never counted")
		}
		time.Sleep(time.Millisecond)
	}
}

// startBytesServer brings up a runtime with one handler exposing both
// int64 and bytes procedures, for the end-to-end bytes tests.
func startBytesServer(t *testing.T, cfg core.Config) (addr string, srv *Server, shutdown func()) {
	t.Helper()
	rt := core.New(cfg)
	h := rt.NewHandler("store")
	var n int64
	var stored []byte
	srv = NewServer(rt)
	srv.Expose("store", h, map[string]Proc{
		"add": func(a []int64) int64 { n += a[0]; return n },
	})
	srv.ExposeBytes("store", h, map[string]BytesProc{
		"echo": func(p []byte) []byte { return p },
		"put":  func(p []byte) []byte { stored = append(stored[:0], p...); return nil },
		"get":  func([]byte) []byte { return stored },
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	return ln.Addr().String(), srv, func() {
		srv.Close()
		rt.Shutdown()
	}
}

func TestRemoteBytesEcho(t *testing.T) {
	for _, m := range serverModes {
		t.Run(m.name, func(t *testing.T) {
			addr, srv, shutdown := startBytesServer(t, m.cfg)
			defer shutdown()

			c := dialSession(t, addr)
			defer c.Close()

			big := bytes.Repeat([]byte("payload!"), 16<<10/8) // 16 KiB
			err := c.Separate("store", func(s *Session) error {
				// CallBytes + a query observing it: the proc copied the
				// payload under the handler's exclusion.
				if err := s.CallBytes("put", []byte("hello, bytes")); err != nil {
					return err
				}
				got, err := s.QueryBytes("get", nil)
				if err != nil {
					return err
				}
				if string(got) != "hello, bytes" {
					t.Errorf("get saw %q, want %q", got, "hello, bytes")
				}
				Release(got)

				// Large echo round trip through the slab path.
				got, err = s.QueryBytes("echo", big)
				if err != nil {
					return err
				}
				if !bytes.Equal(got, big) {
					t.Errorf("large echo corrupted: %d bytes back, want %d", len(got), len(big))
				}
				if len(got) != 0 && cap(got) != len(got) {
					t.Errorf("reply payload cap %d > len %d", cap(got), len(got))
				}
				Release(got)

				// Empty payload: nil in, nil out, Release is a no-op.
				got, err = s.QueryBytes("echo", nil)
				if err != nil {
					return err
				}
				if len(got) != 0 {
					t.Errorf("empty echo returned %d bytes", len(got))
				}
				Release(got)

				// The int64 procedures share the name's table with the
				// bytes ones.
				if v, err := s.Query("add", 41); err != nil || v != 41 {
					t.Errorf("add = %d, %v; want 41", v, err)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}

			ms := c.m.Stats()
			if ms.BytesOut == 0 || ms.BytesIn == 0 {
				t.Errorf("mux counters missed the payloads: out %d in %d", ms.BytesOut, ms.BytesIn)
			}
			ss := srv.Stats()
			if ss.BytesIn == 0 || ss.BytesOut == 0 {
				t.Errorf("server counters missed the payloads: in %d out %d", ss.BytesIn, ss.BytesOut)
			}
		})
	}
}

// Pipelined bytes queries resolve through plain futures, awaited in
// logging order after all of them are in flight.
func TestRemoteBytesPipelined(t *testing.T) {
	addr, _, shutdown := startBytesServer(t, core.ConfigAll)
	defer shutdown()

	c := dialSession(t, addr)
	defer c.Close()

	const k = 32
	err := c.Separate("store", func(s *Session) error {
		futs := make([]*future.Future, 0, k)
		for i := 0; i < k; i++ {
			f, err := s.QueryBytesAsync("echo", []byte(fmt.Sprintf("msg-%08d-%s", i, strings.Repeat("z", 100))))
			if err != nil {
				return err
			}
			futs = append(futs, f)
		}
		for i, f := range futs {
			p, err := c.AwaitBytes(f)
			if err != nil {
				return err
			}
			if want := fmt.Sprintf("msg-%08d-", i); !strings.HasPrefix(string(p), want) {
				t.Errorf("reply %d: got %.20q, want prefix %q", i, p, want)
			}
			Release(p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// An unknown procedure fails a bytes query with a server error, and
// in a CallBytes poisons the block like an int64 Call's.
func TestRemoteBytesUnknownProc(t *testing.T) {
	addr, _, shutdown := startBytesServer(t, core.ConfigAll)
	defer shutdown()

	c := dialSession(t, addr)
	defer c.Close()

	err := c.Separate("store", func(s *Session) error {
		_, err := s.QueryBytes("nonesuch", []byte("x"))
		if err == nil || !strings.Contains(err.Error(), "unknown procedure") {
			t.Errorf("unknown query err = %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	err = c.Separate("store", func(s *Session) error {
		if err := s.CallBytes("nonesuch", []byte("x")); err != nil {
			return err
		}
		// The poison is asynchronous (CallBytes is fire-and-forget); the
		// next synchronization point must surface it.
		return s.Sync()
	})
	if err == nil || !strings.Contains(err.Error(), "unknown procedure") {
		t.Fatalf("poisoned block err = %v", err)
	}
}

// Awaiting a future with the method of the other reply shape is an
// error that names the right method, not a runtime type-assertion
// panic; Await gives the bytes reply it refuses back to its slab.
func TestAwaitWrongKind(t *testing.T) {
	base := takeLeakBaseline()
	addr, _, shutdown := startBytesServer(t, core.ConfigAll)
	m, err := DialMux("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	rs := m.NewSession()
	err = rs.Separate("store", func(s *Session) error {
		fb, err := s.QueryBytesAsync("echo", bytes.Repeat([]byte{1}, slabPayload))
		if err != nil {
			return err
		}
		if _, err := rs.Await(fb); err == nil || !strings.Contains(err.Error(), "AwaitBytes") {
			t.Errorf("Await on a bytes future: err = %v, want one naming AwaitBytes", err)
		}
		fi, err := s.QueryAsync("add", 1)
		if err != nil {
			return err
		}
		if p, err := rs.AwaitBytes(fi); p != nil || err == nil || !strings.Contains(err.Error(), "takes Await") {
			t.Errorf("AwaitBytes on an int future = %v, %v; want an error naming Await", p, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	shutdown()
	if err := base.settle(nil); err != nil {
		t.Fatal(err)
	}
}
