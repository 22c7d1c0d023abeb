package remote

import (
	"encoding/binary"
	"fmt"
	"net"
	"testing"

	"scoopqs/internal/core"
)

// TestBankShapeAllocs pins what one bank-shaped block costs end to end,
// client, connection and server together: BEGIN, a CallBytes, a
// QueryBytesAsync resolved through OnComplete, END, and the wait for the
// reply. Two allocations are the caller's: the future it holds and the
// reply payload boxed into it. Everything else — the server's request
// records, the reservation, the remote block's Session, the future's
// channel nobody waits on, the callback slice — is recycled or never
// made.
func TestBankShapeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool Puts at random; counts are pinned for the non-race build")
	}
	for _, workers := range []int{0, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			base := takeLeakBaseline()
			rt := core.New(core.ConfigAll.WithWorkers(workers))
			srv := NewServer(rt)
			var balance [8]byte
			srv.ExposeBytes("bank", rt.NewHandler("bank"), map[string]BytesProc{
				"xfer": func(p []byte) []byte {
					binary.LittleEndian.PutUint64(balance[:], binary.LittleEndian.Uint64(balance[:])+uint64(p[0]))
					return nil
				},
				"read": func([]byte) []byte { return balance[:] },
			})
			ln := newPipeListener()
			go srv.Serve(ln)
			mux := NewMux(ln.dial(t))
			rs := mux.NewSession()

			var buf [32]byte
			buf[0] = 1
			replies := make(chan []byte, 1)
			failed := make(chan error, 1)
			cb := func(v any, err error) {
				if err != nil {
					failed <- err
					return
				}
				replies <- v.([]byte)
			}
			body := func(s *Session) error {
				if err := s.CallBytes("xfer", buf[:32]); err != nil {
					return err
				}
				f, err := s.QueryBytesAsync("read", buf[:16])
				if err != nil {
					return err
				}
				f.OnComplete(cb)
				return nil
			}
			var want uint64
			block := func() {
				if err := rs.Separate("bank", body); err != nil {
					t.Fatal(err)
				}
				want++
				select {
				case p := <-replies:
					if len(p) != 8 || binary.LittleEndian.Uint64(p) != want {
						t.Fatalf("read = %x, want balance %d", p, want)
					}
					Release(p)
				case err := <-failed:
					t.Fatal(err)
				}
			}
			for i := 0; i < 2000; i++ { // warm the slab free list, the pools and the maps
				block()
			}
			if allocs := testing.AllocsPerRun(2000, block); allocs > 2 {
				t.Fatalf("one bank-shaped block = %.2f allocs, want <= 2 (the caller's future and its boxed reply)", allocs)
			}
			mux.Close()
			srv.Close()
			if err := base.settle(rt); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestReplyPastBudgetAllocs pins the reply path behind a peer that
// stopped reading: a handler's REPLYB is encoded onto the batch however
// far past the byte budget it is, so it allocates nothing — no copy of
// the frame or of its payload.
func TestReplyPastBudgetAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool Puts at random; counts are pinned for the non-race build")
	}
	rt := core.New(core.ConfigAll)
	defer rt.Shutdown()
	cli, sv := net.Pipe()
	defer cli.Close()
	const budget = 64
	cw := newConnWriter(sv, budget, nil)
	defer cw.kill()
	defer sv.Close()
	c := newServerConn(NewServer(rt), cw)
	sc := &svChan{}

	payload := make([]byte, 8)
	var id uint64
	reply := func() {
		id++
		c.reply(sc, 1, id, payload, nil, false)
	}
	// Nobody reads the pipe: the writer wedges on its first write, and
	// the replies after it fill the batch past the budget.
	for cw.stats().MaxBatchBytes <= budget {
		reply()
	}
	if allocs := testing.AllocsPerRun(1000, reply); allocs != 0 {
		t.Fatalf("a REPLYB past the byte budget = %.2f allocs, want 0", allocs)
	}
}
