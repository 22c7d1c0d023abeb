// Remote: the paper's §7 future-work item — private queues over
// sockets. A server process exposes a handler-owned counter; remote
// clients open separate blocks over TCP and get the same ordering and
// no-interleaving guarantees as local clients. One connection (a Mux)
// carries all three logical clients; each is a RemoteSession with its
// own private queue on the wire. This example runs the server and the
// clients in one process over loopback for convenience; the two halves
// only share the address string.
//
// Run with: go run ./examples/remote
package main

import (
	"fmt"
	"net"
	"sync"

	"scoopqs"
	"scoopqs/internal/remote"
)

func main() {
	// --- server side ---
	rt := scoopqs.New(scoopqs.ConfigAll)
	defer rt.Shutdown()
	h := rt.NewHandler("counter")
	var n int64 // owned by h

	srv := remote.NewServer(rt)
	srv.Expose("counter", h, map[string]remote.Proc{
		"add": func(a []int64) int64 { n += a[0]; return n },
		"get": func([]int64) int64 { return n },
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	addr := ln.Addr().String()
	fmt.Println("serving handler \"counter\" on", addr)

	// --- client side ---
	mux, err := remote.DialMux("tcp", addr)
	if err != nil {
		panic(err)
	}
	defer mux.Close()
	var wg sync.WaitGroup
	for id := 0; id < 3; id++ {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := mux.NewSession()
			defer c.Close()
			err := c.Separate("counter", func(s *remote.Session) error {
				before, err := s.Query("get")
				if err != nil {
					return err
				}
				for i := 0; i < 100; i++ {
					if err := s.Call("add", 1); err != nil {
						return err
					}
				}
				after, err := s.Query("get")
				if err != nil {
					return err
				}
				// No other client may interleave inside this block.
				fmt.Printf("client %d: %3d -> %3d (delta %d, must be 100)\n",
					id, before, after, after-before)
				return nil
			})
			if err != nil {
				panic(err)
			}
		}()
	}
	wg.Wait()

	c := mux.NewSession()
	defer c.Close()
	c.Separate("counter", func(s *remote.Session) error { //nolint:errcheck
		total, err := s.Query("get")
		if err != nil {
			return err
		}
		fmt.Printf("final total: %d (expected 300)\n", total)
		return nil
	})
}
