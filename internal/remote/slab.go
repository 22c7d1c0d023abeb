package remote

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"unsafe"
)

// The bytes payload allocator: decoded payloads are carved out of
// pooled, refcounted read slabs so the steady-state decode path
// allocates nothing. Each payload handed out by the decoder is a
// sub-slice of a slab, preceded in the slab by an 8-byte header (a
// magic word plus the slab's index in the global table) that lets
// Release find its slab without the caller carrying anything but the
// []byte itself — which is what lets payloads ride plain futures and
// ordinary function signatures.
//
// Lifecycle: the decoder's allocator holds one reference on its
// current slab and adds one per payload carved from it. Release drops
// a payload's reference; when the last reference goes, the slab's
// offset resets and it returns to its size class's free list. The pool
// is a plain mutex-guarded free list rather than a sync.Pool: Release
// must find slabs through a stable index (a sync.Pool would drop them
// per GC while the table still pins them), and the explicit free list
// gives exact SlabsInUse/SlabReuses accounting. Memory is pinned at
// the high-water mark of concurrent payload use, never unbounded.
//
// Release poisons the payload's header, so a double Release panics
// deterministically (while its slab generation is live — a recycled
// and re-carved slab rewrites headers, as any recycling scheme must).

const (
	// slabHeaderSize is the per-payload header: magic:uint32 idx:uint32,
	// little-endian, immediately before the payload bytes.
	slabHeaderSize = 8

	// magicPooled marks a live slab-carved payload; magicDead is the
	// poison Release writes so a second Release of the same payload
	// panics instead of corrupting a refcount.
	magicPooled = 0x51B0_0C1E
	magicDead   = 0x51B0_DEAD

	// Slab size classes: power-of-two capacities from minSlabShift to
	// maxSlabShift. The default class holds many small payloads; a
	// payload near maxBytesLen gets a class of its own.
	minSlabShift = 16 // 64 KiB
	maxSlabShift = 21 // 2 MiB — fits maxBytesLen + header + alignment
)

// slab is one pooled read buffer. Payloads are carved off sequentially
// (off advances); refs counts the allocator's hold plus one per live
// payload, and the slab recycles when it hits zero.
type slab struct {
	buf   []byte
	off   int
	refs  atomic.Int32
	idx   uint32 // index in slabTable.all — what payload headers record
	class int    // size-class shift, for the free-list push on recycle
}

// slabTable is the process-global slab registry and pool. all is
// append-only (an index in a payload header stays valid forever); free
// holds recycled slabs per size class.
var slabTable struct {
	mu   sync.Mutex
	all  []*slab
	free [maxSlabShift + 1][]*slab

	inUse  atomic.Int64  // slabs out of the free lists
	reuses atomic.Uint64 // free-list pops (recycled rather than allocated)
}

// slabStats reports the pool's live and reuse counters, for
// MuxStats/ServerStats snapshots. The pool is process-global, so the
// numbers cover every connection in the process.
func slabStats() (inUse, reuses uint64) {
	n := slabTable.inUse.Load()
	if n < 0 {
		n = 0
	}
	return uint64(n), slabTable.reuses.Load()
}

// newSlab takes a slab of the given class from the free list, or
// allocates one. The returned slab carries one reference (the
// caller's hold) and an empty offset.
func newSlab(class int) *slab {
	slabTable.mu.Lock()
	if fl := slabTable.free[class]; len(fl) > 0 {
		s := fl[len(fl)-1]
		fl[len(fl)-1] = nil
		slabTable.free[class] = fl[:len(fl)-1]
		slabTable.mu.Unlock()
		slabTable.inUse.Add(1)
		slabTable.reuses.Add(1)
		s.refs.Store(1)
		s.off = 0
		return s
	}
	s := &slab{buf: make([]byte, 1<<class), class: class}
	s.idx = uint32(len(slabTable.all))
	slabTable.all = append(slabTable.all, s)
	slabTable.mu.Unlock()
	slabTable.inUse.Add(1)
	s.refs.Store(1)
	return s
}

// release drops one reference; the last one resets the slab and pushes
// it back to its class's free list.
func (s *slab) release() {
	switch n := s.refs.Add(-1); {
	case n > 0:
		return
	case n < 0:
		panic("remote: slab refcount underflow")
	}
	s.off = 0
	slabTable.inUse.Add(-1)
	slabTable.mu.Lock()
	slabTable.free[s.class] = append(slabTable.free[s.class], s)
	slabTable.mu.Unlock()
}

// classFor returns the size-class shift for one carve of n payload
// bytes: the default class unless the payload (plus header and
// alignment) needs a bigger one.
func classFor(n int) int {
	need := n + slabHeaderSize + slabHeaderSize // header + alignment slack
	class := minSlabShift
	for 1<<class < need {
		class++
	}
	return class
}

// slabAlloc carves payloads out of a current slab, swapping to a fresh
// one when it fills. One slabAlloc belongs to one frameReader (single
// goroutine); the slabs themselves are shared with whoever holds
// payloads.
type slabAlloc struct {
	cur *slab
}

// take carves an n-byte payload (n > 0): header written, one reference
// added, capacity clamped to the payload (cap(b) == len(b), so no
// append or re-slice can alias the neighbors or the header).
func (a *slabAlloc) take(n int) []byte {
	need := slabHeaderSize + n
	s := a.cur
	if s != nil {
		// Align the header so payloads start on 8-byte boundaries.
		s.off = (s.off + 7) &^ 7
	}
	if s == nil || len(s.buf)-s.off < need {
		if s != nil {
			s.release() // drop the allocator's hold; payloads keep theirs
		}
		s = newSlab(classFor(n))
		a.cur = s
	}
	off := s.off
	binary.LittleEndian.PutUint32(s.buf[off:], magicPooled)
	binary.LittleEndian.PutUint32(s.buf[off+4:], s.idx)
	s.refs.Add(1)
	s.off = off + need
	return s.buf[off+slabHeaderSize : off+need : off+need]
}

// close drops the allocator's hold on its current slab; called when
// the frameReader's stream ends so an idle reader does not pin a slab
// forever. Idempotent.
func (a *slabAlloc) close() {
	if a.cur != nil {
		a.cur.release()
		a.cur = nil
	}
}

// payloadHeader reads the 8-byte header preceding a payload. The
// header lives in the same slab as the payload, so the pointer
// arithmetic stays inside one object.
func payloadHeader(b []byte) []byte {
	p := unsafe.Pointer(unsafe.SliceData(b))
	return unsafe.Slice((*byte)(unsafe.Add(p, -slabHeaderSize)), slabHeaderSize)
}

// Release returns a decoded payload to its slab. Every []byte the
// decoder hands out — a server proc's request payload, a client's
// QueryBytes reply — must be released exactly once when the holder is
// done with it; the slab recycles when its last payload is released.
// Nil and empty payloads are no-ops. Releasing the same payload twice,
// or a []byte the decoder never handed out, panics: both are ownership
// bugs that would otherwise corrupt a refcount silently.
func Release(b []byte) {
	if len(b) == 0 {
		return
	}
	hdr := payloadHeader(b)
	switch binary.LittleEndian.Uint32(hdr) {
	case magicPooled:
	case magicDead:
		panic("remote: double Release of bytes payload")
	default:
		panic("remote: Release of a []byte the decoder did not hand out")
	}
	binary.LittleEndian.PutUint32(hdr, magicDead)
	idx := binary.LittleEndian.Uint32(hdr[4:])
	slabTable.mu.Lock()
	s := slabTable.all[idx]
	slabTable.mu.Unlock()
	s.release()
}
