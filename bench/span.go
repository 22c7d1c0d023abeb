package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// epoch anchors every benchmark timestamp: monotonic nanoseconds since
// process start, comparable across goroutines.
var epoch = time.Now()

func nowNS() int64 { return int64(time.Since(epoch)) }

// sampleEvery is the hot-loop span sampling rate: one batch or request
// in this many carries spans, so the traced run stays close to the
// untraced one.
const sampleEvery = 64

// span is one timed call the benchmark made into a layer, recorded from
// the benchmark's side of the boundary. Parent is the id of the span
// that caused it (0 for a root); spans of one request share Req.
type span struct {
	ID     int64  `json:"id"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int64  `json:"parent"`
	Req    uint64 `json:"req"`
}

// spanBuf is one goroutine's span slice; no locking on the record path.
// A nil *spanBuf records nothing, which is the untraced run.
type spanBuf struct {
	base  int64 // id of the buffer's first span minus one
	spans []span
}

// spanRef names an open span so end can close it.
type spanRef struct {
	b *spanBuf
	i int
}

func (r spanRef) id() int64 {
	if r.b == nil {
		return 0
	}
	return r.b.base + int64(r.i) + 1
}

func (b *spanBuf) begin(name, layer string, parent int64, req uint64) spanRef {
	if b == nil {
		return spanRef{}
	}
	b.spans = append(b.spans, span{Name: name, Layer: layer, Start: nowNS(), Parent: parent, Req: req})
	return spanRef{b, len(b.spans) - 1}
}

func (b *spanBuf) end(r spanRef) {
	if r.b != nil {
		r.b.spans[r.i].End = nowNS()
	}
}

// add records a span whose ends were stamped elsewhere (the bank's
// request phases are stamped inside the benchmark's own procs and
// callbacks) and returns its id.
func (b *spanBuf) add(name, layer string, start, end, parent int64, req uint64) int64 {
	if b == nil {
		return 0
	}
	b.spans = append(b.spans, span{Name: name, Layer: layer, Start: start, End: end, Parent: parent, Req: req})
	return b.base + int64(len(b.spans))
}

// tracer owns the per-goroutine buffers of a traced run. A nil *tracer
// is the untraced run: every method is a no-op.
type tracer struct {
	mu   sync.Mutex
	bufs []*spanBuf
	main *spanBuf  // the goroutine that runs the tasks
	open []spanRef // main's open spans, innermost last: the implicit parents
}

func newTracer() *tracer {
	tr := &tracer{}
	tr.main = tr.buf()
	return tr
}

// bufIDSpace separates the id ranges of the buffers.
const bufIDSpace = 1 << 32

// buf hands a goroutine its own span slice.
func (tr *tracer) buf() *spanBuf {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	b := &spanBuf{base: int64(len(tr.bufs)) * bufIDSpace}
	tr.bufs = append(tr.bufs, b)
	return b
}

// begin opens a span on the task-running goroutine, as a child of the
// span that goroutine has open; end closes the innermost one.
func (tr *tracer) begin(name, layer string, req uint64) spanRef {
	if tr == nil {
		return spanRef{}
	}
	var parent int64
	if n := len(tr.open); n > 0 {
		parent = tr.open[n-1].id()
	}
	r := tr.main.begin(name, layer, parent, req)
	tr.open = append(tr.open, r)
	return r
}

// currentID is the id of the span the task-running goroutine has open,
// for goroutines it starts to use as their spans' parent.
func (tr *tracer) currentID() int64 {
	if tr == nil || len(tr.open) == 0 {
		return 0
	}
	return tr.open[len(tr.open)-1].id()
}

func (tr *tracer) end(r spanRef) {
	if tr != nil {
		tr.main.end(r)
		tr.open = tr.open[:len(tr.open)-1]
	}
}

// all merges the buffers, ids filled in, ordered by start time. Call
// only after the goroutines that record have finished.
func (tr *tracer) all() []span {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var out []span
	for _, b := range tr.bufs {
		for i := range b.spans {
			s := b.spans[i]
			s.ID = b.base + int64(i) + 1
			out = append(out, s)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// selfTimes returns, per span id, the span's duration minus the part of
// it that its child spans cover (overlapping children count once).
func selfTimes(spans []span) map[int64]int64 {
	type iv struct{ lo, hi int64 }
	kids := map[int64][]iv{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End})
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		ks := kids[s.ID]
		sort.Slice(ks, func(i, j int) bool { return ks[i].lo < ks[j].lo })
		covered, edge := int64(0), s.Start
		for _, k := range ks {
			lo, hi := max(k.lo, edge), min(k.hi, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// durationsByName groups span durations (ns) by span name.
func durationsByName(spans []span) map[string][]int64 {
	out := map[string][]int64{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], s.End-s.Start)
	}
	return out
}

// writeSpans writes one JSON object per line to dir/trace-<workload>.jsonl.
func writeSpans(dir, workload string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
