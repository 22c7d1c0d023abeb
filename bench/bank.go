package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"scoopqs/internal/core"
	"scoopqs/internal/remote"
)

// The bank service, rebuilt here on remote.NewServer/ExposeBytes:
// accounts sharded over handlers, every request and reply an opaque
// little-endian bytes payload on the CALLB/QUERYB path.
//
//	read (QUERYB): req id:u64 account:u64             -> balance:u64
//	xfer (CALLB):  req id:u64 from:u64 to:u64 amt:u64
//	sum  (QUERYB): -                                   -> shard total:u64
//
// One request is one separate block on a seed-chosen shard: BEGIN, an
// optional xfer, a read, END — an independent user, not a whole-run
// block. Sizes and rates are constants (README "Probe numbers").
const (
	bankAccounts   = 1 << 20
	bankShards     = 64
	bankInit       = 100 // per account; the conservation unit
	bankMaxXfer    = 50
	sessionsPerGen = 64 // RemoteSessions per generator goroutine

	rttRequests = 2000   // per generator per rep, 1 in flight each
	satRequests = 8000   // per generator per rep, satInFlight in flight each
	satInFlight = 64     // per generator
	openRate    = 100000 // req/s, fixed: about 40 % of the reference host's sat rate
	openSeconds = 6      // the open-loop phase belongs to the traced run, beside the ladder
	openRecords = 8192   // cap on open-loop requests in flight
	sloNS       = 5_000_000

	// Mixes, as the share of requests that carry an xfer before the read.
	satXferOf5  = 4 // write-heavy 4:1
	openXferOf5 = 1 // read-heavy 4:1
	rttXferOf5  = 1
)

func shardName(i int) string { return "bank-shard" + strconv.Itoa(i) }

// procStamp is where the benchmark's own procs stamp a sampled
// request's time on the handler; the reply callback reads it.
type procStamp struct{ start, end atomic.Int64 }

const stampSlots = 1 << 14

// bankService is the server side: a runtime owning the accounts and a
// remote.Server exposing each shard's procs on a loopback listener.
type bankService struct {
	rt       *core.Runtime
	srv      *remote.Server
	ln       net.Listener
	perShard int
	stamps   []procStamp
	stamping atomic.Bool // traced phases only
}

// sampled reports whether request id carries spans, and its stamp slot.
func sampledSlot(id uint64) (int, bool) {
	seq, gen := id>>8, id&0xff
	if seq%sampleEvery != 0 {
		return 0, false
	}
	return int((seq/sampleEvery*4 + gen) % stampSlots), true // gen < P ≤ 4
}

func (b *bankService) stampStart(id uint64) {
	if b.stamping.Load() {
		if slot, ok := sampledSlot(id); ok {
			b.stamps[slot].start.CompareAndSwap(0, nowNS())
		}
	}
}

func (b *bankService) stampEnd(id uint64) {
	if b.stamping.Load() {
		if slot, ok := sampledSlot(id); ok {
			b.stamps[slot].end.Store(nowNS())
		}
	}
}

// newBankService brings the service up. lossy installs an xfer proc
// that credits one unit too few — the injected fault the tests use to
// prove the checks can fail.
func newBankService(cfg core.Config, accounts int, lossy bool) (*bankService, error) {
	b := &bankService{rt: core.New(cfg), perShard: accounts / bankShards, stamps: make([]procStamp, stampSlots)}
	b.srv = remote.NewServer(b.rt)
	u64 := binary.LittleEndian.Uint64
	for i := 0; i < bankShards; i++ {
		h := b.rt.NewHandler(shardName(i))
		balances := make([]int64, b.perShard)
		for j := range balances {
			balances[j] = bankInit
		}
		b.srv.ExposeBytes(shardName(i), h, map[string]remote.BytesProc{
			// The reply is allocated per read: it must stay valid until the
			// runtime encodes it, and the handler may run its next call first.
			"read": func(p []byte) []byte {
				id := u64(p)
				b.stampStart(id)
				out := make([]byte, 8)
				binary.LittleEndian.PutUint64(out, uint64(balances[u64(p[8:])]))
				b.stampEnd(id)
				return out
			},
			"xfer": func(p []byte) []byte {
				b.stampStart(u64(p))
				amount := int64(u64(p[24:]))
				balances[u64(p[8:])] -= amount
				if lossy {
					amount--
				}
				balances[u64(p[16:])] += amount
				return nil
			},
			"sum": func([]byte) []byte {
				var total int64
				for _, v := range balances {
					total += v
				}
				out := make([]byte, 8)
				binary.LittleEndian.PutUint64(out, uint64(total))
				return out
			},
		})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.rt.Shutdown()
		return nil, err
	}
	b.ln = ln
	go b.srv.Serve(ln)
	return b, nil
}

func (b *bankService) close() {
	b.srv.Close()
	b.rt.Shutdown()
}

// request is one in-flight request record. Records are preallocated
// with their callback bound, and cycle through the generator's free
// list, so the timed path allocates nothing of its own.
type request struct {
	sess      *genSession
	id        uint64
	due       int64 // intended send time; latency counts from here
	sendStart int64
	sendEnd   atomic.Int64 // written after the callback may already run
	hasXfer   bool
	want      int64 // balance the read must return when hasXfer
	cb        func(v any, err error)
}

// genSession is one RemoteSession of a generator. It owns account
// number owned in every shard: only this session transfers into it, and
// a channel's blocks execute in order, so the balance a read-after-xfer
// must observe is known exactly.
type genSession struct {
	rs      *remote.RemoteSession
	owned   int
	balance []int64 // per shard, of the owned account
}

// phaseStats is what one generator observed in one phase.
type phaseStats struct {
	lat, late        []int64 // ns per completed request
	issued, replies  int64
	wrong, failed    int64 // bad reply shape or value; failed futures and sends
	withinSLO        int64
	firstDue, lastAt int64
}

// generator is one load-generating goroutine's state.
type generator struct {
	idx      int
	svc      *bankService
	sessions []*genSession
	rng      *rand.Rand
	seq      uint64
	names    []string
	free     chan *request // records not in flight
	records  []*request
	buf      *spanBuf // traced run: spans are recorded under mu
	tracing  bool

	mu sync.Mutex // guards st: callbacks run on the mux reader, or inline on the generator
	st phaseStats
}

// done is the reply callback of request r.
func (g *generator) done(r *request, v any, err error) {
	at := nowNS()
	p, _ := v.([]byte)
	g.mu.Lock()
	st := &g.st
	switch {
	case err != nil:
		st.failed++
	case len(p) != 8:
		st.wrong++
	case r.hasXfer && int64(binary.LittleEndian.Uint64(p)) != r.want:
		st.wrong++ // the read did not observe the block's own xfer
	case !r.hasXfer && int64(binary.LittleEndian.Uint64(p)) > bankInit:
		st.wrong++ // nobody credits an unowned account
	default:
		st.replies++
		if at-r.due <= sloNS {
			st.withinSLO++
		}
	}
	st.lat = append(st.lat, at-r.due)
	st.late = append(st.late, r.sendStart-r.due)
	st.lastAt = max(st.lastAt, at)
	if slot, ok := sampledSlot(r.id); ok && g.tracing {
		g.requestSpans(r, &g.svc.stamps[slot], at)
	}
	g.mu.Unlock()
	if err == nil {
		remote.Release(p)
	}
	g.free <- r
}

// requestSpans records the span tree of one sampled request from the
// stamps taken on the way: contiguous phases, so they sum to the root.
func (g *generator) requestSpans(r *request, ps *procStamp, at int64) {
	start, end := ps.start.Load(), ps.end.Load()
	if start == 0 || end == 0 {
		return // stamp slot reused by a later request; skip the sample
	}
	sent := r.sendEnd.Load()
	if sent == 0 || sent > start {
		sent = start // the handler ran before the generator returned from Separate
	}
	root := g.buf.add("bank.request", "bench", r.due, at, 0, r.id)
	g.buf.add("bench.gen_late", "bench", r.due, r.sendStart, root, r.id)
	g.buf.add("remote.enqueue", "remote", r.sendStart, sent, root, r.id)
	g.buf.add("remote.to_handler", "remote", sent, start, root, r.id)
	g.buf.add("remote.handler_run", "core", start, end, root, r.id)
	g.buf.add("remote.reply_path", "remote", end, at, root, r.id)
}

// issue sends request r, intended for time due, on a seed-chosen shard;
// xferOf5 of every five requests transfer into the session's own
// account before reading it back, the rest read an arbitrary account.
func (g *generator) issue(r *request, due int64, xferOf5 int) {
	var buf [32]byte
	put := binary.LittleEndian.PutUint64
	g.seq++
	r.id = g.seq<<8 | uint64(g.idx)
	r.due = due
	r.sendEnd.Store(0)
	shard := g.rng.Intn(bankShards)
	r.hasXfer = g.rng.Intn(5) < xferOf5
	unowned := func() uint64 {
		lo := len(g.sessions) * P
		return uint64(lo + g.rng.Intn(g.svc.perShard-lo))
	}
	if slot, ok := sampledSlot(r.id); ok && g.tracing {
		g.svc.stamps[slot].start.Store(0)
		g.svc.stamps[slot].end.Store(0)
	}
	put(buf[0:], r.id)
	registered := false
	r.sendStart = nowNS()
	err := r.sess.rs.Separate(g.names[shard], func(s *remote.Session) error {
		account := unowned()
		if r.hasXfer {
			amount := int64(g.rng.Intn(bankMaxXfer) + 1)
			put(buf[8:], unowned())
			put(buf[16:], uint64(r.sess.owned))
			put(buf[24:], uint64(amount))
			if err := s.CallBytes("xfer", buf[:32]); err != nil {
				return err
			}
			r.sess.balance[shard] += amount
			r.want = r.sess.balance[shard]
			account = uint64(r.sess.owned)
		}
		put(buf[8:], account)
		f, err := s.QueryBytesAsync("read", buf[:16])
		if err != nil {
			return err
		}
		f.OnComplete(r.cb)
		registered = true
		return nil
	})
	r.sendEnd.Store(nowNS())
	g.mu.Lock()
	g.st.issued++
	if err != nil {
		g.st.failed++
	}
	g.mu.Unlock()
	if !registered {
		g.free <- r // no callback will return it
	}
}

// begin resets the phase statistics and leaves n records on the free
// list (n in flight at most); capHint sizes the latency slices.
func (g *generator) begin(n, capHint int) {
	for len(g.free) > 0 {
		<-g.free
	}
	for _, r := range g.records[:n] {
		g.free <- r
	}
	g.mu.Lock()
	g.st = phaseStats{lat: make([]int64, 0, capHint), late: make([]int64, 0, capHint)}
	g.mu.Unlock()
}

// drain waits until all n records are back: nothing is in flight.
func (g *generator) drain(n int) {
	for i := 0; i < n; i++ {
		<-g.free
	}
	for _, r := range g.records[:n] {
		g.free <- r
	}
}

// closedLoop issues n requests keeping at most inFlight outstanding:
// the next request waits for a free record, that is, for a completion.
func (g *generator) closedLoop(n, inFlight, xferOf5 int) {
	for i := 0; i < n; i++ {
		r := <-g.free
		g.issue(r, nowNS(), xferOf5)
	}
	g.drain(inFlight)
}

// openLoop issues n requests on a fixed schedule of rate per second,
// regardless of completions. It paces on the monotonic clock, yielding
// while it waits: a sleep overshoots by milliseconds on this kernel and
// turns the schedule into bursts (README "Generator pitfalls"). Latency
// counts from the due time, so a stall is charged to every request it
// delays.
func (g *generator) openLoop(n int, rate float64, xferOf5 int) {
	interval := 1e9 / rate
	start := nowNS() + 1_000_000
	g.mu.Lock()
	g.st.firstDue = start
	g.mu.Unlock()
	for i := 0; i < n; i++ {
		due := start + int64(float64(i)*interval)
		for nowNS() < due {
			runtime.Gosched()
		}
		g.issue(<-g.free, due, xferOf5)
	}
	g.drain(openRecords)
}

// bankSide is one server with its connection and generators.
type bankSide struct {
	svc  *bankService
	mux  *remote.Mux
	gens []*generator
}

func newBankSide(cfg core.Config, accounts int, seed int64, lossy bool, tr *tracer) (*bankSide, error) {
	svc, err := newBankService(cfg, accounts, lossy)
	if err != nil {
		return nil, err
	}
	mux, err := remote.DialMux("tcp", svc.ln.Addr().String())
	if err != nil {
		svc.close()
		return nil, err
	}
	side := &bankSide{svc: svc, mux: mux}
	names := make([]string, bankShards)
	for i := range names {
		names[i] = shardName(i)
	}
	for gi := 0; gi < P; gi++ {
		g := &generator{
			idx: gi, svc: svc, names: names, buf: tr.buf(),
			rng:  rand.New(rand.NewSource(seed*1000 + int64(gi))),
			free: make(chan *request, openRecords),
		}
		for j := 0; j < sessionsPerGen; j++ {
			gs := &genSession{rs: mux.NewSession(), owned: gi*sessionsPerGen + j, balance: make([]int64, bankShards)}
			for k := range gs.balance {
				gs.balance[k] = bankInit
			}
			g.sessions = append(g.sessions, gs)
		}
		for j := 0; j < openRecords; j++ {
			r := &request{sess: g.sessions[j%sessionsPerGen]}
			r.cb = func(v any, err error) { g.done(r, v, err) }
			g.records = append(g.records, r)
		}
		side.gens = append(side.gens, g)
	}
	return side, nil
}

func (s *bankSide) close() {
	s.mux.Close()
	s.svc.close()
}

// setTracing turns span recording and proc stamping on or off.
func (s *bankSide) setTracing(on bool) {
	s.svc.stamping.Store(on)
	for _, g := range s.gens {
		g.tracing = on
	}
}

// closed runs one closed-loop rep on every generator at once and
// returns the merged statistics.
func (s *bankSide) closed(perGen, inFlight, xferOf5 int) phaseStats {
	var wg sync.WaitGroup
	for _, g := range s.gens {
		g.begin(inFlight, perGen)
		wg.Add(1)
		go func(g *generator) {
			defer wg.Done()
			g.closedLoop(perGen, inFlight, xferOf5)
		}(g)
	}
	wg.Wait()
	return s.collect()
}

// collect merges the generators' statistics after a phase.
func (s *bankSide) collect() phaseStats {
	var out phaseStats
	for _, g := range s.gens {
		g.mu.Lock()
		st := g.st
		g.mu.Unlock()
		out.lat = append(out.lat, st.lat...)
		out.late = append(out.late, st.late...)
		out.issued += st.issued
		out.replies += st.replies
		out.wrong += st.wrong
		out.failed += st.failed
		out.withinSLO += st.withinSLO
		out.firstDue = max(out.firstDue, st.firstDue)
		out.lastAt = max(out.lastAt, st.lastAt)
	}
	return out
}

// conservation sums every shard over the wire: transfers move money,
// never create or destroy it.
func (s *bankSide) conservation() error {
	rs := s.mux.NewSession()
	defer rs.Close()
	var total int64
	for i := 0; i < bankShards; i++ {
		err := rs.Separate(shardName(i), func(sess *remote.Session) error {
			p, err := sess.QueryBytes("sum", nil)
			if err != nil {
				return err
			}
			total += int64(binary.LittleEndian.Uint64(p))
			remote.Release(p)
			return nil
		})
		if err != nil {
			return fmt.Errorf("shard %d sum: %w", i, err)
		}
	}
	if want := int64(s.svc.perShard) * bankShards * bankInit; total != want {
		return fmt.Errorf("conservation violated: shards sum to %d, want %d", total, want)
	}
	return nil
}

// bankState is one set-up of the bank workload: a pooled and a
// dedicated server, each with its own connection and generators.
type bankState struct {
	sides map[string]*bankSide // by mode
	tasks []*task
	tally phaseStats // closed-loop phases, summed over reps
	rtt   []int64    // every rtt request's latency
	rtt50 []float64  // each rtt rep's median latency, ns
	sizes bankSizes
}

// bankSizes are the rep sizes after the tests' scale divisor.
type bankSizes struct{ accounts, rtt, sat, open int }

func (st *bankState) close() {
	for _, s := range st.sides {
		s.close()
	}
	st.sides = nil
}

// note folds one closed-loop rep into the running totals and reports a
// failed rep.
func (st *bankState) note(ps phaseStats) error {
	st.tally.issued += ps.issued
	st.tally.replies += ps.replies
	st.tally.wrong += ps.wrong
	st.tally.failed += ps.failed
	if ps.wrong+ps.failed > 0 || ps.replies != ps.issued {
		return fmt.Errorf("%d of %d requests wrong, %d failed, %d correct replies", ps.wrong, ps.issued, ps.failed, ps.replies)
	}
	return nil
}

func buildBank(c *runCtx) (*bankState, error) {
	sz := bankSizes{
		accounts: max(bankAccounts/c.scale, bankShards*4*P*sessionsPerGen),
		rtt:      max(rttRequests/c.scale, 8),
		sat:      max(satRequests/c.scale, satInFlight),
		open:     max(openRate*openSeconds/c.scale, 64),
	}
	st := &bankState{sides: map[string]*bankSide{}, sizes: sz}
	for _, m := range modes() {
		side, err := newBankSide(m.cfg, sz.accounts, c.seed, c.breakIt, c.tr)
		if err != nil {
			st.close()
			return nil, err
		}
		st.sides[m.name] = side
	}
	pooled, dedicated := st.sides["pooled"], st.sides["dedicated"]
	satTask := func(mode string, side *bankSide) *task {
		run := func(n int) func() error {
			return func() error { return st.note(side.closed(n, satInFlight, satXferOf5)) }
		}
		return &task{name: "sat", mode: mode, layer: "remote", ops: int64(sz.sat) * int64(P),
			rep: run(sz.sat), warm: run(max(sz.sat/warmDivisor, satInFlight))}
	}
	rtt := func(n int, keep bool) func() error {
		return func() error {
			ps := pooled.closed(n, 1, rttXferOf5)
			if keep {
				st.rtt = append(st.rtt, ps.lat...)
				st.rtt50 = append(st.rtt50, float64(summarize(ps.lat).P50))
			}
			return st.note(ps)
		}
	}
	st.tasks = []*task{
		{name: "rtt", mode: "pooled", layer: "remote", ops: int64(sz.rtt) * int64(P),
			rep: rtt(sz.rtt, true), warm: rtt(max(sz.rtt/warmDivisor, 8), false)},
		satTask("pooled", pooled),
		satTask("dedicated", dedicated),
	}
	warmAll(st.tasks)
	st.tally, st.rtt, st.rtt50 = phaseStats{}, nil, nil // warm-up reps are not measured
	return st, nil
}

// openResult is the open-loop phase summarised.
type openResult struct {
	ps      phaseStats
	lat     dist
	late    dist
	seconds float64
	goodput float64
}

// runOpen runs the open-loop phase, n requests, on the pooled server:
// one generator, so that one spinning goroutine, not P of them, competes
// with the service for the host's cores.
func (st *bankState) runOpen(n int) openResult {
	side := st.sides["pooled"]
	g := side.gens[0]
	for _, other := range side.gens[1:] {
		other.begin(0, 0)
	}
	runtime.GC()
	g.begin(openRecords, n)
	g.openLoop(n, openRate, openXferOf5)
	ps := side.collect()
	res := openResult{ps: ps, seconds: float64(ps.lastAt-ps.firstDue) / 1e9}
	res.lat = summarize(append([]int64(nil), ps.lat...))
	res.late = summarize(append([]int64(nil), ps.late...))
	if res.seconds > 0 {
		res.goodput = float64(ps.withinSLO) / res.seconds
	}
	return res
}

func (o openResult) print() {
	fmt.Printf("  open: %d requests at %d/s over %.3f s: latency from due time p50 %.1f us p99 %.1f us p%g %.1f us max %.1f us (n=%d)\n",
		o.ps.issued, openRate, o.seconds, us(o.lat.P50), us(o.lat.P99), o.lat.TopQ*100, us(o.lat.TopV), us(o.lat.Max), o.lat.N)
	fmt.Printf("  open: generator lateness p50 %.1f us p99 %.1f us max %.1f us; goodput %.1f/s within %d ms SLO (%d of %d)\n",
		us(o.late.P50), us(o.late.P99), us(o.late.Max), o.goodput, sloNS/1_000_000, o.ps.withinSLO, o.ps.issued)
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// finish runs the whole-run checks and fills attempted and failed.
func (st *bankState) finish(rep *report, open *openResult) {
	total := st.tally
	if open != nil {
		total.issued += open.ps.issued
		total.replies += open.ps.replies
		total.wrong += open.ps.wrong
		total.failed += open.ps.failed
	}
	rep.attempted = total.issued
	rep.failed = total.issued - total.replies
	for _, mode := range []string{"pooled", "dedicated"} {
		if err := st.sides[mode].conservation(); err != nil && rep.checkErr == nil {
			rep.checkErr = fmt.Errorf("%s server: %w", mode, err)
		}
	}
	fmt.Printf("  checks: %d requests, %d correct replies, %d wrong, %d failed; conservation %v\n",
		total.issued, total.replies, total.wrong, total.failed, rep.checkErr == nil)
}

func runBank(c *runCtx) (*report, error) {
	st, setupSecs, err := setUp(func() (*bankState, error) { return buildBank(c) }, (*bankState).close)
	if err != nil {
		return nil, err
	}
	defer st.close()
	if c.tr != nil {
		return tracedBank(c, st)
	}
	rs := runRounds(st.tasks, c.budget, minReps, nil)
	printResults(rs)

	rep := newReport()
	st.finish(rep, nil)
	rep.taskDetail(rs)
	rtt := summarize(st.rtt)
	sat := []*taskResult{find(rs, "sat_pooled"), find(rs, "sat_dedicated")}
	fmt.Printf("  rtt: p50 %.2f us p99 %.2f us (n=%d); fastest fifth of the %d reps' medians %.2f us\n",
		us(rtt.P50), us(rtt.P99), rtt.N, len(st.rtt50), fastest(st.rtt50)/1e3)
	rep.detail["rtt"] = map[string]any{"samples": rtt.N, "p50_us": us(rtt.P50), "p99_us": us(rtt.P99), "reps_p50_ns": st.rtt50}
	rep.setE2E(setupSecs, opsPerSecond(sat),
		nsPerOpGeomean(sat[1:]), nsPerOpGeomean(sat[:1]), fastest(st.rtt50)/1e3, allocsPerOp(rs))
	return rep, nil
}

// rateShare is the open-loop rate as a share of this run's pooled sat
// rate; the open numbers describe queueing below saturation only while
// it stays within 0.25–0.6.
func rateShare(satPooled *taskResult) float64 {
	return ratio(openRate, float64(satPooled.task.ops)/satPooled.seconds())
}

// issued is how many requests the side's generators have sent so far.
func (s *bankSide) issued() int64 {
	var n uint64
	for _, g := range s.gens {
		n += g.seq
	}
	return int64(n)
}

func tracedBank(c *runCtx, st *bankState) (*report, error) {
	rep := newLayerReport()
	pooled := st.sides["pooled"]
	sides := st.sides
	setTracing := func(on bool) {
		for _, s := range sides {
			s.setTracing(on)
		}
	}
	openN := st.sizes.open
	openBudget := time.Duration(float64(openN) / openRate * float64(time.Second))
	rt0, mux0, srv0, n0 := pooled.svc.rt.Stats(), pooled.mux.Stats(), pooled.svc.srv.Stats(), pooled.issued()

	// The closed-loop tasks run with the obs registry recording. The
	// open-loop phase runs with obs off and only the benchmark's own
	// request spans on (one request in sampleEvery), so its latencies are
	// as close to an untraced service as a traced run gets.
	plain, _, sec := tracedTasks(c, rep, st.tasks, max(taskBudget(c)-openBudget, openBudget), func(bool) {})
	sec.end(rep)
	setTracing(true)
	open := st.runOpen(openN)
	setTracing(false)
	open.print()

	ops := pooled.issued() - n0
	mux, srv := pooled.mux.Stats(), pooled.svc.srv.Stats()
	rep.statLayers(subStats(pooled.svc.rt.Stats(), rt0), ops)
	kop := func(n uint64) float64 { return ratio(float64(n)*1000, float64(ops)) }
	rep.layer("remote.frames_per_flush", ratio(float64(mux.Frames-mux0.Frames), float64(mux.Flushes-mux0.Flushes)))
	rep.layer("remote.credit_stalls_per_kop", kop(mux.CreditStalls-mux0.CreditStalls))
	rep.layer("remote.writer_stalls_per_kop", kop(mux.WriterStalls-mux0.WriterStalls))
	rep.layer("remote.frames_parked_per_kop", kop(srv.FramesParked-srv0.FramesParked))
	rep.layer("remote.window_resizes", float64(srv.WindowResizes-srv0.WindowResizes))
	bytes := float64(mux.BytesOut - mux0.BytesOut + mux.BytesIn - mux0.BytesIn)
	rep.layer("remote.payload_bytes_per_op", ratio(bytes, float64(ops)))
	// Every decoded payload is carved from a 64 KiB slab behind an 8-byte
	// header, 8-byte aligned; the ratio is slab fills served from the
	// free list over fills needed for the bytes both ends decoded.
	carved := float64(srv.BytesIn-srv0.BytesIn+mux.BytesIn-mux0.BytesIn) + 16*float64(ops)*2
	rep.layer("remote.slab_reuse_ratio", ratio(float64(mux.SlabReuses-mux0.SlabReuses), carved/(64<<10)))

	rep.layer("bench.open_p50_us", us(open.lat.P50))
	rep.layer("bench.open_p99_us", us(open.lat.P99))
	rep.layer("bench.open_pmax_us", us(open.lat.TopV))
	rep.layer("bench.gen_late_p50_us", us(open.late.P50))
	rep.layer("bench.gen_late_p99_us", us(open.late.P99))
	rep.layer("bench.goodput_per_s", open.goodput)
	rep.layer("bench.open_rate_share", rateShare(find(plain, "sat_pooled")))
	rep.detail["open"] = map[string]any{"samples": open.lat.N, "top_percentile": open.lat.TopQ, "max_us": us(open.lat.Max)}

	st.requestPhases(c, rep)
	st.finish(rep, &open)
	st.close()
	rep.layer("remote.slabs_in_use_end", float64(pooled.mux.Stats().SlabsInUse))
	return finishTraced(c, rep, "bank")
}

// requestPhases reports the sampled requests' phase medians from the
// span trees and checks that they add up to the request median.
func (st *bankState) requestPhases(c *runCtx, rep *report) {
	d := durationsByName(c.tr.all())
	med := map[string]dist{}
	for _, name := range []string{"bank.request", "bench.gen_late", "remote.enqueue", "remote.to_handler", "remote.handler_run", "remote.reply_path"} {
		med[name] = summarize(d[name])
	}
	for _, name := range []string{"remote.enqueue", "remote.to_handler", "remote.reply_path"} {
		rep.layer(name+"_p50_us", us(med[name].P50))
		rep.layer(name+"_p99_us", us(med[name].P99))
	}
	rep.layer("remote.handler_run_p50_us", us(med["remote.handler_run"].P50))
	var sum int64
	for name, m := range med {
		if name != "bank.request" {
			sum += m.P50
		}
	}
	req := med["bank.request"].P50
	gap := ratio(float64(sum-req), float64(req))
	rep.layer("bench.phase_sum_gap_ratio", max(gap, -gap))
	fmt.Printf("  request phases (n=%d): request p50 %.1f us; phase medians sum to %.1f us (gap %+.1f %%)\n",
		med["bank.request"].N, us(req), us(sum), gap*100)
	if gap > 0.1 || gap < -0.1 {
		fmt.Println("  NOTE: phase medians differ from the request median by more than 10 %: the phase distributions are skewed, read the p99 columns")
	}
}
