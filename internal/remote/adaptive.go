package remote

import (
	"time"

	"scoopqs/internal/obs"
)

// The credit window — how many requests (CALLB/QUERYB/SYNC) a channel
// may have admitted but not yet completed — is
// sized per channel from its observed drain rate: a channel whose
// completions flow fast earns a deep window (pipelining headroom), a
// slow or stalled one is squeezed toward the floor (a shallow window
// is all its memory bound needs).
// The controller is AIMD on top of the drain-rate estimate — any
// congestion at the connection's shared byte budget (the writer
// parking deferred frames) halves the target; otherwise it steps
// additively toward drainRate × adaptiveHorizon.
//
// Resizing happens purely by steering replenishment: to grow, a CREDIT
// grant carries extra credits beyond the completions it reports; to
// shrink, part of the replenishment is withheld. The enforced limit
// therefore always equals exactly what the client was extended
// (bootstrap + grants − withheld), so an honest client can never be
// pushed over its own window by a shrink — the credits it would need
// to overrun were simply never sent.
const (
	// adaptiveInitWindow is a fresh channel's window: deep enough that
	// the opening pipelined burst is not throttled while the first
	// drain-rate samples accumulate.
	adaptiveInitWindow = 256

	// adaptiveMinWindow is the floor: the client bootstrap, the
	// smallest window the server can enforce at all (the client starts
	// with that many credits before any advertisement arrives).
	adaptiveMinWindow = bootstrapCredits

	// adaptiveMaxWindow caps growth. It bounds the server's deferred
	// replies per channel — and with them the whole write path's memory,
	// at window × channels — while staying far above the batching
	// writer's typical flush size, so a pipelining client never notices
	// it on a healthy connection.
	adaptiveMaxWindow = 1024

	// adaptiveAIStep is the additive-increase step per grant batch.
	adaptiveAIStep = 64

	// adaptiveHorizon is the drain time a full window should cover:
	// the uncongested target is drainRate × horizon (clamped), the
	// bandwidth-delay sizing with the horizon standing in for a
	// round trip. Generous on purpose — an oversized window costs
	// memory only under congestion, and congestion has its own
	// (multiplicative) response.
	adaptiveHorizon = 10 * time.Millisecond

	// adaptiveEWMAAlpha weights the newest drain-rate sample.
	adaptiveEWMAAlpha = 0.3
)

// adjustWindow runs the per-channel AIMD controller at a grant-batch
// boundary: n completions are ready to replenish, and the returned
// grant is n plus the window growth (or minus the withheld shrink —
// possibly zero, skipping the CREDIT frame entirely). Runs on the
// reader or a pool worker under sc.amu; the cold path, once per
// limit/8 completions.
func (c *serverConn) adjustWindow(sc *svChan, ch uint32, n int64) int64 {
	sc.amu.Lock()
	defer sc.amu.Unlock()

	now := time.Now()
	if elapsed := now.Sub(sc.lastAdjust).Seconds(); elapsed > 0 {
		rate := float64(n) / elapsed
		if sc.ewmaRate == 0 {
			sc.ewmaRate = rate
		} else {
			sc.ewmaRate += adaptiveEWMAAlpha * (rate - sc.ewmaRate)
		}
	}
	sc.lastAdjust = now

	target := sc.target
	if parked := c.cw.parkedTotal(); parked != sc.lastParked {
		// The writer deferred frames past its byte budget since this
		// channel's last decision: the connection is congested, and
		// every channel sharing it backs off multiplicatively.
		sc.lastParked = parked
		target /= 2
	} else {
		// Uncongested: step toward the drain-derived ceiling, with a
		// 2-step hysteresis band so the target does not oscillate
		// around a noisy rate estimate.
		ceil := int64(sc.ewmaRate * adaptiveHorizon.Seconds())
		switch {
		case target+adaptiveAIStep <= ceil:
			target += adaptiveAIStep
		case target-2*adaptiveAIStep >= ceil:
			target -= adaptiveAIStep
		}
	}
	if target < adaptiveMinWindow {
		target = adaptiveMinWindow
	}
	if target > adaptiveMaxWindow {
		target = adaptiveMaxWindow
	}

	limit := sc.limit.Load()
	grant := n
	switch {
	case limit < target:
		// Grow: extend the extra allowance in this grant. Raising
		// limit before the CREDIT ships is safe — enforcement only
		// becomes more permissive.
		grant += target - limit
		limit = target
	case limit > target:
		// Shrink: withhold replenishment, at most what this batch
		// carries. The withheld credits were already consumed by
		// completed requests and are simply never re-extended, so the
		// client's spendable balance and the enforced limit fall in
		// lockstep.
		withhold := limit - target
		if withhold > n {
			withhold = n
		}
		grant -= withhold
		limit -= withhold
	}
	sc.limit.Store(limit)

	if target != sc.target {
		sc.target = target
		c.s.windowResizes.Add(1)
		windowHist.Observe(target)
		if obs.Enabled() {
			obs.Emit(obs.KindWindowResize, uint64(ch), target)
		}
	}
	return grant
}
