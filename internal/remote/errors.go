package remote

import "errors"

// Terminal errors of the remote transport. Every failure a caller can
// observe wraps exactly one of these (match with errors.Is), so the
// reason a connection or channel died — a deliberate Close, a peer
// that broke the protocol, a client that overran its credit window, a
// peer that went silent past the idle deadline — stays distinguishable
// all the way into failed futures and returned errors.
//
// All four are terminal for the mux or channel that reports them:
// retrying the same operation on the same session cannot succeed. The
// retryable failures are the ones that do NOT wrap these sentinels —
// per-request server errors (an unknown procedure, a poisoned block)
// arrive as ordinary ERROR replies and leave the channel usable; a
// caller may open a new block or a new connection and try again.
var (
	// ErrClosed is the terminal error of a deliberately closed Mux or
	// RemoteSession: the local side hung up.
	ErrClosed = errors.New("remote: connection closed")

	// ErrProtocol marks a stream the framing layer cannot trust
	// anymore: an unknown frame kind, a malformed or absurd CREDIT
	// grant, a BEGIN inside an open block. Connection-fatal, because
	// there is no way to resynchronize with a diverged peer.
	ErrProtocol = errors.New("remote: protocol violation")

	// ErrCreditOverrun reports a peer that ignored the credit window
	// and flooded requests past its window allowance. The server
	// quarantines the offending channel (its handler is released, its
	// requests are dropped) but keeps the connection and its other
	// channels alive.
	ErrCreditOverrun = errors.New("remote: credit window overrun")

	// ErrPeerStalled reports a peer that stopped sending mid-activity:
	// the server's idle deadline (Server.IdleTimeout) expired while the
	// connection still had open blocks or admitted requests.
	ErrPeerStalled = errors.New("remote: peer stalled past the idle deadline")
)
