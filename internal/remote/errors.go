package remote

import "errors"

// Terminal errors of the remote transport. Every failure a caller can
// observe wraps exactly one of these (match with errors.Is), so the
// reason a connection or channel died — a deliberate Close, a peer
// that broke the protocol (a credit-window overrun included), a peer
// that went silent past the idle deadline — stays distinguishable all
// the way into failed futures and returned errors.
//
// All three are terminal for the mux or channel that reports them:
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
	// grant, a BEGIN inside an open block, a request past the credit
	// window. Connection-fatal, because there is no way to
	// resynchronize with a diverged peer.
	ErrProtocol = errors.New("remote: protocol violation")

	// ErrPeerStalled reports a peer that stopped sending mid-activity
	// or stopped reading: the server's idle deadline
	// (Server.IdleTimeout) expired while the connection held a block
	// open with nothing in flight, or while a write to it was unread.
	ErrPeerStalled = errors.New("remote: peer stalled past the idle deadline")
)
