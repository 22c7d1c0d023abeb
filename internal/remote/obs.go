package remote

import "scoopqs/internal/obs"

// The remote transport's observability instruments (overhead contract
// in internal/obs): the batch writer's flush sizes and producer
// stalls, the credit window's admission waits, and the client-observed
// round-trip of pipelined requests.
var (
	// flushHist is the byte size of each conn.Write batch.
	flushHist = obs.Default().Hist("remote.flush_bytes")
	// writerStallHist is how long a blocking producer waited at the
	// writer's byte budget.
	writerStallHist = obs.Default().Hist("remote.writer_stall_ns")
	// creditWaitHist is how long an admission waited at a zero
	// credit window.
	creditWaitHist = obs.Default().Hist("remote.credit_wait_ns")
	// roundTripHist is a pipelined request's send→reply latency,
	// observed at the client as its future resolves.
	roundTripHist = obs.Default().Hist("remote.roundtrip_ns")
	// payloadHist is the size of each decoded bytes payload
	// (fCallB/fQueryB/fReplyB), observed on both ends of the wire.
	payloadHist = obs.Default().Hist("remote.bytes_payload")
)
