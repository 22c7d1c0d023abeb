package core

import "strings"

// Deadlock detection (§2.5 + the instrumentation agenda of §7).
//
// SCOOP/Qs excludes reservation deadlocks — reserving never blocks —
// but queries still do, so cycles of handlers querying one another
// wait forever (the paper's Fig. 6 variant with queries). The runtime
// tracks, per client, which handler it is currently blocked on; a
// handler "is" a client when it issues calls through AsClient. A cycle
// in the resulting wait graph is a deadlock, because the only way a
// blocked query resumes is its target handler draining the private
// queue, which it cannot do while itself blocked.
//
// Detection is on demand (DetectDeadlock) and advisory: the wait edges
// are read with atomics while the system runs, so a reported cycle
// should be confirmed by a second call before alarms are raised; a
// cycle present in both snapshots is genuinely stuck, since blocked
// queries have no spurious wakeups.

// waitingOn is maintained by the blocking paths in Session.
func (c *Client) setWaiting(h *Handler) { c.waitingOn.Store(h) }
func (c *Client) clearWaiting()         { c.waitingOn.Store(nil) }
func (c *Client) currentWait() *Handler { return c.waitingOn.Load() }

// DeadlockCycle describes one cycle in the wait-for graph, as handler
// names in wait order.
type DeadlockCycle struct {
	Handlers []string
}

func (d DeadlockCycle) String() string {
	return "deadlock: " + strings.Join(d.Handlers, " -> ") + " -> " + d.Handlers[0]
}

// DetectDeadlock scans the wait-for graph and returns the cycles it
// finds (nil when none). Only cycles among handlers are reported;
// external clients blocked on a deadlocked handler are victims, not
// participants. The one kind of wait edge is a blocked query: the
// handler's own client (AsClient) waiting on its target.
func (rt *Runtime) DetectDeadlock() []DeadlockCycle {
	rt.mu.Lock()
	handlers := make([]*Handler, len(rt.handlers))
	copy(handlers, rt.handlers)
	rt.mu.Unlock()

	// next[h] = the handler h is currently waiting on.
	next := make(map[*Handler]*Handler, len(handlers))
	for _, h := range handlers {
		sc := h.selfClientSnapshot()
		if sc == nil {
			continue
		}
		if target := sc.currentWait(); target != nil {
			next[h] = target
		}
	}

	var cycles []DeadlockCycle
	seen := make(map[*Handler]bool, len(handlers))
	for _, start := range handlers {
		if seen[start] {
			continue
		}
		// Follow the chain from start, recording positions.
		pos := map[*Handler]int{}
		var path []*Handler
		h := start
		for h != nil && !seen[h] {
			if at, ok := pos[h]; ok {
				cycle := DeadlockCycle{}
				for _, m := range path[at:] {
					cycle.Handlers = append(cycle.Handlers, m.name)
				}
				cycles = append(cycles, cycle)
				break
			}
			pos[h] = len(path)
			path = append(path, h)
			h = next[h]
		}
		for _, m := range path {
			seen[m] = true
		}
	}
	return cycles
}

// selfClientSnapshot reads the handler's AsClient pointer safely from
// another goroutine.
func (h *Handler) selfClientSnapshot() *Client {
	return h.selfClientPub.Load()
}

// FormatDeadlocks renders a cycle list for diagnostics.
func FormatDeadlocks(cs []DeadlockCycle) string {
	if len(cs) == 0 {
		return "no deadlock"
	}
	parts := make([]string, len(cs))
	for i, c := range cs {
		parts[i] = c.String()
	}
	return strings.Join(parts, "; ")
}
