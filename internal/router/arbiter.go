// Package router implements the virtual-channel router of Section 2.3 of
// the paper: five input controllers and five output controllers per tile
// (one per compass direction plus the tile port), per-VC input buffering and
// state, route-field stripping, virtual-channel allocation performed in
// parallel with switch arbitration, credit-based flow control, a single
// stage of output buffering per input-port connection, and cyclic
// reservation registers that let pre-scheduled traffic cross the router
// without arbitration (§2.6).
//
// Two research flow-control variants from §3.2 are included as router
// modes for the buffer/performance trade-off experiments: dropping
// (ModeDrop: packets that arrive to a full buffer are discarded, needing
// almost no buffering) and misrouting (ModeDeflect, in deflect.go).
package router

import "math/bits"

// rrArbiter is a round-robin arbiter over n requesters: the grant pointer
// advances past the last winner, so bandwidth is shared fairly among
// persistent requesters.
type rrArbiter struct {
	n    int
	next int
}

func newRRArbiter(n int) *rrArbiter { return &rrArbiter{n: n} }

// Grant picks the first requester at or after the pointer, advances the
// pointer past it, and returns its index; it returns -1 if no requests.
func (a *rrArbiter) Grant(req []bool) int {
	if len(req) != a.n {
		panic("router: arbiter width mismatch")
	}
	for i := 0; i < a.n; i++ {
		idx := (a.next + i) % a.n
		if req[idx] {
			a.next = (idx + 1) % a.n
			return idx
		}
	}
	return -1
}

// GrantMask is Grant over a packed request word (bit i = requester i):
// the first set bit at or after the pointer wins, wrapping to the lowest
// set bit, with the same pointer update. Callers must not set bits >= n.
func (a *rrArbiter) GrantMask(req uint32) int {
	if req == 0 {
		return -1
	}
	idx := bits.TrailingZeros32(req >> uint(a.next) << uint(a.next))
	if idx == 32 {
		idx = bits.TrailingZeros32(req)
	}
	a.next = (idx + 1) % a.n
	return idx
}
