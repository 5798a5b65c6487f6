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

// split divides a packed request word (bit i = requester i) at the
// pointer: ahead holds the requests at or after it, behind the rest.
// Round-robin order is ahead's bits from the lowest, then behind's.
func (a *rrArbiter) split(req uint32) (ahead, behind uint32) {
	ahead = req >> uint(a.next) << uint(a.next)
	return ahead, req &^ ahead
}

// GrantMask picks the first requester of req in round-robin order,
// advances the pointer past it, and returns its index; it returns -1 if
// req is empty. Callers must not set bits >= n.
func (a *rrArbiter) GrantMask(req uint32) int {
	if req == 0 {
		return -1
	}
	ahead, _ := a.split(req)
	if ahead == 0 {
		ahead = req
	}
	idx := bits.TrailingZeros32(ahead)
	a.advance(idx)
	return idx
}

// advance moves the pointer past the winner idx, wrapping after the last
// requester.
func (a *rrArbiter) advance(idx int) {
	a.next = idx + 1
	if a.next == a.n {
		a.next = 0
	}
}
