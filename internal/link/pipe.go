// Package link models the inter-router channels of the on-chip network:
// pipelined wires with configurable latency, a physical layer with spare-bit
// steering around hard faults (§2.5 of the paper), optional link-level
// SECDED error correction, and serialization when the physical link is
// narrower (or faster) than a flit (§2.3, §3.3).
package link

import "fmt"

// Pipe is a fixed-latency pipeline: a value sent on cycle t emerges from
// Shift on cycle t+latency. At most one value may enter per cycle, which is
// the single-word-per-cycle discipline of a clocked channel. A link's two
// pipes get their slots from NewAll's slabs.
type Pipe[T any] struct {
	slots []slot[T]
	count int // occupied slots, maintained so InFlight/Empty are O(1)
}

type slot[T any] struct {
	v    T
	full bool
}

// Latency reports the pipe latency in cycles.
func (p *Pipe[T]) Latency() int { return len(p.slots) }

// CanSend reports whether the input register is free this cycle.
func (p *Pipe[T]) CanSend() bool { return !p.slots[len(p.slots)-1].full }

// Send places a value into the pipe. It fails if a value was already sent
// this cycle.
func (p *Pipe[T]) Send(v T) error {
	last := len(p.slots) - 1
	if p.slots[last].full {
		return fmt.Errorf("link: pipe input occupied")
	}
	p.slots[last] = slot[T]{v: v, full: true}
	p.count++
	return nil
}

// Shift advances the pipe by one cycle and returns the value (if any) that
// has completed its traversal. Call exactly once per cycle, in the global
// delivery phase, before any Send of the same cycle.
func (p *Pipe[T]) Shift() (T, bool) {
	if p.count == 0 {
		// Nothing in flight: shifting empty slots is a no-op, so skip the
		// copy. This is the idle fast path of the delivery phase.
		var zero T
		return zero, false
	}
	out := p.slots[0]
	copy(p.slots, p.slots[1:])
	var zero slot[T]
	p.slots[len(p.slots)-1] = zero
	if out.full {
		p.count--
	}
	return out.v, out.full
}

// Reset empties the pipe in place, dropping any in-flight values. The
// caller owns whatever cleanup those values need (e.g. recycling flits)
// and must drain or enumerate them first if so.
func (p *Pipe[T]) Reset() {
	if p.count == 0 {
		return
	}
	var zero slot[T]
	for i := range p.slots {
		p.slots[i] = zero
	}
	p.count = 0
}

// InFlight reports how many values are currently inside the pipe.
func (p *Pipe[T]) InFlight() int { return p.count }

// Empty reports whether the pipe holds no values.
func (p *Pipe[T]) Empty() bool { return p.count == 0 }
