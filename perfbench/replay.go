package main

import (
	"encoding/binary"
	"fmt"

	"repro/internal/flit"
	"repro/internal/network"
)

// Every payload carries its event index and a tag derived from it, at
// the front (head flit) and at the end (tail flit), so a delivery can be
// matched to the packet the benchmark sent and checked for corruption.
const (
	tagMix   = 0x9E3779B97F4A7C15
	fnvBasis = 14695981039346656037
	fnvPrime = 1099511628211
)

func payloadTag(idx int) uint64 { return uint64(idx)*tagMix ^ 0xA5A5A5A5A5A5A5A5 }

// ledger is the benchmark's own record of every packet it handed the
// simulator. Each delivery is checked against it as it happens; after the
// drain every packet must have been delivered exactly once. fp folds the
// delivery order and timing into one number that any two runs of the
// same inputs must reproduce exactly.
type ledger struct {
	in   *inputs
	ids  []uint64 // packet id Send returned, per event
	done []bool

	sent, delivered int64
	deliveredFlits  int64
	fp              uint64

	errs     int64
	firstErr string
}

func newLedger(in *inputs) *ledger {
	return &ledger{in: in, ids: make([]uint64, len(in.events)), done: make([]bool, len(in.events))}
}

func (l *ledger) reset() {
	clear(l.ids)
	clear(l.done)
	l.sent, l.delivered, l.deliveredFlits = 0, 0, 0
	l.fp = fnvBasis
	l.errs, l.firstErr = 0, ""
}

func (l *ledger) fail(format string, args ...any) {
	l.errs++
	if l.firstErr == "" {
		l.firstErr = fmt.Sprintf(format, args...)
	}
}

func (l *ledger) mix(v uint64) { l.fp = (l.fp ^ v) * fnvPrime }

// deliver checks one packet handed to the client on tile.
func (l *ledger) deliver(tile int, d *network.Delivery) {
	if len(d.Payload) < 16 {
		l.fail("tile %d: packet %d arrived with a %d-byte payload", tile, d.PacketID, len(d.Payload))
		return
	}
	idx := binary.LittleEndian.Uint64(d.Payload)
	if idx >= uint64(len(l.in.events)) {
		l.fail("tile %d: packet %d carries unknown index %d", tile, d.PacketID, idx)
		return
	}
	e := &l.in.events[idx]
	tag := payloadTag(int(idx))
	n := len(d.Payload)
	switch {
	case l.done[idx]:
		l.fail("packet %d (event %d) delivered twice", d.PacketID, idx)
	case d.PacketID != l.ids[idx]:
		l.fail("event %d arrived as packet %d, sent as %d", idx, d.PacketID, l.ids[idx])
	case tile != int(e.dst) || d.Dst != tile || d.Src != int(e.src):
		l.fail("event %d (%d->%d) arrived at tile %d as %d->%d", idx, e.src, e.dst, tile, d.Src, d.Dst)
	case n != int(e.flits)*flit.DataBytes || d.Flits != int(e.flits):
		l.fail("event %d: %d bytes in %d flits, sent %d flits", idx, n, d.Flits, e.flits)
	case binary.LittleEndian.Uint64(d.Payload[8:]) != tag || binary.LittleEndian.Uint64(d.Payload[n-8:]) != tag:
		l.fail("event %d: payload corrupted", idx)
	case d.Birth != e.at:
		l.fail("event %d: born at cycle %d, sent at %d", idx, d.Birth, e.at)
	case d.Arrived-d.Birth < zeroLoad(int(e.hops), int(e.flits)):
		l.fail("event %d: latency %d beats the zero-load bound %d", idx, d.Arrived-d.Birth, zeroLoad(int(e.hops), int(e.flits)))
	default:
		l.done[idx] = true
		l.delivered++
		l.deliveredFlits += int64(e.flits)
		l.mix(idx)
		l.mix(uint64(d.Arrived))
	}
}

// replay is the client on one tile: it drains and checks the tile's
// deliveries, then sends every packet of the generated input born this
// cycle.
type replay struct {
	tile      int
	next, end int // cursor into the ledger's events
	buf       []byte
	l         *ledger
}

// Tick implements network.Client.
func (c *replay) Tick(now int64, p *network.Port) {
	for _, d := range p.Deliveries() {
		c.l.deliver(c.tile, d)
	}
	for c.next < c.end && c.l.in.events[c.next].at <= now {
		c.send(p)
	}
}

func (c *replay) send(p *network.Port) {
	idx := c.next
	c.next++
	e := &c.l.in.events[idx]
	n := int(e.flits) * flit.DataBytes
	if cap(c.buf) < n {
		c.buf = make([]byte, n)
	}
	pl := c.buf[:n]
	tag := payloadTag(idx)
	binary.LittleEndian.PutUint64(pl, uint64(idx))
	binary.LittleEndian.PutUint64(pl[8:], tag)
	binary.LittleEndian.PutUint64(pl[n-8:], tag)
	id, err := p.Send(int(e.dst), pl, allVCs, 0)
	if err != nil {
		c.l.fail("event %d: send %d->%d: %v", idx, e.src, e.dst, err)
		return
	}
	c.l.ids[idx] = id
	c.l.sent++
}

// attach installs a fresh replay client on every tile.
func (l *ledger) attach(n *network.Network) {
	for tile := 0; tile+1 < len(l.in.first); tile++ {
		n.AttachClient(tile, &replay{tile: tile, next: l.in.first[tile], end: l.in.first[tile+1], l: l})
	}
}
