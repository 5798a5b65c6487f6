package protocol

import (
	"encoding/binary"
	"fmt"

	"repro/internal/flit"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/stats"
)

// The memory read/write service of §2.2 ("this local logic could present a
// memory read/write service"): a Memory client serves a word-addressed RAM
// at its tile; Processor clients issue read and write requests over the
// network and match replies by transaction id.

// Memory op codes.
const (
	opRead  = 0x01
	opWrite = 0x02
	opReply = 0x80
)

// reqHeader is [op(1) id(8) addr(4) len(2)] followed by write data.
const reqHeader = 1 + 8 + 4 + 2

func encodeReq(op byte, id uint64, addr uint32, data []byte, length int) []byte {
	p := make([]byte, reqHeader+len(data))
	p[0] = op
	binary.LittleEndian.PutUint64(p[1:], id)
	binary.LittleEndian.PutUint32(p[9:], addr)
	binary.LittleEndian.PutUint16(p[13:], uint16(length))
	copy(p[reqHeader:], data)
	return p
}

func decodeReq(p []byte) (op byte, id uint64, addr uint32, length int, data []byte, err error) {
	if len(p) < reqHeader {
		return 0, 0, 0, 0, nil, fmt.Errorf("protocol: short memory message (%d bytes)", len(p))
	}
	op = p[0]
	id = binary.LittleEndian.Uint64(p[1:])
	addr = binary.LittleEndian.Uint32(p[9:])
	length = int(binary.LittleEndian.Uint16(p[13:]))
	data = p[reqHeader:]
	return op, id, addr, length, data, nil
}

// Memory is a RAM subsystem client: it answers read requests with data and
// write requests with an acknowledgement.
type Memory struct {
	Mask  flit.VCMask
	Class int

	mem map[uint32]byte

	Reads, Writes int64
	Errors        int64
}

// NewMemory returns an empty RAM client.
func NewMemory(mask flit.VCMask) *Memory {
	return &Memory{Mask: mask, mem: make(map[uint32]byte)}
}

// Peek reads a byte directly, for tests.
func (m *Memory) Peek(addr uint32) byte { return m.mem[addr] }

// Tick implements network.Client.
func (m *Memory) Tick(now int64, p *network.Port) {
	for _, d := range p.Deliveries() {
		op, id, addr, length, data, err := decodeReq(d.Payload)
		if err != nil {
			m.Errors++
			continue
		}
		switch op {
		case opRead:
			m.Reads++
			out := make([]byte, length)
			for i := range out {
				out[i] = m.mem[addr+uint32(i)]
			}
			_, _ = p.Send(d.Src, encodeReq(opRead|opReply, id, addr, out, length), m.Mask, m.Class)
		case opWrite:
			m.Writes++
			for i, b := range data {
				m.mem[addr+uint32(i)] = b
			}
			_, _ = p.Send(d.Src, encodeReq(opWrite|opReply, id, addr, nil, len(data)), m.Mask, m.Class)
		default:
			m.Errors++
		}
	}
}

// Processor issues a random read/write workload against one Memory tile,
// keeping up to MaxOutstanding transactions in flight — the "dynamic
// traffic, such as processor memory references, that cannot be predicted
// before run-time" of §2.6.
type Processor struct {
	MemTile        int
	Mask           flit.VCMask
	Class          int
	MaxOutstanding int
	AddrSpace      uint32
	MaxBytes       int
	StopAt         int64

	rng         *sim.Stream
	nextID      uint64
	outstanding map[uint64]pendingTxn
	shadow      map[uint32]byte

	RTT               *stats.Hist
	Issued, Completed int64
	Mismatches        int64
}

type pendingTxn struct {
	issued int64
	op     byte
	addr   uint32
	length int
	// check marks reads whose range had no write in flight at issue time;
	// only those are compared against the shadow copy, because the network
	// may legally reorder requests on different virtual channels.
	check bool
}

// NewProcessor returns a processor client.
func NewProcessor(memTile int, mask flit.VCMask, seed int64) *Processor {
	return &Processor{
		MemTile:        memTile,
		Mask:           mask,
		MaxOutstanding: 4,
		AddrSpace:      1 << 16,
		MaxBytes:       64,
		rng:            sim.NewStream(seed, sim.ProcessorStream),
		outstanding:    make(map[uint64]pendingTxn),
		shadow:         make(map[uint32]byte),
		RTT:            stats.NewHist(2048),
	}
}

// Tick implements network.Client.
func (c *Processor) Tick(now int64, p *network.Port) {
	for _, d := range p.Deliveries() {
		op, id, addr, _, data, err := decodeReq(d.Payload)
		if err != nil || op&opReply == 0 {
			continue
		}
		txn, ok := c.outstanding[id]
		if !ok {
			continue
		}
		delete(c.outstanding, id)
		c.Completed++
		c.RTT.Add(now - txn.issued)
		if txn.op == opRead && txn.check {
			// Read-your-writes consistency against the shadow copy.
			for i := 0; i < txn.length && i < len(data); i++ {
				if data[i] != c.shadow[addr+uint32(i)] {
					c.Mismatches++
					break
				}
			}
		}
	}
	if c.StopAt > 0 && now >= c.StopAt {
		return
	}
	for len(c.outstanding) < c.MaxOutstanding {
		id := c.nextID
		c.nextID++
		addr := uint32(c.rng.IntN(int(c.AddrSpace)))
		length := 1 + c.rng.IntN(c.MaxBytes)
		var payload []byte
		var op byte
		check := false
		if c.rng.IntN(2) == 0 {
			op = opRead
			payload = encodeReq(opRead, id, addr, nil, length)
			check = !c.overlapsOutstandingWrite(addr, length)
		} else {
			op = opWrite
			if c.overlapsOutstandingWrite(addr, length) {
				// Two in-flight writes to the same bytes could be applied
				// in either order; hold this one back a cycle so the
				// shadow copy stays authoritative.
				c.nextID--
				return
			}
			data := make([]byte, length)
			c.rng.Read(data)
			for i, b := range data {
				c.shadow[addr+uint32(i)] = b
			}
			payload = encodeReq(opWrite, id, addr, data, length)
			// A write racing an in-flight read (or write) to the same
			// range makes the outcome order-dependent: stop checking the
			// read, and rely on the memory applying writes in arrival
			// order for the rest.
			for tid, txn := range c.outstanding {
				if txn.op == opRead && txn.check &&
					addr < txn.addr+uint32(txn.length) && txn.addr < addr+uint32(length) {
					txn.check = false
					c.outstanding[tid] = txn
				}
			}
		}
		if _, err := p.Send(c.MemTile, payload, c.Mask, c.Class); err != nil {
			return
		}
		c.outstanding[id] = pendingTxn{issued: now, op: op, addr: addr, length: length, check: check}
		c.Issued++
	}
}

func (c *Processor) overlapsOutstandingWrite(addr uint32, length int) bool {
	for _, txn := range c.outstanding {
		if txn.op != opWrite {
			continue
		}
		if addr < txn.addr+uint32(txn.length) && txn.addr < addr+uint32(length) {
			return true
		}
	}
	return false
}

// Outstanding reports in-flight transactions, for drain checks.
func (c *Processor) Outstanding() int { return len(c.outstanding) }
