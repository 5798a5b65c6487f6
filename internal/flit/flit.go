// Package flit defines the flow-control digit (flit) and packet types of the
// on-chip network, with the exact control fields of Section 2.1 of Dally &
// Towles, "Route Packets, Not Wires" (DAC 2001):
//
//   - Type (2 bits): head, body, tail, or idle; a flit may be both head and
//     tail (a single-flit packet).
//   - Size (4 bits): logarithmically encodes the number of valid data bits,
//     from 0 (1 bit) to 8 (256 bits), so short payloads do not burn power in
//     unused bit lanes.
//   - Virtual channel mask (8 bits): the set of virtual channels the packet
//     may use; it identifies a class of service.
//   - Route (16 bits): a source route of 2-bit steps (left, right, straight,
//     extract), used only on head flits; non-head flits may carry data there.
//
// The Ready field of the paper's port is a signal from the network, not part
// of the flit; it is modelled by the port types in internal/network.
package flit

import (
	"fmt"

	"repro/internal/route"
)

// DataBits is the width of the data field of a flit, in bits (§2.1).
const DataBits = 256

// DataBytes is the width of the data field in bytes.
const DataBytes = DataBits / 8

// OverheadBits approximates the control overhead carried alongside the data
// field: type (2) + size (4) + VC mask (8) + route (16) + per-link framing.
// The paper quotes "about 300b per flit (with overhead)".
const OverheadBits = 44

// TotalBits is data plus control overhead, the paper's ~300-bit flit.
const TotalBits = DataBits + OverheadBits

// Type is the 2-bit flit type field.
type Type uint8

// Flit types. HeadTail marks a single-flit packet, which the paper permits
// ("a flit may be both a head and a tail").
const (
	Idle Type = iota
	Head
	Body
	Tail
	HeadTail
)

// String names the flit type.
func (t Type) String() string {
	switch t {
	case Idle:
		return "idle"
	case Head:
		return "head"
	case Body:
		return "body"
	case Tail:
		return "tail"
	case HeadTail:
		return "headtail"
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// IsHead reports whether the flit opens a packet.
func (t Type) IsHead() bool { return t == Head || t == HeadTail }

// IsTail reports whether the flit closes a packet.
func (t Type) IsTail() bool { return t == Tail || t == HeadTail }

// SizeCode is the 4-bit logarithmic size field: code s means 2^s valid bits,
// for s in [0, 8].
type SizeCode uint8

// MaxSizeCode is the largest legal size code (256 bits).
const MaxSizeCode SizeCode = 8

// Bits decodes the size field to a bit count.
func (s SizeCode) Bits() int {
	if s > MaxSizeCode {
		s = MaxSizeCode
	}
	return 1 << s
}

// EncodeSize returns the smallest size code whose decoded width covers bits.
// It returns an error if bits is not in [1, 256].
func EncodeSize(bits int) (SizeCode, error) {
	if bits < 1 || bits > DataBits {
		return 0, fmt.Errorf("flit: size %d bits out of range [1,%d]", bits, DataBits)
	}
	var s SizeCode
	for (1 << s) < bits {
		s++
	}
	return s, nil
}

// VCMask is the 8-bit virtual-channel mask; bit v set means the packet may
// be routed on virtual channel v.
type VCMask uint8

// NumVCs is the number of virtual channels in the paper's example network.
const NumVCs = 8

// MaskFor returns the mask with exactly virtual channel vc set.
func MaskFor(vc int) VCMask { return VCMask(1) << uint(vc) }

// Has reports whether the mask permits virtual channel vc.
func (m VCMask) Has(vc int) bool { return m&(VCMask(1)<<uint(vc)) != 0 }

// Lowest reports the lowest-numbered permitted virtual channel, or -1 if
// the mask is empty.
func (m VCMask) Lowest() int {
	for v := 0; v < NumVCs; v++ {
		if m.Has(v) {
			return v
		}
	}
	return -1
}

// Count reports the number of permitted virtual channels.
func (m VCMask) Count() int {
	n := 0
	for v := 0; v < NumVCs; v++ {
		if m.Has(v) {
			n++
		}
	}
	return n
}

// Flit is one flow-control digit in flight. The struct carries both the
// architectural fields of §2.1 and simulation bookkeeping (identity and
// timestamps) used for measurement; the bookkeeping does not influence
// routing or arbitration.
type Flit struct {
	// Architectural fields.
	Type  Type
	Size  SizeCode
	Mask  VCMask
	Route route.Word // consumed hop by hop; meaningful on head flits
	Data  []byte     // up to DataBytes; logical payload

	// VC is the virtual channel the flit currently occupies. It is chosen
	// per link from Mask by the upstream VC allocator, mirroring hardware
	// where the VC identifier travels beside the flit.
	VC int

	// Bookkeeping (not visible to hardware, except TotalFlits which a
	// cut-through router would carry as a length field in the head).
	PacketID   uint64
	Seq        int   // flit index within its packet
	TotalFlits int   // packet length in flits (set on every flit)
	Src, Dst   int   // tile ids, for stats and destination-routed modes
	Inject     int64 // cycle the packet was offered to the network
	Birth      int64 // cycle the packet was created by its client (queue time)
	Class      int   // service class, for reporting
	Flow       int   // pre-scheduled flow id (0 = dynamic traffic), §2.6
	Hops       int   // link traversals on the packet's source route (H in the §3 latency model)

	// Wrapped is the dateline bit used for torus deadlock avoidance: set
	// when the packet crosses a ring's wraparound dateline, cleared when
	// it turns into a new dimension. Routers use it to pick the virtual-
	// channel class (see router.Config.DatelineVCs). In hardware this is
	// one header bit; the paper's reference [2] (Dally, "Virtual Channel
	// Flow Control") is the source of the scheme.
	Wrapped bool
}

// PayloadBits reports the number of valid payload bits per the size field.
func (f *Flit) PayloadBits() int { return f.Size.Bits() }

// Clone returns a deep copy of the flit (the Data slice is copied).
func (f *Flit) Clone() *Flit {
	g := *f
	if f.Data != nil {
		g.Data = append([]byte(nil), f.Data...)
	}
	return &g
}

// String renders the flit compactly for traces and test failures.
func (f *Flit) String() string {
	return fmt.Sprintf("{%s pkt=%d seq=%d vc=%d %d->%d size=%db}",
		f.Type, f.PacketID, f.Seq, f.VC, f.Src, f.Dst, f.PayloadBits())
}

// Packet is a client-level message before segmentation into flits.
type Packet struct {
	ID       uint64
	Src, Dst int
	Mask     VCMask
	Route    route.Word
	Payload  []byte
	Birth    int64
	Class    int
	Hops     int
}

// Flits segments the packet into flits carrying at most DataBytes each.
// A packet whose payload fits in one flit yields a single HeadTail flit.
// An empty payload yields one HeadTail flit with size code 0 (1 valid bit),
// matching the paper's minimum flit.
func (p *Packet) Flits() []*Flit {
	return p.AppendFlits(nil, nil)
}

// AppendFlits segments the packet into flits appended to dst, drawing flit
// objects from pool when it is non-nil (each flit then owns a private copy
// of its payload slice in recycled buffer capacity). This is the
// allocation-free form of Flits for the injection hot path: with a reused
// dst and a pool, a steady-state call allocates nothing.
func (p *Packet) AppendFlits(dst []*Flit, pool *Pool) []*Flit {
	n := p.NumFlits()
	for i := 0; i < n; i++ {
		chunk := p.Payload[min(i*DataBytes, len(p.Payload)):min((i+1)*DataBytes, len(p.Payload))]
		t := Body
		switch {
		case n == 1:
			t = HeadTail
		case i == 0:
			t = Head
		case i == n-1:
			t = Tail
		}
		bits := len(chunk) * 8
		if bits == 0 {
			bits = 1
		}
		sc, err := EncodeSize(bits)
		if err != nil {
			// unreachable: NumFlits caps chunk length at DataBytes
			panic(err)
		}
		var f *Flit
		if pool != nil {
			f = pool.Get()
		} else {
			f = &Flit{}
		}
		f.Type = t
		f.Size = sc
		f.Mask = p.Mask
		f.Route = p.Route
		f.Data = append(f.Data[:0], chunk...)
		f.PacketID = p.ID
		f.Seq = i
		f.TotalFlits = n
		f.Src = p.Src
		f.Dst = p.Dst
		f.Birth = p.Birth
		f.Class = p.Class
		f.Hops = p.Hops
		dst = append(dst, f)
	}
	return dst
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// NumFlits reports how many flits the packet segments into.
func (p *Packet) NumFlits() int { return FlitsFor(len(p.Payload)) }

// FlitsFor reports how many flits carry an n-byte payload (at least one).
func FlitsFor(n int) int { return max(1, (n+DataBytes-1)/DataBytes) }

// Reassemble concatenates the payloads of a packet's flits, in sequence
// order. It returns an error if the flits disagree on packet identity or a
// sequence number is missing.
func Reassemble(flits []*Flit) ([]byte, error) {
	if len(flits) == 0 {
		return nil, fmt.Errorf("flit: reassemble of zero flits")
	}
	id := flits[0].PacketID
	bySeq := make(map[int]*Flit, len(flits))
	for _, f := range flits {
		if f.PacketID != id {
			return nil, fmt.Errorf("flit: mixed packets %d and %d", id, f.PacketID)
		}
		if _, dup := bySeq[f.Seq]; dup {
			return nil, fmt.Errorf("flit: duplicate seq %d in packet %d", f.Seq, id)
		}
		bySeq[f.Seq] = f
	}
	var out []byte
	for i := 0; i < len(flits); i++ {
		f, ok := bySeq[i]
		if !ok {
			return nil, fmt.Errorf("flit: packet %d missing seq %d", id, i)
		}
		out = append(out, f.Data...)
	}
	if !bySeq[0].Type.IsHead() {
		return nil, fmt.Errorf("flit: packet %d first flit is %v, not a head", id, bySeq[0].Type)
	}
	if last := bySeq[len(flits)-1]; !last.Type.IsTail() {
		return nil, fmt.Errorf("flit: packet %d truncated: last flit is %v, not a tail", id, last.Type)
	}
	return out, nil
}
