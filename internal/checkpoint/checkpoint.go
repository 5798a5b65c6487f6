// Package checkpoint implements the crash-safe snapshot format behind the
// simulator's checkpoint/restore feature: a versioned, section-tagged
// binary container in which every stateful component of a simulation
// serialises itself explicitly.
//
// A checkpoint file is:
//
//	magic "NOCCKPT\x01"                      (8 bytes)
//	version     u32
//	header-len  u32
//	header      { config-hash u64, cycle i64, section-count u32 }
//	header CRC  u32 (IEEE, over the header payload)
//	sections    × section-count:
//	    name-len   u16, name bytes
//	    payload-len u32
//	    payload
//	    payload CRC u32 (IEEE, over the payload)
//	file CRC    u32 (IEEE, over everything before it)
//
// All integers are little-endian and fixed-width. Each section is guarded
// by its own CRC32 so a torn write or a flipped bit is detected at the
// granularity of one component, and the loader can name the damaged
// section; a trailing whole-file CRC closes the gaps the per-section CRCs
// leave (section names, length fields). The decoder is hardened against hostile input: every length
// field is validated against the bytes actually present before any slice
// is taken, so truncated or fuzzed input returns an error without
// panicking or over-allocating.
package checkpoint

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// Version is the current container format version. Readers reject files
// with a different version outright; state layouts inside sections are
// versioned with the container. Version 2 added the per-flit hop count
// (flow observatory) to the flit wire layout; version 3 added each
// link's active-bit counter (energy accounting) to the link layout.
// Version 4 saves each link's busy-cycle count in place of its
// utilization window and drops the probe's horizon, which is the clock.
// Version 5 saves each link's one-cycle wires as a flit register and a
// credit register in place of its flit and credit pipes and elastic
// stages. Version 6 saves the routers', ports' and links' event counters
// in their own layouts, not the probe's, and drops the network's abort
// count, which the ports' sum. Version 7 saves each random stream's PCG
// state with the component that draws it, in place of a draw count to
// replay, and drops the clock section that held the shared stream's.
const Version = 7

// magic identifies a checkpoint file. The trailing byte doubles as a
// format epoch so even the magic check catches a layout change.
var magic = []byte("NOCCKPT\x01")

// maxSectionName bounds section names; real names are short identifiers.
const maxSectionName = 256

// maxSections bounds the section count a file may claim.
const maxSections = 1 << 16

// Encoder accumulates one section's payload. All methods append
// fixed-width little-endian primitives.
type Encoder struct {
	buf []byte
}

// U8 appends one byte.
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// Bool appends a bool as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// U16 appends a little-endian uint16.
func (e *Encoder) U16(v uint16) { e.buf = binary.LittleEndian.AppendUint16(e.buf, v) }

// U32 appends a little-endian uint32.
func (e *Encoder) U32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }

// U64 appends a little-endian uint64.
func (e *Encoder) U64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// I64 appends an int64 (two's complement, little-endian).
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// Int appends an int as an int64.
func (e *Encoder) Int(v int) { e.I64(int64(v)) }

// F64 appends a float64 by its IEEE-754 bits.
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// Bytes appends a length-prefixed byte slice (u32 length).
func (e *Encoder) Bytes(b []byte) {
	e.U32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// String appends a length-prefixed string.
func (e *Encoder) String(s string) {
	e.U32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// I64s appends a length-prefixed []int64.
func (e *Encoder) I64s(vs []int64) {
	e.U32(uint32(len(vs)))
	for _, v := range vs {
		e.I64(v)
	}
}

// Len reports the payload size so far.
func (e *Encoder) Len() int { return len(e.buf) }

// Decoder consumes one section's payload with a sticky error: after the
// first failure every read returns the zero value and Err reports the
// cause, so restore code can decode a whole structure and check once.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder wraps a raw payload, mainly for tests; Restore code normally
// receives decoders from File.Section.
func NewDecoder(payload []byte) *Decoder { return &Decoder{buf: payload} }

func (d *Decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("checkpoint: "+format, args...)
	}
}

// Err reports the first decode failure, or nil.
func (d *Decoder) Err() error { return d.err }

// Fail records a structural restore error (a mismatch between the
// checkpoint and the rebuilt component) through the same sticky-error
// channel as wire-format failures. Subsequent reads return zero values.
func (d *Decoder) Fail(format string, args ...any) { d.fail(format, args...) }

// Remaining reports the unread bytes left in the payload.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Close verifies the payload was fully and cleanly consumed, catching
// layout skew between writer and reader.
func (d *Decoder) Close() error {
	if d.err != nil {
		return d.err
	}
	if r := d.Remaining(); r != 0 {
		return fmt.Errorf("checkpoint: %d trailing bytes in section payload", r)
	}
	return nil
}

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > d.Remaining() {
		d.fail("truncated payload: need %d bytes, have %d", n, d.Remaining())
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a bool.
func (d *Decoder) Bool() bool { return d.U8() != 0 }

// U16 reads a little-endian uint16.
func (d *Decoder) U16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 reads a little-endian uint32.
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads an int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// Int reads an int encoded as int64.
func (d *Decoder) Int() int { return int(d.I64()) }

// F64 reads a float64.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Bytes reads a length-prefixed byte slice. The returned slice aliases
// the payload (no copy, so a hostile length cannot trigger a large
// allocation); callers that retain it must copy.
func (d *Decoder) Bytes() []byte {
	n := d.U32()
	if d.err != nil {
		return nil
	}
	if int(n) > d.Remaining() {
		d.fail("byte slice length %d exceeds remaining %d", n, d.Remaining())
		return nil
	}
	return d.take(int(n))
}

// String reads a length-prefixed string.
func (d *Decoder) String() string { return string(d.Bytes()) }

// I64s reads a length-prefixed []int64. The length is validated against
// the bytes present before allocating.
func (d *Decoder) I64s() []int64 {
	n := d.U32()
	if d.err != nil {
		return nil
	}
	if int(n) > d.Remaining()/8 {
		d.fail("int64 slice length %d exceeds remaining %d bytes", n, d.Remaining())
		return nil
	}
	vs := make([]int64, n)
	for i := range vs {
		vs[i] = d.I64()
	}
	return vs
}

// Count reads a u32 element count and validates it against the minimum
// per-element size in bytes, so restore loops can pre-size slices without
// trusting the wire. minBytes must be >= 1.
func (d *Decoder) Count(minBytes int) int {
	n := d.U32()
	if d.err != nil {
		return 0
	}
	if minBytes < 1 {
		minBytes = 1
	}
	if int(n) > d.Remaining()/minBytes {
		d.fail("element count %d exceeds remaining %d bytes (min %d bytes each)",
			n, d.Remaining(), minBytes)
		return 0
	}
	return int(n)
}

// Builder assembles a checkpoint: a header plus named sections, each
// CRC-guarded. Sections are emitted in the order they were opened.
type Builder struct {
	configHash uint64
	cycle      int64
	names      []string
	encs       []*Encoder
}

// NewBuilder starts a checkpoint for the given configuration hash and
// resume cycle (the cycle the restored simulation will execute next).
func NewBuilder(configHash uint64, cycle int64) *Builder {
	return &Builder{configHash: configHash, cycle: cycle}
}

// Section opens a named section and returns its payload encoder. Opening
// the same name twice is a programming error and panics.
func (b *Builder) Section(name string) *Encoder {
	if len(name) == 0 || len(name) > maxSectionName {
		panic(fmt.Sprintf("checkpoint: bad section name %q", name))
	}
	for _, n := range b.names {
		if n == name {
			panic(fmt.Sprintf("checkpoint: duplicate section %q", name))
		}
	}
	e := &Encoder{}
	b.names = append(b.names, name)
	b.encs = append(b.encs, e)
	return e
}

// Bytes assembles the container.
func (b *Builder) Bytes() []byte {
	var hdr Encoder
	hdr.U64(b.configHash)
	hdr.I64(b.cycle)
	hdr.U32(uint32(len(b.names)))

	out := append([]byte(nil), magic...)
	out = binary.LittleEndian.AppendUint32(out, Version)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(hdr.buf)))
	out = append(out, hdr.buf...)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(hdr.buf))
	for i, name := range b.names {
		payload := b.encs[i].buf
		out = binary.LittleEndian.AppendUint16(out, uint16(len(name)))
		out = append(out, name...)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
		out = append(out, payload...)
		out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	}
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
	return out
}

// File is a parsed, CRC-verified checkpoint.
type File struct {
	Version    uint32
	ConfigHash uint64
	Cycle      int64

	names    []string
	payloads map[string][]byte
}

// Parse validates and indexes a checkpoint image. All CRCs are checked
// here, so a successful Parse means every section is intact.
func Parse(data []byte) (*File, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("checkpoint: too short to be a checkpoint file")
	}
	body, trailer := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.ChecksumIEEE(body) != trailer {
		return nil, fmt.Errorf("checkpoint: file CRC mismatch (torn or corrupt file)")
	}
	d := &Decoder{buf: body}
	if got := d.take(len(magic)); got == nil || string(got) != string(magic) {
		return nil, fmt.Errorf("checkpoint: bad magic (not a checkpoint file, or truncated)")
	}
	version := d.U32()
	if d.err == nil && version != Version {
		return nil, fmt.Errorf("checkpoint: unsupported version %d (want %d)", version, Version)
	}
	hdrLen := d.U32()
	if d.err != nil {
		return nil, d.err
	}
	if int(hdrLen) > d.Remaining() {
		return nil, fmt.Errorf("checkpoint: header length %d exceeds file size", hdrLen)
	}
	hdrBytes := d.take(int(hdrLen))
	hdrCRC := d.U32()
	if d.err != nil {
		return nil, d.err
	}
	if crc32.ChecksumIEEE(hdrBytes) != hdrCRC {
		return nil, fmt.Errorf("checkpoint: header CRC mismatch (torn or corrupt file)")
	}
	hd := &Decoder{buf: hdrBytes}
	f := &File{Version: version, ConfigHash: hd.U64(), Cycle: hd.I64(), payloads: map[string][]byte{}}
	nSections := hd.U32()
	if err := hd.Close(); err != nil {
		return nil, fmt.Errorf("checkpoint: malformed header: %w", err)
	}
	if nSections > maxSections {
		return nil, fmt.Errorf("checkpoint: implausible section count %d", nSections)
	}
	for i := uint32(0); i < nSections; i++ {
		nameLen := d.U16()
		if d.err == nil && (nameLen == 0 || int(nameLen) > maxSectionName) {
			return nil, fmt.Errorf("checkpoint: section %d: bad name length %d", i, nameLen)
		}
		nameBytes := d.take(int(nameLen))
		payloadLen := d.U32()
		if d.err != nil {
			return nil, d.err
		}
		if int(payloadLen) > d.Remaining() {
			return nil, fmt.Errorf("checkpoint: section %q: payload length %d exceeds remaining %d bytes (truncated)",
				nameBytes, payloadLen, d.Remaining())
		}
		payload := d.take(int(payloadLen))
		crc := d.U32()
		if d.err != nil {
			return nil, d.err
		}
		if crc32.ChecksumIEEE(payload) != crc {
			return nil, fmt.Errorf("checkpoint: section %q: CRC mismatch (corrupt)", nameBytes)
		}
		name := string(nameBytes)
		if _, dup := f.payloads[name]; dup {
			return nil, fmt.Errorf("checkpoint: duplicate section %q", name)
		}
		f.names = append(f.names, name)
		f.payloads[name] = payload
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("checkpoint: %d trailing bytes after last section", d.Remaining())
	}
	return f, nil
}

// Sections lists the section names in file order.
func (f *File) Sections() []string { return append([]string(nil), f.names...) }

// Section returns a decoder over the named section's payload, or an error
// if the section is absent (a component the writer did not know about).
func (f *File) Section(name string) (*Decoder, error) {
	p, ok := f.payloads[name]
	if !ok {
		return nil, fmt.Errorf("checkpoint: missing section %q", name)
	}
	return &Decoder{buf: p}, nil
}
