package flit

import (
	"repro/internal/checkpoint"
	"repro/internal/route"
)

// SaveState serialises one in-flight flit by value. Flits are owned by
// exactly one container (a port queue, a router VC buffer, a link's flit
// register), so each container saves the flits it holds and restores them as
// fresh pool allocations — the pool's free list itself is never
// serialised, and Outstanding() balances because every restored flit is
// drawn through Pool.Get.
func (f *Flit) SaveState(e *checkpoint.Encoder) {
	e.U8(uint8(f.Type))
	e.U8(uint8(f.Size))
	e.U8(uint8(f.Mask))
	f.Route.SaveState(e)
	e.Bytes(f.Data)
	e.Int(f.VC)
	e.U64(f.PacketID)
	e.Int(f.Seq)
	e.Int(f.TotalFlits)
	e.Int(f.Src)
	e.Int(f.Dst)
	e.I64(f.Inject)
	e.I64(f.Birth)
	e.Int(f.Class)
	e.Int(f.Flow)
	e.Int(f.Hops)
	e.Bool(f.Wrapped)
}

// RestoreFlit reads one flit saved with SaveState, drawing the object
// from pool (or allocating when pool is nil). The payload is copied out
// of the decoder's buffer into the flit's recycled Data capacity.
func RestoreFlit(d *checkpoint.Decoder, pool *Pool) *Flit {
	var f *Flit
	if pool != nil {
		f = pool.Get()
	} else {
		f = &Flit{}
	}
	f.Type = Type(d.U8())
	f.Size = SizeCode(d.U8())
	f.Mask = VCMask(d.U8())
	f.Route = route.RestoreWord(d)
	f.Data = append(f.Data[:0], d.Bytes()...)
	f.VC = d.Int()
	f.PacketID = d.U64()
	f.Seq = d.Int()
	f.TotalFlits = d.Int()
	f.Src = d.Int()
	f.Dst = d.Int()
	f.Inject = d.I64()
	f.Birth = d.I64()
	f.Class = d.Int()
	f.Flow = d.Int()
	f.Hops = d.Int()
	f.Wrapped = d.Bool()
	if d.Err() != nil && pool != nil {
		pool.Put(f)
		return nil
	}
	return f
}

// SaveFlits serialises a slice of flits with a count prefix.
func SaveFlits(e *checkpoint.Encoder, flits []*Flit) {
	e.U32(uint32(len(flits)))
	for _, f := range flits {
		f.SaveState(e)
	}
}

// RestoreFlits reads a flit slice saved with SaveFlits, appending to dst.
func RestoreFlits(d *checkpoint.Decoder, dst []*Flit, pool *Pool) []*Flit {
	n := d.Count(32)
	for i := 0; i < n; i++ {
		f := RestoreFlit(d, pool)
		if f == nil {
			return dst
		}
		dst = append(dst, f)
	}
	return dst
}
