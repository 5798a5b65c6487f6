package router

import (
	"math/rand"
	"testing"

	"repro/internal/flit"
	"repro/internal/link"
	"repro/internal/route"
)

// TestRouterConservationProperty drives one router with randomized packet
// streams on all four compass inputs plus injection, with a live credit
// loop on every output, and checks hardware-style invariants:
//
//   - flit conservation: everything accepted eventually leaves on exactly
//     one output or the ejection port;
//   - per-packet integrity: flits of a packet leave the same output, in
//     order, never interleaved with another packet on the same VC;
//   - credit balance: when idle, every credit counter is full again.
func TestRouterConservationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 8; trial++ {
		cfg := DefaultConfig(0)
		cfg.NumVCs = []int{2, 4, 8}[rng.Intn(3)]
		cfg.BufFlits = 1 + rng.Intn(4)
		r, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		dirs := []route.Dir{route.North, route.East, route.South, route.West}
		outs := map[route.Dir]*link.Link{}
		for _, d := range dirs {
			l := link.New(link.Config{})
			l.Dir = d
			outs[d] = l
			r.SetOutLink(d, l, cfg.BufFlits)
		}

		type stream struct {
			in     route.Dir
			vc     int
			queue  []*flit.Flit
			credit int
		}
		var streams []*stream
		var totalFlits int
		pid := uint64(1)
		// Build a random packet per (input, vc) pair, routed to a random
		// legal output.
		for _, in := range append(dirs, route.Local) {
			for vc := 0; vc < cfg.NumVCs; vc++ {
				if rng.Intn(3) == 0 {
					continue // leave some (input, vc) pairs idle
				}
				nf := 1 + rng.Intn(4)
				var w route.Word
				if in == route.Local {
					absCodes := []route.Code{route.Straight, route.Left, route.Right, route.Extract}
					w, _ = w.Push(absCodes[rng.Intn(4)])
				} else {
					// Any non-U-turn code; Extract ejects.
					w, _ = w.Push(route.Code(rng.Intn(4)))
				}
				if w.Peek() != route.Extract || in == route.Local {
					w, _ = w.Push(route.Extract)
				}
				st := &stream{in: in, vc: vc, credit: cfg.BufFlits}
				for i := 0; i < nf; i++ {
					typ := flit.Body
					switch {
					case nf == 1:
						typ = flit.HeadTail
					case i == 0:
						typ = flit.Head
					case i == nf-1:
						typ = flit.Tail
					}
					st.queue = append(st.queue, &flit.Flit{
						Type: typ, VC: vc, Mask: flit.MaskFor(vc), Route: w,
						PacketID: pid, Seq: i, TotalFlits: nf,
					})
				}
				pid++
				totalFlits += nf
				streams = append(streams, st)
			}
		}

		// Run the router, feeding streams as their credit loop allows and
		// draining every output with a modelled downstream that returns
		// one credit per received flit.
		received := map[uint64][]*flit.Flit{}
		outOf := map[uint64]route.Dir{}
		lastVCPacket := map[[2]any]uint64{} // (outDir, vc) -> packet in progress
		now := int64(0)
		for cycle := 0; cycle < 400; cycle++ {
			for _, d := range dirs {
				f, _, _ := outs[d].Deliver()
				if f != nil {
					received[f.PacketID] = append(received[f.PacketID], f)
					if prev, ok := outOf[f.PacketID]; ok && prev != d {
						t.Fatalf("trial %d: packet %d split across outputs %v and %v", trial, f.PacketID, prev, d)
					}
					outOf[f.PacketID] = d
					key := [2]any{d, f.VC}
					if cur, ok := lastVCPacket[key]; ok && cur != f.PacketID {
						t.Fatalf("trial %d: packet %d interleaved with %d on %v vc %d", trial, f.PacketID, cur, d, f.VC)
					}
					lastVCPacket[key] = f.PacketID
					if f.Type.IsTail() {
						delete(lastVCPacket, key)
					}
					r.HandleCredit(d, f.VC)
				}
			}
			for _, f := range r.Eject() {
				received[f.PacketID] = append(received[f.PacketID], f)
			}
			r.RouteCompute(now)
			r.LinkArbitrate(now)
			r.SwitchArbitrate(now)
			// The packed mask mirrors must track the unpacked state they
			// shadow through every phase.
			if msg := r.checkMasks(); msg != "" {
				t.Fatalf("trial %d cycle %d: %s", trial, cycle, msg)
			}
			for _, st := range streams {
				if len(st.queue) == 0 {
					continue
				}
				// The upstream sender respects this router's buffer space
				// the same way credits would.
				if st.in == route.Local {
					if !r.CanInject(st.vc) {
						continue
					}
				} else if !r.CanAccept(st.in, st.vc) {
					continue
				}
				r.AcceptFlit(st.queue[0], st.in)
				st.queue = st.queue[1:]
			}
			now++
		}

		got := 0
		for id, fl := range received {
			got += len(fl)
			for i, f := range fl {
				if f.Seq != i {
					t.Fatalf("trial %d: packet %d out of order (%d at %d)", trial, id, f.Seq, i)
				}
			}
		}
		if got != totalFlits {
			t.Fatalf("trial %d: conservation violated: %d of %d flits emerged (occupancy %d)",
				trial, got, totalFlits, r.Occupancy())
		}
		if r.Occupancy() != 0 {
			t.Fatalf("trial %d: router not empty", trial)
		}
		for _, d := range dirs {
			// Let reverse credit wires settle, then check the balance.
			for i := 0; i < 4; i++ {
				if _, vc, credited := outs[d].Deliver(); credited {
					r.HandleCredit(d, vc)
				}
			}
			for vc := 0; vc < cfg.NumVCs; vc++ {
				if r.CreditCount(d, vc) != cfg.BufFlits {
					t.Fatalf("trial %d: %v vc %d credits %d, want %d",
						trial, d, vc, r.CreditCount(d, vc), cfg.BufFlits)
				}
			}
		}
	}
}
