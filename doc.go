// Package noc is a cycle-accurate simulator and analytical model suite
// reproducing Dally & Towles, "Route Packets, Not Wires: On-Chip
// Interconnection Networks" (DAC 2001) — the paper that introduced the
// network-on-chip.
//
// The package is a facade over the internal implementation:
//
//   - the example network of §2: a 16-tile folded torus with 256-bit flits,
//     eight virtual channels, four flits of buffering per VC, 2-bit-per-hop
//     source routing, credit-based virtual-channel flow control, and cyclic
//     reservation registers for pre-scheduled traffic;
//   - the client interface of §2.1 (Port): a reliable-datagram injection and
//     delivery port with per-VC ready signals;
//   - the layered services of §2.2 (internal/protocol): logical wires,
//     memory read/write, flow-controlled streams, end-to-end retry;
//   - the analytical models of §2.4–§4.4: router area, mesh-vs-torus power,
//     low-swing signaling, wiring duty factor;
//   - the baselines the paper argues against: dedicated top-level wires and
//     a shared bus;
//   - the experiment suite E1–E20 (see DESIGN.md and EXPERIMENTS.md) that
//     regenerates every quantitative claim in the paper.
//
// A minimal use:
//
//	topo, _ := noc.NewFoldedTorus(4, 4)
//	n, _ := noc.NewNetwork(noc.NetworkConfig{Topo: topo, Router: noc.DefaultRouterConfig(0)})
//	n.AttachClient(5, noc.ClientFunc(func(now int64, p *noc.Port) {
//		for _, d := range p.Deliveries() {
//			fmt.Printf("got %q from tile %d\n", d.Payload, d.Src)
//		}
//	}))
//	n.Port(0).Send(5, []byte("hello"), noc.MaskFor(0), 0)
//	n.Run(100)
//
// See examples/ for runnable programs and cmd/nocbench for the experiment
// harness.
package noc
