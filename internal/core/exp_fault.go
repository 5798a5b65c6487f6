package core

import (
	"fmt"

	"repro/internal/flit"
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/router"
	"repro/internal/topology"
)

// E11Fault reproduces §2.5: spare-bit steering around hard wire faults,
// link-level ECC against transients, and end-to-end retry as the layered
// alternative.
func E11Fault(quick bool, opt Options) (*Table, error) {
	t := &Table{
		ID:    "E11",
		Title: "Fault-tolerant wiring and protocols (§2.5)",
		PaperClaim: "a spare bit per link plus steering routes around any single hard " +
			"fault; link-level ECC or end-to-end retry masks transients",
		Columns: []string{"scenario", "packets", "corrupted payloads", "verdict"},
	}
	cycles := int64(3000)
	if quick {
		cycles = 1500
	}

	// patternPayload builds a self-describing payload: byte i is
	// seed+i, so the receiver can verify integrity without side channels.
	patternPayload := func(seed byte, n int) []byte {
		p := make([]byte, n)
		for i := range p {
			p[i] = seed + byte(i)
		}
		return p
	}
	intact := func(p []byte) bool {
		for i := range p {
			if p[i] != p[0]+byte(i) {
				return false
			}
		}
		return len(p) > 0
	}

	runHardFault := func(steer bool) (packets, corrupted int64, err error) {
		topo, err := topology.NewFoldedTorus(4, 4)
		if err != nil {
			return 0, 0, err
		}
		n, err := opt.newNetwork(network.Config{
			Topo: topo, Router: router.DefaultConfig(0),
			PhysWires: true, SpareWires: 1, Seed: 21,
		})
		if err != nil {
			return 0, 0, err
		}
		// Kill one wire on every third link.
		for i, l := range n.Links() {
			if i%3 != 0 {
				continue
			}
			if err := l.Phys.InjectHardFault((i * 37) % (flit.DataBits + 1)); err != nil {
				return 0, 0, err
			}
			if steer {
				if err := l.Phys.ProgramSteering(); err != nil {
					return 0, 0, err
				}
			}
		}
		for tile := 0; tile < topo.NumTiles(); tile++ {
			tile := tile
			n.AttachClient(tile, network.ClientFunc(func(now int64, p *network.Port) {
				for _, d := range p.Deliveries() {
					packets++
					if !intact(d.Payload) {
						corrupted++
					}
				}
				if now < cycles-500 && now%5 == int64(tile%5) {
					dst := int(now+int64(tile)*3) % topo.NumTiles()
					if dst != tile {
						_, _ = p.Send(dst, patternPayload(byte(now+int64(tile)), 32), flit.VCMask(0xFF), 0)
					}
				}
			}))
		}
		n.Run(cycles)
		return packets, corrupted, nil
	}

	pk, bad, err := runHardFault(true)
	if err != nil {
		return nil, err
	}
	verdict := "PASS"
	if bad != 0 || pk == 0 {
		verdict = "FAIL"
	}
	t.AddRow("hard fault/3 links + steering", fmt.Sprint(pk), fmt.Sprint(bad), verdict)

	pk, bad, err = runHardFault(false)
	if err != nil {
		return nil, err
	}
	verdict = "corruption observed (expected)"
	if bad == 0 {
		verdict = "UNEXPECTED: fault had no effect"
	}
	t.AddRow("hard fault/3 links, no steering", fmt.Sprint(pk), fmt.Sprint(bad), verdict)

	// Transients masked by link-level ECC.
	runTransient := func(ecc bool) (packets, corrupted, correctedFlits int64, err error) {
		topo, err := topology.NewFoldedTorus(4, 4)
		if err != nil {
			return 0, 0, 0, err
		}
		n, err := opt.newNetwork(network.Config{
			Topo: topo, Router: router.DefaultConfig(0),
			PhysWires: true, TransientProb: 0.05, ECC: ecc, Seed: 23,
		})
		if err != nil {
			return 0, 0, 0, err
		}
		for tile := 0; tile < topo.NumTiles(); tile++ {
			tile := tile
			n.AttachClient(tile, network.ClientFunc(func(now int64, p *network.Port) {
				for _, d := range p.Deliveries() {
					packets++
					if !intact(d.Payload) {
						corrupted++
					}
				}
				if now < cycles-500 && now%4 == int64(tile%4) {
					dst := (tile*5 + int(now)) % topo.NumTiles()
					if dst != tile {
						_, _ = p.Send(dst, patternPayload(byte(now), 32), flit.VCMask(0xFF), 0)
					}
				}
			}))
		}
		n.Run(cycles)
		for _, l := range n.Links() {
			correctedFlits += l.Phys.CorrectedFlits
		}
		return packets, corrupted, correctedFlits, nil
	}
	pk, bad, fixed, err := runTransient(true)
	if err != nil {
		return nil, err
	}
	verdict = "PASS"
	if bad != 0 || fixed == 0 {
		verdict = "FAIL"
	}
	t.AddRow(fmt.Sprintf("transients (5%%/link) + SECDED ECC, %d corrected", fixed),
		fmt.Sprint(pk), fmt.Sprint(bad), verdict)

	pk, bad, _, err = runTransient(false)
	if err != nil {
		return nil, err
	}
	verdict = "corruption observed (expected)"
	if bad == 0 {
		verdict = "UNEXPECTED: transients had no effect"
	}
	t.AddRow("transients (5%/link), no protection", fmt.Sprint(pk), fmt.Sprint(bad), verdict)

	// End-to-end retry over an unprotected corrupting network.
	topo, err := topology.NewFoldedTorus(4, 4)
	if err != nil {
		return nil, err
	}
	n, err := opt.newNetwork(network.Config{
		Topo: topo, Router: router.DefaultConfig(0),
		PhysWires: true, TransientProb: 0.03, Seed: 25,
	})
	if err != nil {
		return nil, err
	}
	msgs := make([][]byte, 40)
	for i := range msgs {
		msgs[i] = patternPayload(byte(i), 24)
	}
	snd := protocol.NewReliableSender(13, msgs, flit.MaskFor(0))
	rcv := protocol.NewReliableReceiver(flit.MaskFor(1))
	n.AttachClient(2, snd)
	n.AttachClient(13, rcv)
	done := n.Kernel().RunUntil(func() bool { return snd.Done() }, 300000)
	good := 0
	for i, m := range rcv.Received {
		if i < len(msgs) && string(m) == string(msgs[i]) {
			good++
		}
	}
	verdict = "PASS"
	if !done || good != len(msgs) {
		verdict = "FAIL"
	}
	t.AddRow(fmt.Sprintf("e2e retry (%d retransmits, %d dropped as corrupt)", snd.Retransmits, rcv.Corrupted),
		fmt.Sprintf("%d/%d", good, len(msgs)), "0", verdict)
	return t, nil
}
