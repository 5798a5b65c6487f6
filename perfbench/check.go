package main

import (
	"fmt"

	"repro/internal/flit"
	"repro/internal/network"
)

// drainBudget bounds the cycles a run may take to empty the network after
// the last packet is born.
const drainBudget = 200000

// run is one simulation of a workload's inputs on a built network with
// the replay clients attached: every packet is born, then the network
// drains.
func run(w workload, n *network.Network) bool {
	n.Run(w.cycles)
	return n.Drain(drainBudget)
}

// simSlices is how many pieces a timed simulation is cut into, each
// followed by a reference slice, so the reference samples the host's
// speed throughout the simulation.
const simSlices = 8

// timedRun is run cut into slices and metered. The slices cover the same
// cycles as run, so the result must match it exactly.
func timedRun(w workload, n *network.Network) (meter, bool) {
	var m meter
	step := (w.cycles + simSlices - 1) / simSlices
	for c := int64(0); c < w.cycles; c += step {
		m.time(func() { n.Run(min(step, w.cycles-c)) })
	}
	var drained bool
	m.time(func() { drained = n.Drain(drainBudget) })
	return m, drained
}

// verify checks a finished run against the ledger and the simulator's own
// accounting, and returns the run's fingerprint: the ledger's delivery
// order and timing folded with the final cycle and the recorder's
// latency sums. Two runs of the same inputs must agree on it exactly.
func verify(n *network.Network, l *ledger, drained bool) (uint64, error) {
	rec := n.Recorder()
	want := int64(len(l.in.events))
	switch {
	case !drained:
		return 0, fmt.Errorf("network did not drain within %d cycles", drainBudget)
	case l.errs > 0:
		return 0, fmt.Errorf("%d delivery errors, first: %s", l.errs, l.firstErr)
	case l.sent != want:
		return 0, fmt.Errorf("sent %d of %d packets", l.sent, want)
	case l.delivered != l.sent:
		return 0, fmt.Errorf("delivered %d of %d packets", l.delivered, l.sent)
	case l.deliveredFlits != l.in.flits:
		return 0, fmt.Errorf("delivered %d of %d flits", l.deliveredFlits, l.in.flits)
	case n.FlitsOutstanding() != 0:
		return 0, fmt.Errorf("%d flits still outstanding after the drain", n.FlitsOutstanding())
	case rec.Generated != l.sent || rec.DeliveredPackets != l.delivered || rec.DeliveredFlits != l.deliveredFlits:
		return 0, fmt.Errorf("recorder counts generated=%d delivered=%d flits=%d, ledger %d/%d/%d",
			rec.Generated, rec.DeliveredPackets, rec.DeliveredFlits, l.sent, l.delivered, l.deliveredFlits)
	}
	fp := l.fp
	for _, v := range []int64{n.Kernel().Now(), rec.PacketLatency.Count(), rec.PacketLatency.Sum(),
		rec.NetworkLatency.Sum(), rec.WindowFlits} {
		fp = (fp ^ uint64(v)) * fnvPrime
	}
	return fp, nil
}

// observation is the part of a network.PacketObservation the reference
// run keeps.
type observation struct {
	id                     uint64
	src, dst, hops, flits  int
	birth, inject, arrived int64
}

// observer records every delivered packet the network reports.
type observer struct{ obs []observation }

// PacketDelivered implements network.PacketObserver.
func (o *observer) PacketDelivered(ob *network.PacketObservation) {
	o.obs = append(o.obs, observation{
		id: ob.ID, src: ob.Src, dst: ob.Dst, hops: ob.Hops, flits: ob.Flits,
		birth: ob.Birth, inject: ob.Inject, arrived: ob.Arrived,
	})
}

// zeroLoadCheck sends isolated packets through an idle network one at a
// time: each must take a minimal route and arrive exactly T0 = H·t_r + L/b
// cycles after its head entered the network.
func zeroLoadCheck(w workload, seed int64) error {
	n, _, err := w.build(1, nil)
	if err != nil {
		return err
	}
	o := &observer{}
	n.SetPacketObserver(o)
	for i, e := range w.zeroLoadProbes(seed, 32) {
		o.obs = o.obs[:0]
		id, err := n.Port(int(e.src)).Send(int(e.dst), make([]byte, int(e.flits)*flit.DataBytes), allVCs, 0)
		if err != nil {
			return fmt.Errorf("zero-load probe %d: %w", i, err)
		}
		for c := 0; c < 1000 && len(o.obs) == 0; c++ {
			n.Run(1)
		}
		want := zeroLoad(int(e.hops), int(e.flits))
		switch {
		case len(o.obs) != 1:
			return fmt.Errorf("zero-load probe %d (%d->%d): %d deliveries, want 1", i, e.src, e.dst, len(o.obs))
		case o.obs[0].id != id || o.obs[0].src != int(e.src) || o.obs[0].dst != int(e.dst):
			return fmt.Errorf("zero-load probe %d: delivered packet %d %d->%d, sent %d %d->%d",
				i, o.obs[0].id, o.obs[0].src, o.obs[0].dst, id, e.src, e.dst)
		case o.obs[0].hops != int(e.hops):
			return fmt.Errorf("zero-load probe %d (%d->%d): %d hops, minimal is %d", i, e.src, e.dst, o.obs[0].hops, e.hops)
		case o.obs[0].arrived-o.obs[0].inject != want:
			return fmt.Errorf("zero-load probe %d (%d->%d, %d hops, %d flits): network latency %d, model T0 %d",
				i, e.src, e.dst, e.hops, e.flits, o.obs[0].arrived-o.obs[0].inject, want)
		}
		if ds := n.Port(int(e.dst)).Deliveries(); len(ds) != 1 || ds[0].PacketID != id {
			return fmt.Errorf("zero-load probe %d: tile %d port holds %d deliveries", i, e.dst, len(ds))
		}
	}
	return nil
}

// referenceRun simulates the inputs once, untimed, with the network's
// packet observer attached, and checks what the replay clients cannot
// see: every packet took a minimal route and no packet's network latency
// beat the zero-load model. It returns the fingerprint every later run
// must reproduce.
func referenceRun(w workload, l *ledger) (uint64, error) {
	n, _, err := w.build(1, nil)
	if err != nil {
		return 0, err
	}
	o := &observer{obs: make([]observation, 0, len(l.in.events))}
	n.SetPacketObserver(o)
	l.reset()
	l.attach(n)
	fp, err := verify(n, l, run(w, n))
	if err != nil {
		return 0, err
	}
	if len(o.obs) != len(l.in.events) {
		return 0, fmt.Errorf("observer saw %d packets, sent %d", len(o.obs), len(l.in.events))
	}
	idx := make(map[uint64]int, len(l.ids))
	for i, id := range l.ids {
		idx[id] = i
	}
	for _, ob := range o.obs {
		i, ok := idx[ob.id]
		if !ok {
			return 0, fmt.Errorf("observer saw unknown packet %d", ob.id)
		}
		e := l.in.events[i]
		switch {
		case ob.src != int(e.src) || ob.dst != int(e.dst) || ob.flits != int(e.flits) || ob.birth != e.at:
			return 0, fmt.Errorf("event %d observed as %d->%d (%d flits, born %d)", i, ob.src, ob.dst, ob.flits, ob.birth)
		case ob.hops != int(e.hops):
			return 0, fmt.Errorf("event %d (%d->%d) took %d hops, minimal is %d", i, e.src, e.dst, ob.hops, e.hops)
		case ob.inject < ob.birth:
			return 0, fmt.Errorf("event %d injected at %d before its birth at %d", i, ob.inject, ob.birth)
		case ob.arrived-ob.inject < zeroLoad(int(e.hops), int(e.flits)):
			return 0, fmt.Errorf("event %d: network latency %d beats T0 %d", i, ob.arrived-ob.inject, zeroLoad(int(e.hops), int(e.flits)))
		}
	}
	return fp, nil
}

// shardedRun simulates the inputs once more with the cycle loop split
// across two shards, which the simulator promises yields byte-identical
// results; it returns that run's fingerprint.
func shardedRun(w workload, l *ledger) (uint64, error) {
	n, _, err := w.build(2, nil)
	if err != nil {
		return 0, err
	}
	l.reset()
	l.attach(n)
	return verify(n, l, run(w, n))
}
