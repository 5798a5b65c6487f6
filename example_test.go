package noc_test

import (
	"fmt"

	noc "repro"
	"repro/internal/topology"
)

// Example sends a datagram across the paper's baseline network.
func Example() {
	topo, _ := noc.NewFoldedTorus(4, 4)
	n, _ := noc.NewNetwork(noc.NetworkConfig{
		Topo:   topo,
		Router: noc.DefaultRouterConfig(0),
		Seed:   1,
	})
	n.AttachClient(5, noc.ClientFunc(func(now int64, p *noc.Port) {
		for _, d := range p.Deliveries() {
			fmt.Printf("tile 5 got %q from tile %d in %d cycles\n",
				d.Payload, d.Src, d.Arrived-d.Birth)
		}
	}))
	if _, err := n.Port(0).Send(5, []byte("hello"), noc.MaskFor(0), 0); err != nil {
		fmt.Println(err)
		return
	}
	n.Run(20)
	// Output:
	// tile 5 got "hello" from tile 0 in 6 cycles
}

// ExampleNewFoldedTorus shows the physical fold of the paper's Figure 1:
// the ring in each row visits physical positions 0, 2, 3, 1.
func ExampleNewFoldedTorus() {
	fmt.Println(topology.FoldOrder(4))
	topo, _ := noc.NewFoldedTorus(4, 4)
	a := topology.Analyze(topo)
	fmt.Printf("channels=%d bisection=%d avg link=%.1f pitches\n",
		a.Channels, a.BisectionChannels, a.AvgLinkLength)
	// Output:
	// [0 2 3 1]
	// channels=64 bisection=16 avg link=1.5 pitches
}

// ExampleRun measures the baseline network under uniform random traffic.
func ExampleRun() {
	p := noc.DefaultRunParams()
	p.Rate = 0.1
	res, _ := noc.Run(p)
	fmt.Printf("accepted %.2f flits/node/cycle at offered %.2f\n",
		res.AcceptedFlits, res.OfferedFlits)
	// Output:
	// accepted 0.10 flits/node/cycle at offered 0.10
}

// ExampleExperimentByID regenerates one paper claim.
func ExampleExperimentByID() {
	e, _ := noc.ExperimentByID("E2")
	tbl, _ := e.Run(true, noc.Options{})
	// The §2.4 area overhead row:
	for _, row := range tbl.Rows {
		if row[0] == "area overhead" {
			fmt.Printf("%s: paper %s, model %s\n", row[0], row[1], row[2])
		}
	}
	// Output:
	// area overhead: paper 6.6%, model 6.6%
}
