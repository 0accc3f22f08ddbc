package netsim_test

import (
	"fmt"

	"cellfi/internal/netsim"
	"cellfi/internal/topo"
)

// shared returns the subchannels two cells both reserve, in a's order.
func shared(a, b []int) []int {
	in := map[int]bool{}
	for _, k := range b {
		in[k] = true
	}
	var both []int
	for _, k := range a {
		if in[k] {
			both = append(both, k)
		}
	}
	return both
}

// Quickstart: build a small CellFi deployment, run the distributed
// interference management for half a minute of virtual time, and print
// what each cell reserved, what each client got, and which subchannels
// each pair of cells holds in common.
func Example_quickstart() {
	// Three access points in a 1 km square, four clients each —
	// close enough that they must share the 5 MHz TV channel.
	params := topo.Paper(3, 4)
	params.AreaSide = 1000
	topology := topo.Generate(params, 42)

	cfg := netsim.DefaultConfig(netsim.SchemeCellFi, 42)
	network := netsim.New(topology, cfg)

	// Saturate every downlink queue and let the controllers run 30
	// one-second interference-management epochs.
	throughputs := network.Run(30)

	fmt.Println("CellFi quickstart: 3 cells x 4 clients on one 5 MHz TV channel")
	fmt.Println()
	for cell := range topology.APs {
		fmt.Printf("cell %d reserved subchannels %v\n", cell, network.Allowed(cell))
		for _, ci := range network.ClientsOf[cell] {
			c := network.Clients[ci]
			fmt.Printf("   client %2d at %-18s  %.2f Mbps\n",
				ci, c.Pos, throughputs[ci])
		}
	}
	fmt.Printf("\ncontroller hops during convergence: %d\n", network.Hops)
	fmt.Println("subchannels reserved by both cells of a pair:")
	for a := range topology.APs {
		for b := a + 1; b < len(topology.APs); b++ {
			fmt.Printf("   cells %d and %d: %v\n", a, b, shared(network.Allowed(a), network.Allowed(b)))
		}
	}
	fmt.Println("no X2, no central controller — only PRACH overhearing and CQI reports.")
	// Output:
	// CellFi quickstart: 3 cells x 4 clients on one 5 MHz TV channel
	//
	// cell 0 reserved subchannels [1 2 3 7 11]
	//    client  0 at (493.2, 654.4)      0.85 Mbps
	//    client  1 at (678.0, 356.9)      0.98 Mbps
	//    client  2 at (242.6, 271.0)      1.07 Mbps
	//    client  3 at (426.8, 437.5)      1.13 Mbps
	// cell 1 reserved subchannels [0 4 8 9]
	//    client  4 at (717.9, 665.2)      0.76 Mbps
	//    client  5 at (788.6, 177.8)      0.89 Mbps
	//    client  6 at (413.4, 12.7)       0.82 Mbps
	//    client  7 at (936.0, 332.7)      0.98 Mbps
	// cell 2 reserved subchannels [4 5 6 10]
	//    client  8 at (178.9, 655.0)      0.90 Mbps
	//    client  9 at (95.5, 891.8)       0.56 Mbps
	//    client 10 at (35.9, 523.6)       1.02 Mbps
	//    client 11 at (408.0, 83.2)       0.81 Mbps
	//
	// controller hops during convergence: 12
	// subchannels reserved by both cells of a pair:
	//    cells 0 and 1: []
	//    cells 0 and 2: []
	//    cells 1 and 2: [4]
	// no X2, no central controller — only PRACH overhearing and CQI reports.
}

// Coexistence: two independent operators deploy CellFi access points
// in the same neighbourhood, on the same TV channel, with no X2 link
// and no shared controller. The example steps the distributed
// interference management epoch by epoch and prints how the two
// controllers carve up the 13 subchannels purely from PRACH
// overhearing and CQI drops — then an operator's cell goes idle and
// the remaining one reclaims the spectrum.
func Example_coexistence() {
	// Two cells 400 m apart: heavily overlapping coverage.
	p := topo.Paper(2, 6)
	p.AreaSide = 700
	p.MinAPSpacing = 350
	tp := topo.Generate(p, 11)

	n := netsim.New(tp, netsim.DefaultConfig(netsim.SchemeCellFi, 11))
	n.Backlog()

	fmt.Println("two operators, one TV channel, no coordination")
	fmt.Printf("cell A at %s, cell B at %s\n\n", tp.APs[0], tp.APs[1])
	fmt.Printf("%-7s %-28s %-28s %s\n", "epoch", "cell A holds", "cell B holds", "hops")
	show := func(v []int) string { return fmt.Sprintf("%v", v) }
	for e := 1; e <= 12; e++ {
		n.Step()
		if e <= 6 || e%3 == 0 {
			fmt.Printf("%-7d %-28s %-28s %d\n", e, show(n.Allowed(0)), show(n.Allowed(1)), n.Hops)
		}
	}
	fmt.Printf("\nafter convergence the reservations share subchannels %v\n\n", shared(n.Allowed(0), n.Allowed(1)))

	// Operator B's users leave; its queues drain and the census
	// (PRACH sightings expire after a second) hands the spectrum back.
	fmt.Println("operator B's clients go idle...")
	for _, ci := range n.ClientsOf[1] {
		n.Clients[ci].Backlogged = false
		n.Clients[ci].QueuedBits = 0
	}
	for e := 13; e <= 16; e++ {
		n.Step()
		fmt.Printf("%-7d %-28s %s\n", e, show(n.Allowed(0)), show(n.Allowed(1)))
	}
	fmt.Printf("\ncell A now holds %d of 13 subchannels — short-term reservation,\n", len(n.Allowed(0)))
	fmt.Println("not ownership: spectrum returns as soon as demand disappears.")
	// Output:
	// two operators, one TV channel, no coordination
	// cell A at (64.0, 563.5), cell B at (571.2, 397.9)
	//
	// epoch   cell A holds                 cell B holds                 hops
	// 1       [2 3 4 7 8 10 12]            [1 2 3 7 8 12]               0
	// 2       [2 3 4 7 8 10 12]            [1 2 3 7 9 12]               1
	// 3       [2 3 4 7 8 10 11]            [1 2 3 7 9 12]               2
	// 4       [0 3 4 7 8 10 11]            [0 2 3 7 9 12]               4
	// 5       [3 4 5 7 8 10 11]            [1 2 3 5 9 12]               7
	// 6       [3 4 5 6 8 10 11]            [0 1 2 5 9 12]               9
	// 9       [3 4 5 6 7 8 11]             [0 1 2 5 9 12]               11
	// 12      [3 4 5 6 7 8 10]             [0 1 2 9 10 12]              13
	//
	// after convergence the reservations share subchannels [10]
	//
	// operator B's clients go idle...
	// 13      [3 4 5 6 7 8 10 11]          []
	// 14      [0 1 2 3 4 5 6 7 8 9 10 11 12] []
	// 15      [0 1 2 3 4 5 6 7 8 9 10 11 12] []
	// 16      [0 1 2 3 4 5 6 7 8 9 10 11 12] []
	//
	// cell A now holds 13 of 13 subchannels — short-term reservation,
	// not ownership: spectrum returns as soon as demand disappears.
}
