// Quickstart: build an application DAG with bandwidth-annotated edges,
// schedule it onto a small mesh with the BASS heuristics and the k3s-like
// baseline, and print the resulting placements side by side.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"sort"

	"bass/internal/dag"
	"bass/internal/scheduler"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// The worked example from the paper's Fig 6: seven components, the
	// heaviest edges on the 1→3 branch and the 1→2→4→5→7 chain.
	g := dag.NewGraph("fig6-demo")
	for _, name := range []string{"1", "2", "3", "4", "5", "6", "7"} {
		if err := g.AddComponent(dag.Component{Name: name, CPU: 1, MemoryMB: 256}); err != nil {
			return err
		}
	}
	edges := []struct {
		from, to string
		mbps     float64
	}{
		{"1", "2", 10}, {"1", "3", 12}, {"3", "6", 2},
		{"2", "4", 10}, {"4", "5", 10}, {"5", "7", 9},
	}
	for _, e := range edges {
		if err := g.AddEdge(e.from, e.to, e.mbps); err != nil {
			return err
		}
	}

	// Three 4-core nodes, as in Fig 6's illustration.
	nodes := []scheduler.NodeInfo{
		{Name: "node1", FreeCPU: 4, FreeMemoryMB: 4096, TotalCPU: 4, TotalMemoryMB: 4096, LinkCapacityMbps: 40},
		{Name: "node2", FreeCPU: 4, FreeMemoryMB: 4096, TotalCPU: 4, TotalMemoryMB: 4096, LinkCapacityMbps: 30},
		{Name: "node3", FreeCPU: 4, FreeMemoryMB: 4096, TotalCPU: 4, TotalMemoryMB: 4096, LinkCapacityMbps: 20},
	}

	bfsOrder, err := scheduler.BFSOrder(g)
	if err != nil {
		return err
	}
	lpOrder, err := scheduler.LongestPathOrder(g)
	if err != nil {
		return err
	}
	fmt.Println("component orderings:")
	fmt.Printf("  breadth-first: %v\n", bfsOrder)
	fmt.Printf("  longest-path:  %v\n", lpOrder)
	fmt.Println()

	for _, policy := range []scheduler.Policy{
		scheduler.NewBass(scheduler.HeuristicBFS),
		scheduler.NewBass(scheduler.HeuristicLongestPath),
		scheduler.NewK3s(),
	} {
		assignment, err := policy.Schedule(g, nodes, nil)
		if err != nil {
			return fmt.Errorf("%s: %w", policy.Name(), err)
		}
		byNode := map[string][]string{}
		for comp, node := range assignment {
			byNode[node] = append(byNode[node], comp)
		}
		fmt.Printf("%s placement:\n", policy.Name())
		for _, n := range nodes {
			comps := byNode[n.Name]
			sort.Strings(comps)
			fmt.Printf("  %s: %v\n", n.Name, comps)
		}
		fmt.Println()
	}
	return nil
}
