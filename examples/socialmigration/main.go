// Socialmigration: deploy the 27-service social network on a 3-worker LAN,
// throttle two nodes' outgoing interfaces mid-run (the paper's Fig 13
// scenario), and watch the BASS controller detect the bandwidth violations
// and progressively migrate the offending components to the unthrottled
// node.
//
//	go run ./examples/socialmigration
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"bass/internal/cluster"
	"bass/internal/scenario"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	const horizon = 5 * time.Minute
	// tc-style throttle on the outgoing interfaces of nodes 1 and 2: 25 Mbps
	// from 10 s for 3 minutes.
	throttle := []scenario.Phase{{DurationSec: 10, Mbps: 1000}, {DurationSec: 180, Mbps: 25}, {DurationSec: 110, Mbps: 1000}}
	r, err := scenario.Build(scenario.Spec{
		Topology: "lan",
		// Three d710-class workers and the workload generator's host.
		Nodes: []cluster.Node{{Name: "node1", CPU: 8, MemoryMB: 12288}, {Name: "node2", CPU: 8, MemoryMB: 12288},
			{Name: "node3", CPU: 8, MemoryMB: 12288}, {Name: "client", CPU: 8, MemoryMB: 8192, Unschedulable: true}},
		PackLimit:            0.8,
		Migration:            true,
		MonitorIntervalSec:   30,
		MigrationDowntimeSec: 4.3,
		Apps: []scenario.App{{Socialnet: &scenario.Socialnet{RPS: 400, Bursty: true, ProfileRPS: 400,
			ClientNode: "client"}}},
		Links:      []scenario.Link{{Egress: "node1", Phases: throttle}, {Egress: "node2", Phases: throttle}},
		HorizonSec: int(horizon / time.Second),
		Seed:       42,
	})
	if err != nil {
		return err
	}
	if err := r.Complete(); err != nil {
		return err
	}
	sim, app := r.Sim, r.Social

	fmt.Fprintf(w, "served %d requests\n", app.Requests())
	fmt.Fprintf(w, "overall latency: %s\n\n", app.Latency().Histogram().Summary())

	fmt.Fprintln(w, "controller iterations (violating/candidates/migrated):")
	for _, ev := range sim.Orch.Evaluations() {
		if ev.Violating == 0 && ev.Migrated == 0 {
			continue
		}
		fmt.Fprintf(w, "  t=%3.0fs  %2d / %d / %d\n", ev.At.Seconds(), ev.Violating, ev.Candidates, ev.Migrated)
	}
	fmt.Fprintln(w, "\nmigrations:")
	for _, m := range sim.Orch.Migrations() {
		fmt.Fprintf(w, "  t=%3.0fs  %-24s %s -> %s\n", m.At.Seconds(), m.Component, m.From, m.To)
	}

	series := app.Latency().Series()
	fmt.Fprintln(w, "\navg latency timeline (30 s buckets):")
	for t := 15 * time.Second; t < horizon; t += 30 * time.Second {
		if v, ok := series.At(t); ok {
			fmt.Fprintf(w, "  t=%3.0fs  %8.3fs\n", t.Seconds(), v)
		}
	}
	return nil
}
