// Videoconf: a 12-participant conference on the emulated CityLab mesh, with
// and without bandwidth-aware SFU migration (the paper's Fig 15b scenario).
// The participants at node2, behind the volatile 7.62 Mbps link, see the
// biggest bitrate gains when BASS relocates the conference server.
//
//	go run ./examples/videoconf
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"bass/internal/mesh"
	"bass/internal/scenario"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	for _, migrate := range []bool{false, true} {
		r, err := scenario.Build(scenario.Spec{
			Topology:             "citylab",
			Scheduler:            "bfs",
			Controller:           &scenario.Controller{UtilizationThreshold: 0.65, HeadroomMbps: 2, CooldownSec: 30, ReMigrationSec: 300},
			Migration:            migrate,
			MonitorIntervalSec:   30,
			MigrationDowntimeSec: 20,
			ReservedCPU:          1,
			Apps: []scenario.App{{Videoconf: &scenario.Videoconf{
				ParticipantsPerNode: 3, PublishMbps: 0.5, InitialNode: mesh.CityLabNode4,
			}}},
			HorizonSec: 600,
			Seed:       42,
		})
		if err != nil {
			return err
		}
		if err := r.Complete(); err != nil {
			return err
		}

		label := "no migration"
		if migrate {
			label = "65% utilization threshold"
		}
		fmt.Fprintf(w, "== %s ==\n", label)
		for _, s := range r.Video.StatsByNode() {
			fmt.Fprintf(w, "  %s: median=%.2f Mbps mean=%.2f Mbps loss=%.1f%%\n",
				s.Node, s.MedianBitrateMbps, s.MeanBitrateMbps, 100*s.MeanLossFrac)
		}
		for _, m := range r.Sim.Orch.Migrations() {
			fmt.Fprintf(w, "  migration t=%.0fs: %s %s -> %s\n", m.At.Seconds(), m.Component, m.From, m.To)
		}
		fmt.Fprintln(w)
	}
	return nil
}
