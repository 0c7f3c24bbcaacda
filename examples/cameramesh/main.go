// Cameramesh: run the camera-processing pipeline on the emulated 5-node
// CityLab mesh under the replayed bandwidth trace, comparing the BASS BFS
// scheduler with the k3s-like baseline (the paper's Table 2 scenario).
//
//	go run ./examples/cameramesh
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
	for _, sched := range []string{"bfs", "k3s"} {
		r, err := scenario.Build(scenario.Spec{
			Topology:    "citylab",
			Scheduler:   sched,
			ReservedCPU: 1,
			// The camera is physically attached at node2; 30 KB frames at
			// 30 fps press on node2's volatile 7.62 Mbps link unless the
			// sampler is co-located.
			Apps:       []scenario.App{{Camera: &scenario.Camera{FrameKB: 30, PinCamera: mesh.CityLabNode2}}},
			HorizonSec: 600,
			Seed:       42,
		})
		if err != nil {
			return err
		}
		app := r.Camera
		fmt.Fprintf(w, "== %s ==\n", r.Policy)
		for _, comp := range app.Graph().Components() {
			fmt.Fprintf(w, "  %-16s -> %s\n", comp, r.Sim.Cluster.NodeOf("camera", comp))
		}
		if err := r.Complete(); err != nil {
			return err
		}
		h := app.Latency().Histogram()
		published, sampled, annotated, dropped := app.Counters()
		fmt.Fprintf(w, "  e2e latency: median=%.0fms mean=%.0fms p99=%.0fms\n",
			h.Median()*1e3, h.Mean()*1e3, h.P99()*1e3)
		fmt.Fprintf(w, "  frames: published=%d sampled=%d annotated=%d dropped=%d\n\n",
			published, sampled, annotated, dropped)
	}
	return nil
}
