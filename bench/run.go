package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"bass/internal/obs"
	"bass/internal/simnet"
)

// repResult is what one rep — one fresh child process — reports: a flat
// metric map, the sample counts behind the percentiles, the sim digest and
// the outcome of the correctness checks.
type repResult struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// Variant names the switch a ratio rep flipped ("" for canonical reps).
	Variant string             `json:"variant,omitempty"`
	Traced  bool               `json:"traced,omitempty"`
	Digest  string             `json:"digest"`
	Values  map[string]float64 `json:"values"`
	N       map[string]int     `json:"n,omitempty"`
	// Samples are the raw timings behind the percentiles, kept so a tail one
	// rep has too few samples for can be taken over all reps pooled.
	Samples map[string][]float64 `json:"samples,omitempty"`
	// Attempted/Failed count operations that must succeed (deploys, set-up
	// installs, components and streams that must be up at the horizon).
	// Failures the simulated faults cause by design are sim outcomes; they
	// are in ops_failed_frac and the digest, not here.
	Attempted  int      `json:"attempted"`
	Failed     int      `json:"failed"`
	Violations []string `json:"violations,omitempty"`
	// RunS is the run-phase wall (traced reps: the traced wall).
	RunS float64 `json:"run_s"`
}

func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// runRep builds one workload from its generated inputs and times it from
// outside in three phases: set-up, run (one monitor interval at a time) and
// an off-the-clock teardown that digests and checks the outcome. A traced rep
// additionally records one span per engine event and runs the layer probes;
// its numbers never feed an end-to-end metric.
func runRep(def workloadDef, p buildParams, variant string, tr *tracer) (*repResult, error) {
	res := &repResult{Workload: def.name, Seed: p.seed, Variant: variant, Traced: tr != nil,
		Values: make(map[string]float64), N: make(map[string]int), Samples: make(map[string][]float64)}
	v := res.Values

	t0 := time.Now()
	in, err := def.build(p)
	setup := time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", def.name, err)
	}
	defer in.stop()
	v["setup_s"] = setup.Seconds()

	nEpochs := int(in.horizon / epoch)
	epochMS := make([]float64, 0, nEpochs)
	var goodput float64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if tr != nil {
		tr.begin(def.name, in)
	}
	for k := 1; k <= nEpochs; k++ {
		until := time.Duration(k) * epoch
		t := time.Now()
		if tr != nil {
			err = tr.runEpoch(in.eng, until)
		} else {
			err = in.eng.Run(until)
		}
		epochMS = append(epochMS, msOf(time.Since(t)))
		if err != nil {
			return nil, fmt.Errorf("%s: run to %v: %w", def.name, until, err)
		}
		goodput += in.sampleGoodput() // off the clock, allocation-free
	}
	runtime.ReadMemStats(&after)
	rssMB := peakRSSMB()

	var runMS float64
	for _, e := range epochMS {
		runMS += e
	}
	simS := in.horizon.Seconds()
	res.RunS = runMS / 1e3
	v["total_s"] = setup.Seconds() + res.RunS
	v["realtime_x"] = simS / res.RunS
	v["allocs_per_sim_s"] = float64(after.Mallocs-before.Mallocs) / simS
	v["peak_rss_mb"] = rssMB
	v["goodput_frac"] = goodput / float64(nEpochs)
	putPercentiles(res, "epoch_ms", epochMS, 990)
	putPercentiles(res, "place_ms", in.placeMS, 900)

	v["go.gc_cycles"] = float64(after.NumGC - before.NumGC)
	v["go.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	v["go.alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	runtime.GC()
	runtime.ReadMemStats(&after)
	v["go.heap_live_mb"] = float64(after.HeapAlloc) / 1e6

	in.collectCounters(res)
	in.checkOutcome(res)
	res.Digest = in.digest()
	if tr != nil {
		tr.finish(res)
		runProbes(in, res)
	}
	return res, nil
}

// putPercentiles stores the median of samples and, when the percentile rule
// allows it for this sample count, the named tail.
func putPercentiles(res *repResult, prefix string, samples []float64, tailPermille int) {
	if len(samples) == 0 {
		return
	}
	res.Samples[prefix] = samples
	s := append([]float64(nil), samples...)
	res.Values[prefix+"_p50"] = percentile(s, 500)
	res.N[prefix+"_p50"] = len(s)
	if percentileAllowed(len(s), tailPermille) {
		name := fmt.Sprintf("%s_p%d", prefix, tailPermille/10)
		res.Values[name] = percentile(s, tailPermille)
		res.N[name] = len(s)
	}
}

// sampleGoodput is Σmin(rate,demand)/Σdemand right now: over the streams the
// bench installed itself, and over every deployed DAG edge (a co-located edge
// is fully served, an edge with an unplaced endpoint delivers nothing, a
// cross-node edge delivers what its tag's flows are allocated).
func (in *instance) sampleGoodput() float64 {
	var got, want float64
	for _, f := range in.flows {
		want += f.demand
		if r, err := in.net.StreamRate(f.id); err == nil {
			got += math.Min(r, f.demand)
		}
	}
	for i := range in.edges {
		e := &in.edges[i]
		want += e.weight
		a, b := in.sim.Cluster.NodeOf(e.app, e.from), in.sim.Cluster.NodeOf(e.app, e.to)
		switch {
		case a == "" || b == "":
		case a == b:
			got += e.weight
		default:
			got += math.Min(in.net.FlowRateByTag(e.tag), e.weight)
		}
	}
	if want == 0 {
		return 0
	}
	return got / want
}

// collectCounters reads every layer's public counters at the horizon.
func (in *instance) collectCounters(res *repResult) {
	v := res.Values
	v["sim.events"] = float64(in.eng.Executed())
	as := in.net.AllocStats()
	v["simnet.full_passes"] = float64(as.FullPasses)
	v["simnet.skipped_passes"] = float64(as.SkippedPasses)
	streams, transfers := in.net.ActiveFlows()
	v["simnet.flows"] = float64(streams + transfers)
	v["mesh.build_s"] = in.meshBuild.Seconds()
	if in.install > 0 {
		v["simnet.install_s"] = in.install.Seconds()
	}

	// Operation accounting. opsTried/opsFailed follow ops_failed_frac's wide
	// definition; res.Attempted/Failed keep only what must never fail.
	in.opsTried = in.deploys + in.installs
	in.opsFailed = in.installErrs
	res.Attempted, res.Failed = in.opsTried, in.opsFailed
	for _, a := range in.synth {
		in.opsTried += a.attaches
		in.opsFailed += a.attachErrs
	}

	if in.sim != nil {
		orch := in.sim.Orch
		cs := orch.ControlStats()
		v["core.cycles"] = float64(cs.Cycles)
		v["core.app_evals"] = float64(cs.AppEvaluations)
		v["core.target_scans"] = float64(cs.TargetScans)
		v["core.migrations"] = float64(len(orch.Migrations()))
		v["core.path_query_errors"] = float64(cs.PathQueryErrors)
		v["core.control_self_s"] = float64(cs.WallNS) / 1e9
		v["core.deploy_self_s"] = in.deploy.Seconds()
		if cs.WallNS > 0 {
			v["decisions_per_s"] = float64(cs.AppEvaluations) / (float64(cs.WallNS) / 1e9)
		}
		ps := orch.Monitor().Stats()
		v["netmon.probes"] = float64(ps.FullProbes + ps.HeadroomProbes)
		v["netmon.probe_overhead_mbit"] = ps.OverheadMbits
		os := orch.Monitor().OracleStats()
		if q := os.Hits + os.Misses; q > 0 {
			v["netmon.oracle_hit_frac"] = float64(os.Hits) / float64(q)
			in.opsTried += int(q)
			in.opsFailed += int(cs.PathQueryErrors)
		}
		if s := orch.SchedulingLatenciesNS(); len(s) > 0 {
			v["scheduler.sched_us_p50"] = percentile(s, 500) / 1e3
		}
		if s := orch.DAGProcessingNS(); len(s) > 0 {
			v["scheduler.dag_us_p50"] = percentile(s, 500) / 1e3
		}
		if rec := orch.Reconciler(); rec != nil {
			v["reconcile.drifts"] = float64(rec.DriftsSeen())
			v["reconcile.actions"] = float64(rec.ActionsTotal())
			v["reconcile.sheds"] = float64(rec.Sheds())
			conv := rec.Converges()
			v["reconcile.converges"] = float64(len(conv))
			if len(conv) > 0 {
				var sum time.Duration
				for _, c := range conv {
					sum += c.ConvergedAt - c.DriftedAt
				}
				v["reconcile.converge_sim_s_mean"] = sum.Seconds() / float64(len(conv))
			}
		}
		if rr := orch.RecoveryReport(); len(rr.Failovers) > 0 {
			v["mttr_sim_s"] = rr.MTTRMean.Seconds()
		}
		if ev := orch.SLO(); ev != nil {
			v["slo.specs"] = float64(len(ev.Snapshot()))
			v["slo.alerts_fired"] = float64(in.alertsFired())
		}
	}
	if in.injector != nil {
		v["faults.events"] = float64(len(in.injector.Applied()))
	}
	if in.journal != nil {
		kept, dropped := float64(in.journal.Len()), float64(in.journal.Dropped())
		v["obs.events"] = kept + dropped
		if kept+dropped > 0 {
			v["obs.dropped_frac"] = dropped / (kept + dropped)
		}
	}
	if in.store != nil {
		st := in.store.Stats()
		v["metricstore.series"] = float64(st.Series)
		v["metricstore.dropped_samples"] = float64(st.DroppedSamples)
	}
	if in.social != nil {
		v["apps.requests"] = float64(in.social.Requests())
		v["req_mean_sim_s"] = in.social.Latency().Histogram().Mean()
		in.opsTried += in.social.Requests()
	}
	if in.cam != nil {
		published, _, _, dropped := in.cam.Counters()
		v["apps.frames"] = float64(published)
		v["apps.frames_dropped"] = float64(dropped)
		in.opsTried += published
		in.opsFailed += dropped
	}
}

// alertsFired counts alert_fired transitions from the evaluator's own
// slo_alerts_firing series: every rise of the gauge is one alert. (The
// journal ring may have evicted the events themselves.)
func (in *instance) alertsFired() int {
	fired := 0
	for _, s := range in.store.Query(obs.MetricAlertsFiring, nil, time.Time{}, time.Time{}) {
		prev := 0.0
		for _, sm := range s.Samples {
			if sm.Value > prev {
				fired += int(sm.Value - prev)
			}
			prev = sm.Value
		}
	}
	return fired
}

// checkOutcome checks, from outside, the invariants every run must hold and
// the workload's non-vacuity floors, and finishes the operation accounting.
func (in *instance) checkOutcome(res *repResult) {
	v := res.Values
	fail := func(format string, args ...any) {
		res.Violations = append(res.Violations, fmt.Sprintf(format, args...))
	}

	// Every component placed exactly once, on an up, un-cordoned node.
	if in.sim != nil {
		placed := make(map[string]int)
		for _, p := range in.sim.Cluster.Placements() {
			placed[p.App+"/"+p.Component]++
			if !in.topo.NodeUp(p.Node) || in.sim.Cluster.Cordoned(p.Node) {
				fail("%s/%s sits on down or cordoned node %s at horizon", p.App, p.Component, p.Node)
			}
		}
		missing := 0
		for _, g := range in.graphs {
			for _, c := range g.Components() {
				res.Attempted++
				if placed[g.AppName+"/"+c] != 1 {
					missing++
				}
			}
		}
		if missing > 0 {
			res.Failed += missing
			fail("%d components not placed exactly once at horizon", missing)
		}
		in.opsTried += res.Attempted - in.deploys - in.installs
		in.opsFailed += missing
	}
	v["ops_failed_frac"] = float64(in.opsFailed) / float64(in.opsTried)
	res.N["ops_failed_frac"] = in.opsTried

	// Per direction, what is allocated fits the capacity.
	for _, ls := range in.linkStats() {
		if ls.AllocatedMbps > ls.CapacityMbps+1e-6 {
			fail("link %s->%s allocates %.6f Mbps over capacity %.6f", ls.From, ls.To, ls.AllocatedMbps, ls.CapacityMbps)
		}
	}
	if g := v["goodput_frac"]; !(g > 0 && g <= 1) {
		fail("goodput_frac %v outside (0,1]", g)
	}

	// Non-vacuity: the workload did the work it was chosen for.
	switch res.Workload {
	case wMesh:
		if v["core.migrations"] < 1 {
			fail("no migration")
		}
	case wStorm:
		if v["core.target_scans"] < 1 || v["core.migrations"] < 1 {
			fail("no target scan or no migration")
		}
	case wChaos:
		if len(in.sim.Orch.RecoveryReport().Failovers) < 1 {
			fail("no failover")
		}
		if !in.sim.Orch.Reconciler().Converged() {
			fail("reconciler not converged at horizon")
		}
	}
}

// linkStatsBudget bounds the conservation check's cost: simnet computes one
// direction's stats with a scan over every flow, so on city-flows (4k
// directions x 100k flows) checking all of them would take longer than the
// run itself.
const linkStatsBudget = 2e7

// linkStats returns the stats of every link direction, or on a network too
// large for that of an evenly strided sample of links, both directions each.
func (in *instance) linkStats() []simnet.LinkStats {
	links := in.topo.Links()
	streams, transfers := in.net.ActiveFlows()
	stride := int(float64(2*len(links))*float64(streams+transfers)/linkStatsBudget) + 1
	if stride == 1 {
		return in.net.AllLinkStats()
	}
	var out []simnet.LinkStats
	for i := 0; i < len(links); i += stride {
		id := links[i].ID
		for _, dir := range [][2]string{{id.A, id.B}, {id.B, id.A}} {
			if ls, err := in.net.LinkStats(dir[0], dir[1]); err == nil {
				out = append(out, ls)
			}
		}
	}
	return out
}

// digest is the SHA-256 sim digest: journal JSONL, final placements,
// per-stream rates and the Prometheus dump. Equal seed must give an equal
// digest on every rep, traced or not, on any commit that claims to change no
// behaviour.
func (in *instance) digest() string {
	h := sha256.New()
	if in.journal != nil {
		// sched_candidate rows are left out: their score is a float sum in
		// map order (scheduler/migrate.go scoreCandidate), so its last bit
		// differs between identical runs. Decisions, placements and every
		// other event are digested.
		events := in.journal.Events()
		kept := events[:0]
		for _, ev := range events {
			if ev.Type != obs.EventSchedCandidate {
				kept = append(kept, ev)
			}
		}
		_ = obs.WriteJSONL(h, kept)
	}
	if in.sim != nil {
		for _, p := range in.sim.Cluster.Placements() {
			fmt.Fprintf(h, "%s/%s@%s\n", p.App, p.Component, p.Node)
		}
	}
	for _, f := range in.flows {
		r, _ := in.net.StreamRate(f.id)
		writeFloat(h, r)
	}
	for i := range in.edges {
		writeFloat(h, in.net.FlowRateByTag(in.edges[i].tag))
	}
	if in.store != nil {
		_ = in.store.WritePrometheus(h)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func writeFloat(h hash.Hash, f float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
	h.Write(b[:])
}

// peakRSSMB reads this process's VmHWM.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}
