package socialnet

import (
	"slices"
	"testing"
	"time"

	"bass/internal/cluster"
	"bass/internal/core"
	"bass/internal/mesh"
	"bass/internal/scheduler"
	"bass/internal/simnet"
	"bass/internal/workload"
)

// refLatency is the request path as it was before hops were resolved in New:
// every hop looks up its channel and service time by name and asks the
// cluster where both components run. Its path reads walk the mesh's route
// and read each link direction, so it shares no memo with simnet's path
// reads. It reads the App's live state (streams, restart windows) and is the
// reference requestLatency must match exactly.
type refLatency struct {
	a        *App
	topo     *mesh.Topology
	types    []requestType // fresh from requestTypes(): no resolved fields
	channels map[edgeKey]*channel
	svcTime  map[string]time.Duration
}

func newRefLatency(a *App, topo *mesh.Topology) *refLatency {
	r := &refLatency{
		a:        a,
		topo:     topo,
		types:    requestTypes(),
		channels: make(map[edgeKey]*channel),
		svcTime:  make(map[string]time.Duration),
	}
	for _, ch := range a.channels {
		r.channels[ch.key] = ch
	}
	for _, s := range services() {
		r.svcTime[s.name] = s.svcTime
	}
	return r
}

func (r *refLatency) requestLatency(rt requestType) time.Duration {
	var lat time.Duration
	waited := make(map[string]bool)
	now := r.a.env.Now()
	for _, h := range rt.hops {
		if h.async {
			continue
		}
		until := r.a.downUntil[slices.Index(r.a.components, h.to)]
		if now < until && !waited[h.to] {
			lat += until - now
			waited[h.to] = true
		}
		lat += r.hopLatency(h)
	}
	return lat
}

func (r *refLatency) hopLatency(h hop) time.Duration {
	env := r.a.env
	ch := r.channels[edgeKey{from: h.from, to: h.to}]
	svc := r.svcTime[h.to]
	fromNode := env.NodeOf(h.from)
	toNode := env.NodeOf(h.to)
	msgBits := (h.reqKB + h.respKB) * 8e3

	if fromNode == "" || toNode == "" || fromNode == toNode {
		local := time.Duration(msgBits / (simnet.LocalMbps * 1e6) * float64(time.Second))
		return local + svc
	}

	prop, err := r.topo.PathLatency(fromNode, toNode)
	if err != nil {
		prop = 0
	}
	rtt := 2 * prop

	var lambda float64
	if ch != nil {
		lambda = ch.msgsPerSec
	}
	wait := r.directionWait(fromNode, toNode, lambda, refReqBits(ch, h), r.streamRateOf(ch, true))
	wait += r.directionWait(toNode, fromNode, lambda, refRespBits(ch, h), r.streamRateOf(ch, false))
	return rtt + wait + svc
}

func (r *refLatency) directionWait(srcNode, dstNode string, lambda, meanBits, ownMbps float64) time.Duration {
	if meanBits <= 0 {
		return 0
	}
	net := r.a.env.Net()
	path, err := r.topo.Route(srcNode, dstNode)
	spare := float64(simnet.LocalMbps)
	for i := 1; err == nil && i < len(path); i++ {
		s, lerr := net.LinkStats(path[i-1], path[i])
		if lerr != nil {
			panic(lerr)
		}
		spare = min(spare, max(s.CapacityMbps-s.AllocatedMbps, 0))
	}
	if err != nil {
		spare = 0
	}
	burstBps := (spare + ownMbps) * 1e6
	const minBps = 1e3
	if burstBps < minBps {
		burstBps = minBps
	}
	mu := burstBps / meanBits
	if mu > lambda*1.02 {
		return time.Duration(1 / (mu - lambda) * float64(time.Second))
	}
	var q time.Duration
	for i := 1; err == nil && i < len(path); i++ {
		d, qerr := net.QueueDelay(path[i-1], path[i])
		if qerr != nil {
			panic(qerr)
		}
		q += d
	}
	return time.Duration(meanBits/burstBps*float64(time.Second)) + q
}

func refReqBits(ch *channel, h hop) float64 {
	if ch != nil && ch.reqBitsPerMsg > 0 {
		return ch.reqBitsPerMsg
	}
	return h.reqKB * 8e3
}

func refRespBits(ch *channel, h hop) float64 {
	if ch != nil && ch.respBitsPerMsg > 0 {
		return ch.respBitsPerMsg
	}
	return h.respKB * 8e3
}

func (r *refLatency) streamRateOf(ch *channel, req bool) float64 {
	if ch == nil {
		return 0
	}
	var id simnet.FlowID
	switch {
	case req && ch.hasReq:
		id = ch.reqStream
	case !req && ch.hasResp:
		id = ch.respStream
	default:
		return 0
	}
	rate, err := r.a.env.Net().StreamRate(id)
	if err != nil {
		return 0
	}
	return rate
}

// TestRequestLatencyMatchesReference checks, at every dispatch boundary of a
// run — so at the state every request sees — that each request type's
// latency equals the name-keyed reference's, bit for bit. The run moves
// through a forced migration and its restart window, a placement change the
// workload is not told about (as an eviction or failover makes), a link flap
// that reroutes the mesh, and a node crash.
func TestRequestLatencyMatchesReference(t *testing.T) {
	topo := mesh.FullMesh([]string{"node1", "node2", "node3", "node4"}, 1000, time.Millisecond, time.Hour)
	app, sim := deploySocial(t, topo, Config{
		ClientNode: "node4",
		Arrival:    workload.Exponential{MeanPerSecond: 200},
	}, core.Config{
		Policy:            scheduler.NewBass(scheduler.HeuristicLongestPath),
		MigrationDowntime: 4300 * time.Millisecond,
	})
	defer sim.Close()

	ref := newRefLatency(app, topo)
	checks, mismatches := 0, 0
	sim.Eng.BeforeDispatch(func() {
		for i := range app.types {
			got := app.requestLatency(&app.types[i])
			want := ref.requestLatency(ref.types[i])
			checks++
			if got != want && mismatches < 5 {
				mismatches++
				t.Errorf("%v %s: latency %v, reference %v", sim.Eng.Now(), app.types[i].name, got, want)
			}
		}
	})

	other := func(comp string) string {
		if sim.Cluster.NodeOf(appName, comp) == "node1" {
			return "node2"
		}
		return "node1"
	}
	steps := []struct {
		at time.Duration
		do func() error
	}{
		{20 * time.Second, func() error {
			return sim.Orch.ForceMigrate(appName, SvcPostStorage, other(SvcPostStorage))
		}},
		{30 * time.Second, func() error {
			return sim.Cluster.Move(appName, svcHomeTimeline, other(svcHomeTimeline))
		}},
		{40 * time.Second, func() error {
			sim.LinkDown(mesh.MakeLinkID("node4", sim.Cluster.NodeOf(appName, SvcNginx)))
			return nil
		}},
		{50 * time.Second, func() error {
			sim.LinkUp(mesh.MakeLinkID("node4", sim.Cluster.NodeOf(appName, SvcNginx)))
			return nil
		}},
		{60 * time.Second, func() error { sim.NodeDown("node3"); return nil }},
		{70 * time.Second, func() error { sim.NodeUp("node3"); return nil }},
	}
	for _, s := range steps {
		if err := sim.Run(s.at); err != nil {
			t.Fatal(err)
		}
		if err := s.do(); err != nil {
			t.Fatal(err)
		}
	}
	if err := sim.Run(80 * time.Second); err != nil {
		t.Fatal(err)
	}
	if checks < 10000 {
		t.Errorf("only %d checks ran", checks)
	}
}

// TestChannelStreamIDsDeterministic pins stream attachment order: two fresh
// deployments at one seed give every channel the same request and response
// FlowIDs.
func TestChannelStreamIDsDeterministic(t *testing.T) {
	deploy := func() *App {
		topo := mesh.FullMesh([]string{"node1", "node2", "node3", "node4"}, 1000, time.Millisecond, time.Hour)
		app, sim := deploySocial(t, topo, Config{ClientNode: "node4"}, core.Config{
			Policy: scheduler.NewBass(scheduler.HeuristicLongestPath),
		})
		t.Cleanup(sim.Close)
		return app
	}
	first, again := deploy(), deploy()
	attached := 0
	for i, ch := range first.channels {
		o := again.channels[i]
		if ch.key != o.key || ch.hasReq != o.hasReq || ch.hasResp != o.hasResp ||
			ch.reqStream != o.reqStream || ch.respStream != o.respStream {
			t.Errorf("channel %s->%s: streams (%v %d, %v %d) vs (%v %d, %v %d)", ch.key.from, ch.key.to,
				ch.hasReq, ch.reqStream, ch.hasResp, ch.respStream, o.hasReq, o.reqStream, o.hasResp, o.respStream)
		}
		if ch.hasReq {
			attached++
		}
	}
	if attached == 0 {
		t.Fatal("no channel crosses the mesh: the test checks nothing")
	}
}

// BenchmarkRequestLatency measures one request on the deployed CityLab
// placement (the bench's paper-mesh regime): resolved hops, the node table
// and the path memo warm, so an op is arithmetic plus O(path) link reads and
// allocates nothing.
//
//	go test -run='^$' -bench=RequestLatency -benchmem ./internal/apps/socialnet/
func BenchmarkRequestLatency(b *testing.B) {
	topo := mesh.MustCityLab(mesh.CityLabOptions{Seed: 42, Duration: 10 * time.Minute})
	sim, err := core.NewSimulation(topo, []cluster.Node{
		{Name: mesh.CityLabControl, CPU: 12, MemoryMB: 8192, Unschedulable: true},
		{Name: mesh.CityLabNode1, CPU: 12, MemoryMB: 8192},
		{Name: mesh.CityLabNode2, CPU: 8, MemoryMB: 8192},
		{Name: mesh.CityLabNode3, CPU: 12, MemoryMB: 8192},
		{Name: mesh.CityLabNode4, CPU: 8, MemoryMB: 8192},
	}, 42, core.Config{Policy: scheduler.NewBass(scheduler.HeuristicLongestPath)})
	if err != nil {
		b.Fatal(err)
	}
	defer sim.Close()
	app, err := New(Config{ClientNode: mesh.CityLabControl, Arrival: workload.Exponential{MeanPerSecond: 150}})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sim.Orch.DeployAt(appName, app, nil); err != nil {
		b.Fatal(err)
	}
	if err := sim.Run(time.Minute); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		latencySink = app.requestLatency(&app.types[i%len(app.types)])
	}
}

// latencySink keeps BenchmarkRequestLatency's result live.
var latencySink time.Duration
