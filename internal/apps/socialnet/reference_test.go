package socialnet

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"bass/internal/cluster"
	"bass/internal/core"
	"bass/internal/mesh"
	"bass/internal/scheduler"
	"bass/internal/simnet"
	"bass/internal/trace"
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
	// saturated counts the directions found saturated, so a test can tell
	// that it reached the branch that reads the time-varying queue delay.
	saturated int
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
	r.saturated++
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

// refChecker compares every request type's latency with the reference's,
// bit for bit.
type refChecker struct {
	t          testing.TB
	app        *App
	ref        *refLatency
	checks     int
	mismatches int
}

func newRefChecker(t testing.TB, app *App, topo *mesh.Topology) *refChecker {
	return &refChecker{t: t, app: app, ref: newRefLatency(app, topo)}
}

// check runs one request of each type through the memoised path and the
// reference at the current state.
func (c *refChecker) check() {
	for i := range c.app.types {
		got := c.app.requestLatency(&c.app.types[i])
		want := c.ref.requestLatency(c.ref.types[i])
		c.checks++
		if got != want && c.mismatches < 5 {
			c.mismatches++
			c.t.Errorf("%v %s: latency %v, reference %v", c.app.env.Now(), c.app.types[i].name, got, want)
		}
	}
}

// TestRequestLatencyMatchesReference checks, at every dispatch boundary of a
// run — so at the state every request sees — that each request type's
// latency equals the name-keyed reference's, bit for bit. The run moves
// through a forced migration and its restart window, a placement change the
// workload is not told about (as an eviction or failover makes), a link flap
// that reroutes the mesh, a node crash, and a throttle of the client's link
// to the frontend deep enough to saturate it, so hops that read the
// time-varying queue delay are checked too.
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

	c := newRefChecker(t, app, topo)
	sim.Eng.BeforeDispatch(c.check)

	other := func(comp string) string {
		if sim.Cluster.NodeOf(appName, comp) == "node1" {
			return "node2"
		}
		return "node1"
	}
	throttle := func(mbps float64) func() error {
		return func() error {
			return topo.SetDirectedCapacity("node4", sim.Cluster.NodeOf(appName, SvcNginx),
				trace.Constant("throttle", time.Second, mbps, 3600))
		}
	}
	var saturatedBefore int
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
		{75 * time.Second, func() error {
			saturatedBefore = c.ref.saturated
			return throttle(0.5)()
		}},
		{85 * time.Second, throttle(1000)},
	}
	for _, s := range steps {
		if err := sim.Run(s.at); err != nil {
			t.Fatal(err)
		}
		if err := s.do(); err != nil {
			t.Fatal(err)
		}
	}
	if err := sim.Run(95 * time.Second); err != nil {
		t.Fatal(err)
	}
	if c.checks < 10000 {
		t.Errorf("only %d checks ran", c.checks)
	}
	if c.ref.saturated == saturatedBefore {
		t.Error("the throttle saturated no direction: the queue-delay branch went unchecked")
	}
}

// FuzzRequestLatencyMatchesReference replays a fuzzed script against the
// social network on a four-node full mesh (client on node4) and checks at
// every dispatch boundary, after every operation and inside every bulk
// transfer's callback that each request type's latency equals the memo-free
// reference's, bit for bit. Each byte picks an operation, the bytes after it
// its arguments:
//
//	0 run   1 forced migration   2 silent placement move   3 link flap
//	4 node flap   5 directed throttle   6 capped bulk transfer   7 shed bulk
//
// A throttle alternates two capacities, so its direction's capacity keeps
// moving: falls force a full pass, rises on a direction that bound no flow
// are absorbed, and deep values saturate a direction. Shedding fails the
// bulk transfers one by one, each callback reading before any pass: the
// crossing resync is the only thing that moves the allocation it reads.
//
//	go test -run='^$' -fuzz=FuzzRequestLatencyMatchesReference -fuzztime=10s ./internal/apps/socialnet
func FuzzRequestLatencyMatchesReference(f *testing.F) {
	for _, seed := range [][]byte{
		// Quiet, then a deep throttle on every direction out of the client.
		{0, 40, 5, 0, 0, 0, 5, 1, 0, 0, 5, 2, 0, 0, 0, 100, 0, 100},
		// 10 MB bulk transfers capped at 5 Mbps from and to the client, then
		// a shed at once and one after a run.
		{6, 3, 0, 48, 7, 6, 3, 0, 48, 6, 3, 1, 48, 6, 3, 2, 48, 6, 0, 3, 48, 6, 1, 3, 48, 6, 2, 3, 48, 0, 10, 7, 0, 10},
		// The frontend migrates to node1, and while its channels are
		// detached the client's link to node1, which then carries no flow,
		// alternates 0.5 and 25 Mbps every 2 s: every change is absorbed.
		{1, 0, 0, 5, 0, 48, 0, 0, 48},
		// Capacities that step up and down under the client's links.
		{5, 0, 0, 4*6 + 5, 5, 2, 0, 4*6 + 5, 5, 4, 0, 4*6 + 5, 0, 120, 0, 120},
		// Placement churn, flaps and a crash.
		{1, 3, 0, 0, 20, 2, 5, 1, 0, 10, 3, 1, 0, 40, 3, 1, 4, 2, 0, 40, 4, 2, 0, 20},
	} {
		f.Add(seed)
	}
	f.Fuzz(replayLatencyScript)
}

// TestRequestLatencyRandomScripts replays 24 seeded random scripts of 40 to
// 400 bytes through replayLatencyScript in every plain go test, as
// TestFlowChurnRandomScripts does for flow churn: migrations, flaps,
// throttles, capped bulk transfers and sheds in random order, so transfers
// start, finish, fail and are shed in the network's reused slots under the
// memo-free reference's checks.
func TestRequestLatencyRandomScripts(t *testing.T) {
	r := rand.New(rand.NewSource(59))
	for i := range 24 {
		b := make([]byte, 40+r.Intn(361))
		r.Read(b)
		t.Run(fmt.Sprint(i), func(t *testing.T) { replayLatencyScript(t, b) })
	}
}

// fuzzMbps are the capacities a throttle alternates between.
var fuzzMbps = []float64{0.5, 4, 25, 100, 400, 1000}

// replayLatencyScript runs one decoded script with the checks above.
func replayLatencyScript(t *testing.T, data []byte) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	nodes := []string{"node1", "node2", "node3", "node4"}
	topo := mesh.FullMesh(nodes, 1000, time.Millisecond, time.Hour)
	app, sim := deploySocial(t, topo, Config{
		ClientNode: "node4",
		Arrival:    workload.Exponential{MeanPerSecond: 200},
	}, core.Config{
		Policy:            scheduler.NewBass(scheduler.HeuristicLongestPath),
		MigrationDowntime: 2 * time.Second,
	})
	defer sim.Close()
	c := newRefChecker(t, app, topo)
	sim.Eng.BeforeDispatch(c.check)

	links := topo.Links()
	services := app.components[1:]
	linkDown := map[mesh.LinkID]bool{}
	nodeDown := map[string]bool{}
	// At most 64 operations and 30 s of simulated time keep an input cheap.
	for ops := 0; len(data) > 0 && ops < 64 && sim.Eng.Now() < 30*time.Second; ops++ {
		switch next() % 8 {
		case 0:
			if err := sim.Run(sim.Eng.Now() + time.Duration(1+next()%100)*50*time.Millisecond); err != nil {
				t.Fatal(err)
			}
		case 1:
			_ = sim.Orch.ForceMigrate(appName, services[next()%len(services)], nodes[next()%3])
		case 2:
			_ = sim.Cluster.Move(appName, services[next()%len(services)], nodes[next()%3])
		case 3:
			id := links[next()%len(links)].ID
			if linkDown[id] = !linkDown[id]; linkDown[id] {
				sim.LinkDown(id)
			} else {
				sim.LinkUp(id)
			}
		case 4:
			name := nodes[next()%3]
			if nodeDown[name] = !nodeDown[name]; nodeDown[name] {
				sim.NodeDown(name)
			} else {
				sim.NodeUp(name)
			}
		case 5:
			// Out of (even) or into (odd) the client, alternating lo and hi
			// every period seconds.
			peer, b := nodes[next()%3], next()
			from, to := "node4", peer
			if next()%2 == 1 {
				from, to = to, from
			}
			lo, hi, period := fuzzMbps[b%6], fuzzMbps[b/6%6], time.Duration(1+b/36%4)*time.Second
			tr := trace.StepTrace("throttle", time.Second, 2*period, []trace.Level{{From: 0, Mbps: lo}, {From: period, Mbps: hi}})
			if err := topo.SetDirectedCapacity(from, to, tr); err != nil {
				t.Fatal(err)
			}
		case 6:
			src, dst, b := nodes[next()%4], nodes[next()%4], next()
			capMbps := []float64{5, 20, 80, 300}[b%4]
			_, _ = sim.Net.AddTransfer("bulk", src, dst, float64(1+b/4%8)*2e6, capMbps, func(simnet.TransferResult) { c.check() })
		case 7:
			sim.Net.ShedFlowsByTagPrefix("bulk")
		}
		c.check()
		if t.Failed() {
			t.FailNow()
		}
	}
	if err := sim.Run(sim.Eng.Now() + time.Second); err != nil {
		t.Fatal(err)
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
// placement (the bench's paper-mesh regime), with the node table and the
// path memo warm. "hit" is the common case: no pass and no capacity change
// since the last request, so every hop is served from its memo and an op is
// a rate-epoch read plus a sum. "miss" invalidates every hop's memo before
// each op, as a rate-epoch bump does, so an op is the arithmetic plus
// O(path) link reads per hop. Neither allocates.
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
	for _, miss := range []bool{false, true} {
		name := "hit"
		if miss {
			name = "miss"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rt := &app.types[i%len(app.types)]
				if miss {
					for j := range rt.hops {
						rt.hops[j].memoOK = false
					}
				}
				latencySink = app.requestLatency(rt)
			}
		})
	}
}

// latencySink keeps BenchmarkRequestLatency's result live.
var latencySink time.Duration
