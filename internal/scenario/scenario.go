// Package scenario describes one simulated run as a Spec and wires it with
// Build: topology and node set, placement policy, core.Config, the
// observability plane, fault injection and the deployed workloads, closing
// the simulation on every error path. Build is the one place outside the
// benchmark harness that calls core.NewSimulation: bass-sim's JSON scenario
// files decode straight into a Spec (Decode), and every experiment and
// example builds its testbed from one.
package scenario

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"

	"bass/internal/apps/camera"
	"bass/internal/apps/socialnet"
	"bass/internal/apps/stream"
	"bass/internal/apps/videoconf"
	"bass/internal/cluster"
	"bass/internal/controller"
	"bass/internal/core"
	"bass/internal/faults"
	"bass/internal/mesh"
	"bass/internal/metricstore"
	"bass/internal/obs"
	"bass/internal/scheduler"
	"bass/internal/trace"
	"bass/internal/workload"
)

// Spec is one run. Its JSON keys are bass-sim's scenario schema; a zero
// size, rate or interval takes the default named on its field. Fields
// tagged json:"-" are for Go callers only, so a scenario file naming one is
// rejected as an unknown key.
type Spec struct {
	// Topology says how the nodes are joined: "citylab" (the default: the
	// trace-driven 5-node CityLab subset, node0 an unschedulable control
	// host; it takes no Nodes), "lan" (a 1 Gbps, 1 ms full mesh over Nodes)
	// or "custom" (each links entry adds its link, 3 ms one way).
	Topology string `json:"topology"`
	// Nodes is the cluster, in the order the mesh numbers them. A "lan"
	// without Nodes is node1..node3 at 16 cores and 65,536 MB each.
	Nodes []cluster.Node `json:"nodes,omitempty"`

	// App is shorthand for a one-entry Apps list of that kind ("camera",
	// "socialnet" or "videoconf") with every key at its default. A spec may
	// give App or Apps, not both; Decode reads a spec with neither as
	// camera, and in Go an empty list deploys nothing.
	App string `json:"app,omitempty"`
	// Apps are the applications deployed, in list order.
	Apps []App `json:"apps,omitempty"`
	// Scheduler is "bfs", "longest-path" (alias "lp", the default) or "k3s".
	Scheduler string `json:"scheduler"`
	// PackLimit caps a BASS scheduler's initial packing at this fraction of
	// each node's free capacity, in (0, 1] (zero = 1: pack completely); k3s
	// takes none.
	PackLimit float64 `json:"packLimit,omitempty"`

	HorizonSec int   `json:"horizonSec"` // run length (default 600)
	Seed       int64 `json:"seed"`
	// Migration runs the controller loop every MonitorIntervalSec (default
	// 30), which opens with a headroom-probe sweep, and with it failure
	// detection and the reconciler (core.Config.EnableMigration).
	Migration          bool `json:"migration"`
	MonitorIntervalSec int  `json:"monitorIntervalSec,omitempty"`
	// SLO runs the burn-rate SLO evaluator each control epoch (mesh
	// headroom, control-loop cadence, per-app dependency goodput). It reads
	// its SLIs from a metric store, so it attaches one. It needs Migration,
	// which runs the control loop.
	SLO bool `json:"slo,omitempty"`
	// Batch places each DAG as one joint decision, refined by a budgeted
	// k-best local search over the greedy seed (core.BatchPlacement).
	Batch bool `json:"batch,omitempty"`
	// Controller configures migration; nil runs controller.DefaultConfig().
	Controller *Controller `json:"controller,omitempty"`

	// Faults is an explicit fault schedule; Chaos arms the seeded generator
	// over the horizon. The explicit list is window-validated before the
	// generated events merge on top (the generator never overlaps windows
	// on one element, but a merge legitimately stacks both kinds).
	Faults []faults.Event `json:"faults,omitempty"`
	Chaos  *Chaos         `json:"chaos,omitempty"`
	// Links shape link capacity, applied in list order to the built mesh
	// before the simulation starts; on "custom" each adds its link.
	Links []Link `json:"links,omitempty"`
	// MigrationDowntimeSec is how long a migrated component is unavailable
	// (zero = core's default, 20 s).
	MigrationDowntimeSec float64 `json:"migrationDowntimeSec,omitempty"`

	// ReservedCPU is held back on every node for the agent and daemons.
	// Decode reads an absent key as 1; in Go the zero value reserves none.
	ReservedCPU float64 `json:"reservedCPU"`

	// Journal and Metrics attach a decision journal and a metric store.
	Journal bool `json:"-"`
	Metrics bool `json:"-"`
}

// Chaos parameterises the seeded fault generator: rates per hour, durations
// in seconds, Protected nodes never crash. The spec's seed drives it, so
// seed replicas each get their own storm and equal seeds reproduce exactly.
type Chaos struct {
	NodeCrashesPerHour      float64  `json:"nodeCrashesPerHour,omitempty"`
	MeanNodeDowntimeSec     float64  `json:"meanNodeDowntimeSec,omitempty"`
	LinkFlapsPerHour        float64  `json:"linkFlapsPerHour,omitempty"`
	MeanLinkDowntimeSec     float64  `json:"meanLinkDowntimeSec,omitempty"`
	ProbeLossWindowsPerHour float64  `json:"probeLossWindowsPerHour,omitempty"`
	MeanProbeLossWindowSec  float64  `json:"meanProbeLossWindowSec,omitempty"`
	Protected               []string `json:"protected,omitempty"`
}

// Controller configures migration (§4.3): a pair above UtilizationThreshold
// of its bandwidth quota on a link short of HeadroomMbps, or below
// GoodputFloor of its requirement, for CooldownSec, migrates, and no
// component moves twice within ReMigrationSec. Thresholds are fractions in
// [0, 1]. A key a "controller" object leaves out keeps its default.
type Controller struct {
	UtilizationThreshold float64 `json:"utilizationThreshold"`
	GoodputFloor         float64 `json:"goodputFloor"`
	HeadroomMbps         float64 `json:"headroomMbps"`
	CooldownSec          float64 `json:"cooldownSec"`
	ReMigrationSec       float64 `json:"reMigrationSec"`
}

// DefaultController is controller.DefaultConfig as a new Controller.
func DefaultController() *Controller {
	c := controller.DefaultConfig()
	m := c.Migration
	return &Controller{m.UtilizationThreshold, m.GoodputFloor, m.HeadroomMbps, c.Cooldown.Seconds(), c.ReMigrationInterval.Seconds()}
}

// UnmarshalJSON decodes a "controller" object strictly onto DefaultController.
func (c *Controller) UnmarshalJSON(b []byte) error {
	type plain Controller // without this method
	p := (*plain)(DefaultController())
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	err := dec.Decode(p)
	*c = Controller(*p)
	return err
}

// config is the controller.Config c describes.
func (c Controller) config() controller.Config {
	m := scheduler.MigrationConfig{UtilizationThreshold: c.UtilizationThreshold, GoodputFloor: c.GoodputFloor, HeadroomMbps: c.HeadroomMbps}
	return controller.Config{Migration: m, Cooldown: seconds(c.CooldownSec), ReMigrationInterval: seconds(c.ReMigrationSec)}
}

// Link is one entry of Spec.Links: the capacity of a link, A and B, in
// both directions (mesh.Topology.SetCapacity), or of every outgoing
// direction of the node Egress, as tc on its interface shapes it
// (ThrottleEgress); on "custom" it adds the link A-B, 3 ms one way.
// It gives the capacity in exactly one form: Mbps, a constant over the
// horizon; Phases, played in order; or CSV, the path of an
// "offset_s,mbps" trace file as tracegen writes it (trace.LoadCSV).
// Mbps and Phases hold on a 1 s grid; a CSV keeps its rows' step. A trace
// shorter than the run repeats (trace.Trace.At).
type Link struct {
	A      string  `json:"a,omitempty"`
	B      string  `json:"b,omitempty"`
	Egress string  `json:"egress,omitempty"`
	Mbps   float64 `json:"mbps,omitempty"`
	Phases []Phase `json:"phases,omitempty"`
	// CSV is read by Load, against the config file's directory when
	// relative, or else by Build. Decode and Validate never open it.
	CSV string `json:"csv,omitempty"`

	loaded *trace.Trace // what Load read from CSV
}

// Phase holds Mbps for DurationSec seconds.
type Phase struct {
	DurationSec int     `json:"durationSec"`
	Mbps        float64 `json:"mbps"`
}

// App is one entry of Spec.Apps and sets exactly one kind. A spec deploys
// at most one of each paper application and any number of streams.
type App struct {
	Camera    *Camera        `json:"camera,omitempty"`
	Socialnet *Socialnet     `json:"socialnet,omitempty"`
	Videoconf *Videoconf     `json:"videoconf,omitempty"`
	Stream    *stream.Config `json:"stream,omitempty"`
}

// Camera is the camera pipeline: FrameKB-sized frames (default 25), the
// camera stage pinned to PinCamera when set.
type Camera struct {
	FrameKB   float64 `json:"frameKB,omitempty"`
	PinCamera string  `json:"pinCamera,omitempty"`
}

// Socialnet is the social network: constant arrivals at RPS (default 50),
// exponential ones when Bursty, from ClientNode (default node1; may be
// unschedulable, a generator outside the cluster). ProfileRPS is the rate
// the DAG's edge weights were profiled at (zero = the arrival rate).
type Socialnet struct {
	RPS        float64 `json:"rps,omitempty"`
	ClientNode string  `json:"clientNode,omitempty"`
	Bursty     bool    `json:"bursty,omitempty"`
	ProfileRPS float64 `json:"profileRPS,omitempty"`
}

// Videoconf is video conferencing: ParticipantsPerNode (default 3) on every
// schedulable node, or Clients participants per named node when given, each
// publishing PublishMbps (default 0.5). Publishers limits who shares video
// (0 = all); InitialNode starts the SFU there, still migratable.
type Videoconf struct {
	ParticipantsPerNode int            `json:"participantsPerNode,omitempty"`
	PublishMbps         float64        `json:"publishMbps,omitempty"`
	Clients             map[string]int `json:"clients,omitempty"`
	Publishers          int            `json:"publishers,omitempty"`
	InitialNode         string         `json:"initialNode,omitempty"`
}

// Decode reads one JSON scenario strictly: an unknown key or trailing data
// is an error, so a typo such as "migraton" cannot silently run a different
// scenario. "app" is rewritten into its one-entry "apps" list, a spec with
// neither deploys camera, and one core per node is reserved unless
// "reservedCPU" says otherwise. The result is validated.
func Decode(r io.Reader) (Spec, error) {
	s := Spec{ReservedCPU: 1}
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return Spec{}, fmt.Errorf("trailing data after the scenario object")
	}
	if s.App == "" && len(s.Apps) == 0 {
		s.App = "camera"
	}
	if err := s.expand(); err != nil {
		return Spec{}, err
	}
	return s, s.Validate()
}

// Load reads the scenario file at path with Decode, then each links
// entry's CSV trace, a relative path resolved against the file's
// directory. Errors name the file and the key; a CSV error also names the
// trace file and the line of its bad row.
func Load(path string) (Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return Spec{}, err
	}
	defer f.Close()
	s, err := Decode(f)
	if err != nil {
		return Spec{}, fmt.Errorf("%s: %w", path, err)
	}
	for i := range s.Links {
		l := &s.Links[i]
		if l.CSV == "" {
			continue
		}
		if !filepath.IsAbs(l.CSV) {
			l.CSV = filepath.Join(filepath.Dir(path), l.CSV)
		}
		if l.loaded, err = trace.LoadCSV(l.CSV); err != nil {
			return Spec{}, fmt.Errorf("%s: links[%d].csv: %w", path, i, err)
		}
	}
	return s, nil
}

// expand rewrites the App shorthand into its one-entry Apps list.
func (s *Spec) expand() error {
	if s.App == "" {
		return nil
	}
	a, ok := map[string]App{"camera": {Camera: &Camera{}}, "socialnet": {Socialnet: &Socialnet{}},
		"videoconf": {Videoconf: &Videoconf{}}}[s.App]
	switch {
	case !ok:
		return fmt.Errorf("app: unknown %q", s.App)
	case len(s.Apps) > 0:
		return fmt.Errorf("app: %q given with apps; give one of the two", s.App)
	}
	s.App, s.Apps = "", []App{a}
	return nil
}

// field is a number in a spec with the key an error names it by.
type field struct {
	key string
	v   float64
}

// Validate rejects what a run would otherwise replace by a default, ignore or
// fail on late: negative or non-finite sizes, rates and intervals, seconds
// whose nanoseconds overflow a time.Duration, fractions outside [0, 1], an
// all-zero controller, slo without migration (it acts only in the control
// loop), a k3s pack limit, unknown names, nodes on citylab or
// none on custom, an empty or repeated node name, a bad apps or links entry,
// nodes or links the topology lacks, and a pin on an unschedulable node.
// Errors name the key. It neither builds the topology nor opens a file.
func (s Spec) Validate() error {
	if err := s.expand(); err != nil {
		return err
	}
	secs := []field{{"horizonSec", float64(s.HorizonSec)}, {"monitorIntervalSec", float64(s.MonitorIntervalSec)},
		{"migrationDowntimeSec", s.MigrationDowntimeSec}}
	if s.Controller != nil && *s.Controller == (Controller{}) {
		return fmt.Errorf("controller: every key is 0, which runs the default controller, not a zero one; leave the key out for the defaults")
	}
	if s.SLO && !s.Migration {
		return fmt.Errorf(`slo: needs "migration": true; the SLO evaluator ticks only at the end of a control cycle`)
	}
	ctl := cmp.Or(s.Controller, DefaultController())
	for _, f := range []field{{"controller.utilizationThreshold", ctl.UtilizationThreshold},
		{"controller.goodputFloor", ctl.GoodputFloor}, {"packLimit", s.PackLimit}} {
		if !(f.v >= 0 && f.v <= 1) {
			return fmt.Errorf("%s: %v is not in [0, 1]", f.key, f.v)
		}
	}
	secs = append(secs, field{"controller.cooldownSec", ctl.CooldownSec}, field{"controller.reMigrationSec", ctl.ReMigrationSec})
	amounts := []field{{"reservedCPU", s.ReservedCPU}, {"controller.headroomMbps", ctl.HeadroomMbps}}
	for i, n := range s.Nodes {
		if n.Name == "" || slices.ContainsFunc(s.Nodes[:i], func(m cluster.Node) bool { return m.Name == n.Name }) {
			return fmt.Errorf("nodes[%d].name: %q is empty or repeated", i, n.Name)
		}
		amounts = append(amounts, field{fmt.Sprintf("nodes[%d].cpu", i), n.CPU}, field{fmt.Sprintf("nodes[%d].memoryMB", i), n.MemoryMB})
	}
	for i, e := range s.Faults {
		secs = append(secs, field{fmt.Sprintf("faults[%d].atSec", i), e.AtSec})
	}
	if c := s.Chaos; c != nil {
		secs = append(secs, field{"chaos.meanNodeDowntimeSec", c.MeanNodeDowntimeSec},
			field{"chaos.meanLinkDowntimeSec", c.MeanLinkDowntimeSec}, field{"chaos.meanProbeLossWindowSec", c.MeanProbeLossWindowSec})
	}
	for _, f := range append(amounts, secs...) {
		if !(f.v >= 0) || math.IsInf(f.v, 1) {
			return fmt.Errorf("%s: %v is negative or not finite", f.key, f.v)
		}
	}
	for _, f := range secs {
		if f.v*float64(time.Second) >= math.MaxInt64 {
			return fmt.Errorf("%s: %v s overflows a duration", f.key, f.v)
		}
	}
	if !slices.Contains([]string{"", "citylab", "lan", "custom"}, s.Topology) {
		return fmt.Errorf("topology: unknown %q", s.Topology)
	}
	if s.Topology != "lan" && s.citylab() == (len(s.Nodes) > 0) {
		return fmt.Errorf("nodes: %d given; the citylab topology takes none, a custom one needs them", len(s.Nodes))
	}
	if _, err := s.policy(); err != nil {
		return err
	}
	paper := map[string]bool{}
	for i, a := range s.Apps {
		if err := s.validateApp(a, paper); err != nil {
			return fmt.Errorf("apps[%d]: %w", i, err)
		}
	}
	if err := s.validateLinks(); err != nil {
		return err
	}
	explicit := &faults.Schedule{Events: s.Faults}
	if err := cmp.Or(explicit.Validate(s), explicit.ValidateWindows(s.horizon())); err != nil {
		return err // "faults: ..."
	}
	if s.Chaos != nil {
		if err := s.Chaos.Generator(s.Seed, s.horizon()).Validate(); err != nil {
			return fmt.Errorf("chaos: %w", err)
		}
		for _, n := range s.Chaos.Protected {
			if !s.HasNode(n) {
				return fmt.Errorf("chaos: protected node %q is not in the topology", n)
			}
		}
	}
	return nil
}

// validateApp checks that an apps entry sets one kind, not a paper
// application kind in paper (those earlier entries set), with finite
// non-negative numbers, a well-formed stream and nodes the topology has.
func (s Spec) validateApp(a App, paper map[string]bool) error {
	var kinds []string
	var nums []field
	var nodes [][2]string // key, node
	var pins [][2]string  // key, node that must be schedulable
	if c := a.Camera; c != nil {
		kinds, nums = append(kinds, "camera"), append(nums, field{"frameKB", c.FrameKB})
		pins = append(pins, [2]string{"pinCamera", c.PinCamera})
	}
	if c := a.Socialnet; c != nil {
		kinds, nums = append(kinds, "socialnet"), append(nums, field{"rps", c.RPS}, field{"profileRPS", c.ProfileRPS})
		nodes = append(nodes, [2]string{"clientNode", c.ClientNode})
	}
	if c := a.Videoconf; c != nil {
		kinds = append(kinds, "videoconf")
		nums = append(nums, field{"participantsPerNode", float64(c.ParticipantsPerNode)},
			field{"publishMbps", c.PublishMbps}, field{"publishers", float64(c.Publishers)})
		pins = append(pins, [2]string{"initialNode", c.InitialNode})
		clients := make([]string, 0, len(c.Clients))
		for n := range c.Clients {
			clients = append(clients, n)
		}
		slices.Sort(clients) // the first bad client is the same every run
		for _, n := range clients {
			nums, nodes = append(nums, field{"clients." + n, float64(c.Clients[n])}), append(nodes, [2]string{"clients", n})
		}
	}
	if c := a.Stream; c != nil {
		kinds = append(kinds, "stream")
		for _, comp := range c.Components {
			nums, pins = append(nums, field{comp.Name + ".cpu", comp.CPU}), append(pins, [2]string{comp.Name + ".pin", comp.Pin})
		}
		for _, e := range c.Edges {
			nums = append(nums, field{e.From + "->" + e.To + ".mbps", e.Mbps})
		}
	}
	if len(kinds) != 1 {
		return fmt.Errorf("want exactly one of camera, socialnet, videoconf or stream, got %v", kinds)
	}
	kind := kinds[0]
	if kind != "stream" && paper[kind] {
		return fmt.Errorf("a second %s entry", kind)
	}
	paper[kind] = true
	for _, f := range nums {
		if f.v < 0 || math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("%s.%s: %v is negative or not finite", kind, f.key, f.v)
		}
	}
	for _, n := range append(nodes, pins...) {
		if n[1] != "" && !s.HasNode(n[1]) {
			return fmt.Errorf("%s.%s: %q is not in the topology", kind, n[0], n[1])
		}
	}
	for _, n := range pins {
		if n[1] != "" && s.unschedulable(n[1]) {
			return fmt.Errorf("%s.%s: %q is unschedulable", kind, n[0], n[1])
		}
	}
	if a.Stream != nil {
		_, err := stream.New(*a.Stream)
		return err
	}
	return nil
}

// validateLinks checks that each links entry addresses one link or one
// node's egress the topology has (on custom, a link between two listed
// nodes), that no two entries shape one
// direction, and that it gives exactly one capacity form with finite
// non-negative Mbps and positive phase durations.
func (s Spec) validateLinks() error {
	type direction struct {
		from, to string // to "*": every neighbour
		entry    int
	}
	var shaped []direction
	custom := s.Topology == "custom"
	for i, l := range s.Links {
		dirs := []direction{{l.A, l.B, i}, {l.B, l.A, i}}
		switch link := l.A != "" || l.B != ""; {
		case link == (l.Egress != "") || link && (l.A == "" || l.B == ""):
			return fmt.Errorf("links[%d]: want a and b, or egress, got a=%q b=%q egress=%q", i, l.A, l.B, l.Egress)
		case l.Egress != "" && custom:
			return fmt.Errorf("links[%d].egress: a custom topology takes link entries only", i)
		case l.Egress != "" && !s.HasNode(l.Egress):
			return fmt.Errorf("links[%d].egress: %q is not in the topology", i, l.Egress)
		case l.Egress != "":
			dirs = []direction{{l.Egress, "*", i}}
		case !s.HasLink(l.A, l.B):
			return fmt.Errorf("links[%d]: the topology has no link %s-%s", i, l.A, l.B)
		}
		for _, d := range dirs {
			for _, e := range shaped {
				if d.from == e.from && (d.to == e.to || d.to == "*" || e.to == "*") {
					return fmt.Errorf("links[%d]: shapes a direction links[%d] shapes", i, e.entry)
				}
			}
		}
		shaped = append(shaped, dirs...)
		if err := l.validateCapacity(fmt.Sprintf("links[%d]", i)); err != nil {
			return err
		}
	}
	return nil
}

// validateCapacity checks the one capacity form of the links entry at key.
func (l Link) validateCapacity(key string) error {
	var forms []string
	for _, f := range []struct {
		key string
		set bool
	}{{"mbps", l.Mbps != 0}, {"phases", l.Phases != nil}, {"csv", l.CSV != ""}} {
		if f.set {
			forms = append(forms, f.key)
		}
	}
	if len(forms) != 1 {
		return fmt.Errorf("%s: want exactly one of mbps, phases or csv, got %v", key, forms)
	}
	finite := func(v float64) bool { return v >= 0 && !math.IsInf(v, 0) }
	if forms[0] == "mbps" && !finite(l.Mbps) {
		return fmt.Errorf("%s.mbps: %v is negative or not finite", key, l.Mbps)
	}
	if forms[0] != "phases" {
		return nil
	}
	if len(l.Phases) == 0 {
		return fmt.Errorf("%s.phases: empty", key)
	}
	total := 0.0
	for k, p := range l.Phases {
		if p.DurationSec <= 0 {
			return fmt.Errorf("%s.phases[%d].durationSec: %d is not positive", key, k, p.DurationSec)
		}
		if !finite(p.Mbps) {
			return fmt.Errorf("%s.phases[%d].mbps: %v is negative or not finite", key, k, p.Mbps)
		}
		total += float64(p.DurationSec)
	}
	if total*float64(time.Second) >= math.MaxInt64 {
		return fmt.Errorf("%s.phases: %v s overflow a duration", key, total)
	}
	return nil
}

// clusterNodes is the spec's cluster: CityLab's, a bare "lan"'s three, or Nodes.
func (s Spec) clusterNodes() []cluster.Node {
	switch {
	case s.citylab():
		return CityLabWorkers()
	case len(s.Nodes) == 0 && s.Topology == "lan":
		return []cluster.Node{{Name: "node1", CPU: 16, MemoryMB: 65536}, {Name: "node2", CPU: 16, MemoryMB: 65536},
			{Name: "node3", CPU: 16, MemoryMB: 65536}}
	}
	return s.Nodes
}

func (s Spec) citylab() bool { return s.Topology == "" || s.Topology == "citylab" }

// unschedulable reports whether the spec's cluster keeps workloads off the node.
func (s Spec) unschedulable(name string) bool {
	return slices.ContainsFunc(s.clusterNodes(), func(n cluster.Node) bool { return n.Name == name && n.Unschedulable })
}

// HasNode reports whether the spec's topology has the node, without
// building it (faults.Elements).
func (s Spec) HasNode(name string) bool {
	return slices.ContainsFunc(s.clusterNodes(), func(n cluster.Node) bool { return n.Name == name })
}

// HasLink reports whether the spec's topology joins the two nodes, without
// building it (faults.Elements).
func (s Spec) HasLink(a, b string) bool {
	id := mesh.MakeLinkID(a, b)
	switch {
	case s.citylab():
		return slices.ContainsFunc(mesh.CityLabLinks(), func(l mesh.CityLabLinkSpec) bool { return mesh.MakeLinkID(l.A, l.B) == id })
	case a == b || !s.HasNode(a) || !s.HasNode(b):
		return false
	}
	return s.Topology == "lan" || slices.ContainsFunc(s.Links, func(l Link) bool { return mesh.MakeLinkID(l.A, l.B) == id })
}

// Run is a built simulation with its workloads deployed, not yet started.
type Run struct {
	Sim     *core.Simulation
	Horizon time.Duration
	Policy  string             // the placement policy's name ("bass-bfs", "k3s-default", ...)
	Journal *obs.Journal       // nil unless Spec.Journal
	Store   *metricstore.Store // nil unless Spec.Metrics or Spec.SLO
	Faults  *faults.Schedule   // the injected schedule; nil without faults or chaos
	// The paper applications deployed, nil for a kind Apps lacks, and the
	// streams in entry order.
	Camera  *camera.App
	Social  *socialnet.App
	Video   *videoconf.App
	Streams []*stream.App
}

// Complete runs the simulation to the horizon and closes it. Results stay
// readable.
func (r *Run) Complete() error {
	defer r.Sim.Close()
	return r.Sim.Run(r.Horizon)
}

// Build validates the spec and wires its run in a fixed order: simulation,
// observability, fault injection, then the apps in list order.
func Build(s Spec) (*Run, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	_ = s.expand() // Validate has checked the shorthand
	r := &Run{Horizon: s.horizon()}
	topo, err := s.Mesh()
	if err != nil {
		return nil, err
	}
	policy, _ := s.policy()
	r.Policy = policy.Name()
	cfg := core.Config{
		Policy:            policy,
		Controller:        cmp.Or(s.Controller, DefaultController()).config(),
		MonitorInterval:   time.Duration(s.MonitorIntervalSec) * time.Second,
		EnableMigration:   s.Migration,
		MigrationDowntime: seconds(s.MigrationDowntimeSec),
		ReservedCPU:       s.ReservedCPU,
		BatchPlacement:    s.Batch,
		EnableSLO:         s.SLO,
	}
	if r.Sim, err = core.NewSimulation(topo, s.clusterNodes(), s.Seed, cfg); err != nil {
		return nil, err
	}
	if err := r.wire(s); err != nil {
		r.Sim.Close()
		return nil, err
	}
	return r, nil
}

// wire attaches observability, injects faults and deploys the workloads.
func (r *Run) wire(s Spec) error {
	if s.Journal {
		r.Journal = obs.NewJournal(0)
	}
	if s.Metrics || s.SLO {
		r.Store = metricstore.New(0)
	}
	if r.Journal != nil || r.Store != nil {
		r.Sim.AttachObservability(r.Journal, r.Store)
	}
	if len(s.Faults) > 0 || s.Chaos != nil {
		r.Faults = &faults.Schedule{Events: slices.Clone(s.Faults)}
		if s.Chaos != nil {
			r.Faults.Events = append(r.Faults.Events, faults.Generate(r.Sim.Topo, s.Chaos.Generator(s.Seed, r.Horizon)).Events...)
		}
		r.Faults.Sort()
		if _, err := r.Sim.InjectFaults(r.Faults); err != nil {
			return err
		}
	}
	for _, a := range s.Apps {
		w, at, err := r.workload(s, a)
		if err != nil {
			return err
		}
		if _, err := r.Sim.Orch.DeployAt(w.Graph().AppName, w, at); err != nil {
			return fmt.Errorf("deploy %s: %w", w.Graph().AppName, err)
		}
	}
	return nil
}

// workload builds an apps entry's application, with the placement it
// forces, and records it on the run.
func (r *Run) workload(s Spec, a App) (core.Workload, scheduler.Assignment, error) {
	var err error
	switch {
	case a.Camera != nil:
		r.Camera, err = camera.New(camera.Config{FrameKB: a.Camera.FrameKB, PinCamera: a.Camera.PinCamera})
		return r.Camera, nil, err
	case a.Socialnet != nil:
		c := a.Socialnet
		rps := cmp.Or(c.RPS, 50)
		var arrival workload.Arrival = workload.Constant{PerSecond: rps}
		if c.Bursty {
			arrival = workload.Exponential{MeanPerSecond: rps}
		}
		client := cmp.Or(c.ClientNode, mesh.CityLabNode1)
		r.Social, err = socialnet.New(socialnet.Config{ClientNode: client, Arrival: arrival, ProfileRPS: c.ProfileRPS})
		return r.Social, nil, err
	case a.Videoconf != nil:
		c := a.Videoconf
		clients := c.Clients
		if len(clients) == 0 {
			clients = make(map[string]int)
			for _, n := range r.Sim.Cluster.SchedulableNodes() {
				clients[n] = cmp.Or(c.ParticipantsPerNode, 3)
			}
		}
		if r.Video, err = videoconf.New(videoconf.Config{ClientsPerNode: clients, PublishMbps: cmp.Or(c.PublishMbps, 0.5),
			Publishers: c.Publishers, InitialNode: c.InitialNode}); err != nil {
			return nil, nil, err
		}
		return r.Video, r.Video.InitialAssignment(), nil
	}
	app, err := stream.New(*a.Stream)
	if err != nil {
		return nil, nil, err
	}
	r.Streams = append(r.Streams, app)
	return app, nil, nil
}

func (s Spec) horizon() time.Duration {
	return time.Duration(cmp.Or(s.HorizonSec, 600)) * time.Second
}

// seconds is v seconds rounded to the nanosecond.
func seconds(v float64) time.Duration {
	return time.Duration(math.Round(v * float64(time.Second)))
}

// Mesh builds the spec's topology over its horizon, as Build does: its nodes
// in list order, then the links entries, each adding a link on "custom".
func (s Spec) Mesh() (*mesh.Topology, error) {
	horizon := s.horizon()
	var topo *mesh.Topology
	switch s.Topology {
	case "lan":
		// CloudLab-style machines on a bridged 1 Gbps LAN; CPU and memory
		// pick the class (c6525-25g ≈ 16 cores / 128 GB; d710 ≈ 8 threads /
		// 12 GB).
		var names []string
		for _, n := range s.clusterNodes() {
			names = append(names, n.Name)
		}
		topo = mesh.FullMesh(names, 1000, time.Millisecond, horizon)
	case "custom":
		topo = mesh.NewTopology()
		for _, n := range s.Nodes {
			topo.AddNode(n.Name)
		}
	default:
		var err error
		if topo, err = mesh.CityLab(mesh.CityLabOptions{Seed: s.Seed, Duration: horizon}); err != nil {
			return nil, err
		}
	}
	for i, l := range s.Links {
		capacity, err := l.capacity(horizon)
		if err != nil {
			return nil, fmt.Errorf("links[%d].csv: %w", i, err)
		}
		switch {
		case s.Topology == "custom":
			err = topo.AddLink(l.A, l.B, capacity, 3*time.Millisecond)
		case l.Egress != "":
			err = topo.ThrottleEgress(l.Egress, capacity)
		default:
			err = topo.SetCapacity(l.A, l.B, capacity)
		}
		if err != nil {
			return nil, fmt.Errorf("links[%d]: %w", i, err)
		}
	}
	return topo, nil
}

// capacity is a links entry's trace over the horizon.
func (l Link) capacity(horizon time.Duration) (*trace.Trace, error) {
	name := cmp.Or(l.Egress, mesh.MakeLinkID(l.A, l.B).String())
	switch {
	case l.loaded != nil:
		return l.loaded, nil
	case l.CSV != "":
		return trace.LoadCSV(l.CSV)
	case l.Phases != nil:
		levels := make([]trace.Level, len(l.Phases))
		var at time.Duration
		for i, p := range l.Phases {
			levels[i] = trace.Level{From: at, Mbps: p.Mbps}
			at += time.Duration(p.DurationSec) * time.Second
		}
		return trace.StepTrace(name, time.Second, at, levels), nil
	}
	return trace.Constant(name, time.Second, l.Mbps, int(horizon/time.Second)), nil
}

// policy is the placement policy Scheduler and PackLimit name.
func (s Spec) policy() (scheduler.Policy, error) {
	pack := scheduler.WithPackLimit(s.PackLimit) // zero keeps the default, 1
	switch s.Scheduler {
	case "bfs":
		return scheduler.NewBass(scheduler.HeuristicBFS, pack), nil
	case "longest-path", "", "lp":
		return scheduler.NewBass(scheduler.HeuristicLongestPath, pack), nil
	case "k3s":
		if s.PackLimit != 0 {
			return nil, fmt.Errorf("packLimit: the k3s scheduler takes none")
		}
		return scheduler.NewK3s(), nil
	}
	return nil, fmt.Errorf("scheduler: unknown %q", s.Scheduler)
}

// Generator is c's fault generator config for seed over horizon.
func (c *Chaos) Generator(seed int64, horizon time.Duration) faults.GeneratorConfig {
	sec := func(v float64) time.Duration { return time.Duration(v * float64(time.Second)) }
	return faults.GeneratorConfig{
		Seed:                    seed,
		Horizon:                 horizon,
		NodeCrashesPerHour:      c.NodeCrashesPerHour,
		MeanNodeDowntime:        sec(c.MeanNodeDowntimeSec),
		LinkFlapsPerHour:        c.LinkFlapsPerHour,
		MeanLinkDowntime:        sec(c.MeanLinkDowntimeSec),
		ProbeLossWindowsPerHour: c.ProbeLossWindowsPerHour,
		MeanProbeLossWindow:     sec(c.MeanProbeLossWindowSec),
		Protected:               c.Protected,
	}
}

// CityLabWorkers returns the paper's heterogeneous worker set for the
// emulated mesh (§6.3): VMs with 8 GB RAM and 12 or 8 cores. node0 hosts
// the control plane and is unschedulable.
func CityLabWorkers() []cluster.Node {
	return []cluster.Node{
		{Name: mesh.CityLabControl, CPU: 12, MemoryMB: 8192, Unschedulable: true},
		{Name: mesh.CityLabNode1, CPU: 12, MemoryMB: 8192},
		{Name: mesh.CityLabNode2, CPU: 8, MemoryMB: 8192},
		{Name: mesh.CityLabNode3, CPU: 12, MemoryMB: 8192},
		{Name: mesh.CityLabNode4, CPU: 8, MemoryMB: 8192},
	}
}
