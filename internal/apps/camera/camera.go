// Package camera models the paper's camera-processing pipeline (Fig 9): an
// ffmpeg-like camera stream publisher, a frame sampler that forwards
// dissimilar frames, a YOLO-like object detector, and two listeners (one for
// annotated images, one for text labels). Frames move through the simulated
// network as bounded transfers, the detector is a CPU-bound FIFO server, and
// the evaluation metric is end-to-end pipeline latency per annotated frame
// (§6.1, Fig 10, Table 2).
package camera

import (
	"time"

	"bass/internal/core"
	"bass/internal/dag"
	"bass/internal/simnet"
	"bass/internal/workload"
)

// Component names of the five pipeline stages.
const (
	compCamera      = "camera-stream"
	compSampler     = "frame-sampler"
	compDetector    = "object-detector"
	compImgListener = "image-listener"
	compLblListener = "label-listener"
)

// The pipeline's fixed parameters.
const (
	// appName names the deployment.
	appName = "camera"
	// fps is the camera frame rate.
	fps = 30
	// annotatedKB is the annotated output frame size.
	annotatedKB = 60
	// labelBytes is the text label message size.
	labelBytes = 300
	// sampleFrac is the fraction of frames the sampler judges dissimilar and
	// forwards to the detector.
	sampleFrac = 0.1
	// samplerDelay is the per-frame sampling compute time.
	samplerDelay = 5 * time.Millisecond
	// detectDelay is the detector's per-frame service time (YOLO-class
	// inference on an 8-core CPU).
	detectDelay = 200 * time.Millisecond
	// paceMbps caps each frame transfer's rate, modelling RTP pacing.
	paceMbps = 12
	// cameraCPU, imgCPU and lblCPU are the CPU requests of the camera and
	// the two listener stages.
	cameraCPU = 2
	imgCPU    = 2
	lblCPU    = 1
	// maxInflightFrames bounds frames in flight per pipeline stage; when a
	// congested link backs transfers up past the bound, new frames are
	// dropped — RTP behaviour, and what keeps a real pipeline live rather
	// than ever-later (150 ≈ 5 s at 30 fps).
	maxInflightFrames = 150
)

// Config describes the pipeline workload.
type Config struct {
	// FrameKB is the encoded frame size (default 25 KB).
	FrameKB float64
	// SamplerCPU and DetectorCPU are the sampler and detector CPU requests.
	// Defaults mirror the paper's mesh experiment: 4 cores for the sampler,
	// 8 for the detector.
	SamplerCPU  float64
	DetectorCPU float64
	// PinCamera optionally pins the camera stage to the node the physical
	// camera feed enters the mesh at.
	PinCamera string
}

func (c Config) withDefaults() Config {
	if c.FrameKB == 0 {
		c.FrameKB = 25
	}
	if c.SamplerCPU == 0 {
		c.SamplerCPU = 4
	}
	if c.DetectorCPU == 0 {
		c.DetectorCPU = 8
	}
	return c
}

// Edge is one profiled DAG edge weight, in Mbps.
type Edge struct {
	From, To string
	Mbps     float64
}

// EdgeBandwidths reports the profiled DAG edge weights implied by the
// config, in Mbps: the offline profiling step of §5. The edges come in
// pipeline order — camera→sampler, sampler→detector, detector→image
// listener, detector→label listener — the order New adds them in.
func (c Config) EdgeBandwidths() []Edge {
	c = c.withDefaults()
	frameMbps := fps * c.FrameKB * 8 / 1e3 // KB→Kb→Mb
	sampledFPS := fps * sampleFrac
	return []Edge{
		{compCamera, compSampler, frameMbps},
		{compSampler, compDetector, sampledFPS * c.FrameKB * 8 / 1e3},
		{compDetector, compImgListener, sampledFPS * annotatedKB * 8 / 1e3},
		{compDetector, compLblListener, sampledFPS * labelBytes * 8 / 1e6},
	}
}

// App is the deployable camera pipeline.
type App struct {
	cfg   Config
	graph *dag.Graph

	env       *core.Env
	busyUntil time.Duration // detector FIFO server
	latency   *workload.LatencyRecorder
	downUntil map[string]time.Duration

	// The four edges' accounting tags, built once at Start: every frame
	// tags up to four transfers with them.
	tagIngest, tagDetect, tagImage, tagLabel string

	framesPublished int
	framesSampled   int
	framesAnnotated int
	framesDropped   int
	inflightIngest  int
	inflightDetect  int
	inflightOut     int
}

var _ core.Workload = (*App)(nil)

// New builds the pipeline workload.
func New(cfg Config) (*App, error) {
	cfg = cfg.withDefaults()
	g := dag.NewGraph(appName)
	cam := dag.Component{Name: compCamera, CPU: cameraCPU, MemoryMB: 512}
	if cfg.PinCamera != "" {
		cam.Labels = dag.Pin(cfg.PinCamera)
	}
	for _, comp := range []dag.Component{
		cam,
		{Name: compSampler, CPU: cfg.SamplerCPU, MemoryMB: 1024},
		{Name: compDetector, CPU: cfg.DetectorCPU, MemoryMB: 4096},
		{Name: compImgListener, CPU: imgCPU, MemoryMB: 512},
		{Name: compLblListener, CPU: lblCPU, MemoryMB: 256},
	} {
		if err := g.AddComponent(comp); err != nil {
			return nil, err
		}
	}
	for _, e := range cfg.EdgeBandwidths() {
		if err := g.AddEdge(e.From, e.To, e.Mbps); err != nil {
			return nil, err
		}
	}
	return &App{
		cfg:       cfg,
		graph:     g,
		latency:   workload.NewLatencyRecorder(time.Second),
		downUntil: make(map[string]time.Duration),
	}, nil
}

// Graph returns the component DAG.
func (a *App) Graph() *dag.Graph { return a.graph }

// Start begins publishing frames.
func (a *App) Start(env *core.Env) error {
	a.env = env
	a.tagIngest = env.Tag(compCamera, compSampler)
	a.tagDetect = env.Tag(compSampler, compDetector)
	a.tagImage = env.Tag(compDetector, compImgListener)
	a.tagLabel = env.Tag(compDetector, compLblListener)
	env.Engine().Every(time.Second/fps, a.publishFrame)
	return nil
}

// OnMigration marks the moved component unavailable for the downtime;
// frames that reach it during the window are dropped (the stream resumes
// from live frames, as an RTP pipeline does after a restart).
func (a *App) OnMigration(env *core.Env, component, fromNode, toNode string, downtime time.Duration) {
	a.downUntil[component] = env.Now() + downtime
}

func (a *App) isDown(component string) bool {
	return a.env.Now() < a.downUntil[component]
}

// publishFrame emits one camera frame into the pipeline.
func (a *App) publishFrame() {
	a.framesPublished++
	if a.isDown(compCamera) || a.isDown(compSampler) {
		a.framesDropped++
		return
	}
	birth := a.env.Now()
	src := a.env.NodeOf(compCamera)
	dst := a.env.NodeOf(compSampler)
	if src == "" || dst == "" || a.inflightIngest >= maxInflightFrames {
		a.framesDropped++
		return
	}
	a.inflightIngest++
	_, err := a.env.Net().AddTransfer(
		a.tagIngest, src, dst,
		a.cfg.FrameKB*1e3, paceMbps,
		func(r simnet.TransferResult) {
			a.inflightIngest--
			if r.Failed {
				a.framesDropped++
				return
			}
			a.onFrameAtSampler(birth)
		},
	)
	if err != nil {
		a.inflightIngest--
		a.framesDropped++
	}
}

// onFrameAtSampler runs the sampling stage.
func (a *App) onFrameAtSampler(birth time.Duration) {
	a.env.Engine().After(samplerDelay, func() {
		if a.env.Engine().Rand().Float64() >= sampleFrac {
			return // frame similar to previous; not forwarded
		}
		a.framesSampled++
		if a.isDown(compDetector) || a.inflightDetect >= maxInflightFrames {
			a.framesDropped++
			return
		}
		src := a.env.NodeOf(compSampler)
		dst := a.env.NodeOf(compDetector)
		a.inflightDetect++
		_, err := a.env.Net().AddTransfer(
			a.tagDetect, src, dst,
			a.cfg.FrameKB*1e3, paceMbps,
			func(r simnet.TransferResult) {
				a.inflightDetect--
				if r.Failed {
					a.framesDropped++
					return
				}
				a.onFrameAtDetector(birth)
			},
		)
		if err != nil {
			a.inflightDetect--
			a.framesDropped++
		}
	})
}

// onFrameAtDetector queues the frame at the detector's FIFO server.
func (a *App) onFrameAtDetector(birth time.Duration) {
	now := a.env.Now()
	start := now
	if a.busyUntil > start {
		start = a.busyUntil
	}
	finish := start + detectDelay
	a.busyUntil = finish
	a.env.Engine().At(finish, func() { a.onDetectionDone(birth) })
}

// onDetectionDone publishes the annotated image and the label message.
func (a *App) onDetectionDone(birth time.Duration) {
	src := a.env.NodeOf(compDetector)
	if dst := a.env.NodeOf(compLblListener); dst != "" && !a.isDown(compLblListener) {
		_, _ = a.env.Net().AddTransfer(
			a.tagLabel, src, dst,
			labelBytes, paceMbps, nil,
		)
	}
	if a.isDown(compImgListener) || a.inflightOut >= maxInflightFrames {
		a.framesDropped++
		return
	}
	dst := a.env.NodeOf(compImgListener)
	a.inflightOut++
	_, err := a.env.Net().AddTransfer(
		a.tagImage, src, dst,
		annotatedKB*1e3, paceMbps,
		func(r simnet.TransferResult) {
			a.inflightOut--
			if r.Failed {
				a.framesDropped++
				return
			}
			a.framesAnnotated++
			a.latency.Observe(a.env.Now(), a.env.Now()-birth)
		},
	)
	if err != nil {
		a.inflightOut--
		a.framesDropped++
	}
}

// Latency returns the end-to-end latency recorder (camera capture →
// annotated frame delivered).
func (a *App) Latency() *workload.LatencyRecorder { return a.latency }

// Counters reports pipeline throughput counters.
func (a *App) Counters() (published, sampled, annotated, dropped int) {
	return a.framesPublished, a.framesSampled, a.framesAnnotated, a.framesDropped
}
