// Package camera models the paper's camera-processing pipeline (Fig 9): an
// ffmpeg-like camera stream publisher, a frame sampler that forwards
// dissimilar frames, a YOLO-like object detector, and two listeners (one for
// annotated images, one for text labels). Frames move through the simulated
// network as bounded transfers, the detector is a CPU-bound FIFO server, and
// the evaluation metric is end-to-end pipeline latency per annotated frame
// (§6.1, Fig 10, Table 2).
package camera

import (
	"fmt"
	"time"

	"bass/internal/core"
	"bass/internal/dag"
	"bass/internal/simnet"
	"bass/internal/workload"
)

// Component names of the five pipeline stages.
const (
	CompCamera      = "camera-stream"
	CompSampler     = "frame-sampler"
	CompDetector    = "object-detector"
	CompImgListener = "image-listener"
	CompLblListener = "label-listener"
)

// Config describes the pipeline workload.
type Config struct {
	// AppName names the deployment (defaults to "camera").
	AppName string
	// FPS is the camera frame rate (default 30).
	FPS float64
	// FrameKB is the encoded frame size (default 25 KB).
	FrameKB float64
	// AnnotatedKB is the annotated output frame size (default 60 KB).
	AnnotatedKB float64
	// LabelBytes is the text label message size (default 300 B).
	LabelBytes float64
	// SampleFrac is the fraction of frames the sampler judges dissimilar and
	// forwards to the detector (default 0.1).
	SampleFrac float64
	// SamplerDelay is the per-frame sampling compute time (default 5 ms).
	SamplerDelay time.Duration
	// DetectDelay is the detector's per-frame service time (default 200 ms,
	// YOLO-class inference on an 8-core CPU).
	DetectDelay time.Duration
	// PaceMbps caps each frame transfer's rate, modelling RTP pacing
	// (default 12 Mbps).
	PaceMbps float64
	// CameraCPU..ListenerCPU are per-stage CPU requests. Defaults mirror the
	// paper's mesh experiment: 4 cores for the sampler, 8 for the detector.
	CameraCPU   float64
	SamplerCPU  float64
	DetectorCPU float64
	ImgCPU      float64
	LblCPU      float64
	// PinCamera optionally pins the camera stage to the node the physical
	// camera feed enters the mesh at.
	PinCamera string
	// MaxInflightFrames bounds frames in flight per pipeline stage; when a
	// congested link backs transfers up past the bound, new frames are
	// dropped — RTP behaviour, and what keeps a real pipeline live rather
	// than ever-later (default 150 ≈ 5 s at 30 fps).
	MaxInflightFrames int
}

func (c Config) withDefaults() Config {
	if c.AppName == "" {
		c.AppName = "camera"
	}
	if c.FPS == 0 {
		c.FPS = 30
	}
	if c.FrameKB == 0 {
		c.FrameKB = 25
	}
	if c.AnnotatedKB == 0 {
		c.AnnotatedKB = 60
	}
	if c.LabelBytes == 0 {
		c.LabelBytes = 300
	}
	if c.SampleFrac == 0 {
		c.SampleFrac = 0.1
	}
	if c.SamplerDelay == 0 {
		c.SamplerDelay = 5 * time.Millisecond
	}
	if c.DetectDelay == 0 {
		c.DetectDelay = 200 * time.Millisecond
	}
	if c.PaceMbps == 0 {
		c.PaceMbps = 12
	}
	if c.CameraCPU == 0 {
		c.CameraCPU = 2
	}
	if c.SamplerCPU == 0 {
		c.SamplerCPU = 4
	}
	if c.DetectorCPU == 0 {
		c.DetectorCPU = 8
	}
	if c.ImgCPU == 0 {
		c.ImgCPU = 2
	}
	if c.LblCPU == 0 {
		c.LblCPU = 1
	}
	if c.MaxInflightFrames == 0 {
		c.MaxInflightFrames = 150
	}
	return c
}

// EdgeBandwidths reports the profiled DAG edge weights implied by the
// config, in Mbps: the offline profiling step of §5.
func (c Config) EdgeBandwidths() map[[2]string]float64 {
	c = c.withDefaults()
	frameMbps := c.FPS * c.FrameKB * 8 / 1e3 // KB→Kb→Mb
	sampledFPS := c.FPS * c.SampleFrac
	return map[[2]string]float64{
		{CompCamera, CompSampler}:       frameMbps,
		{CompSampler, CompDetector}:     sampledFPS * c.FrameKB * 8 / 1e3,
		{CompDetector, CompImgListener}: sampledFPS * c.AnnotatedKB * 8 / 1e3,
		{CompDetector, CompLblListener}: sampledFPS * c.LabelBytes * 8 / 1e6,
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
	if cfg.SampleFrac < 0 || cfg.SampleFrac > 1 {
		return nil, fmt.Errorf("camera: SampleFrac %v outside [0,1]", cfg.SampleFrac)
	}
	g := dag.NewGraph(cfg.AppName)
	cam := dag.Component{Name: CompCamera, CPU: cfg.CameraCPU, MemoryMB: 512}
	if cfg.PinCamera != "" {
		cam.Labels = dag.Pin(cfg.PinCamera)
	}
	for _, comp := range []dag.Component{
		cam,
		{Name: CompSampler, CPU: cfg.SamplerCPU, MemoryMB: 1024},
		{Name: CompDetector, CPU: cfg.DetectorCPU, MemoryMB: 4096},
		{Name: CompImgListener, CPU: cfg.ImgCPU, MemoryMB: 512},
		{Name: CompLblListener, CPU: cfg.LblCPU, MemoryMB: 256},
	} {
		if err := g.AddComponent(comp); err != nil {
			return nil, err
		}
	}
	for edge, mbps := range cfg.EdgeBandwidths() {
		if err := g.AddEdge(edge[0], edge[1], mbps); err != nil {
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
	interval := time.Duration(float64(time.Second) / a.cfg.FPS)
	env.Engine().Every(interval, a.publishFrame)
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
	if a.isDown(CompCamera) || a.isDown(CompSampler) {
		a.framesDropped++
		return
	}
	birth := a.env.Now()
	src := a.env.NodeOf(CompCamera)
	dst := a.env.NodeOf(CompSampler)
	if src == "" || dst == "" || a.inflightIngest >= a.cfg.MaxInflightFrames {
		a.framesDropped++
		return
	}
	a.inflightIngest++
	_, err := a.env.Net().AddTransfer(
		a.env.Tag(CompCamera, CompSampler), src, dst,
		a.cfg.FrameKB*1e3, a.cfg.PaceMbps,
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
	a.env.Engine().After(a.cfg.SamplerDelay, func() {
		if a.env.Engine().Rand().Float64() >= a.cfg.SampleFrac {
			return // frame similar to previous; not forwarded
		}
		a.framesSampled++
		if a.isDown(CompDetector) || a.inflightDetect >= a.cfg.MaxInflightFrames {
			a.framesDropped++
			return
		}
		src := a.env.NodeOf(CompSampler)
		dst := a.env.NodeOf(CompDetector)
		a.inflightDetect++
		_, err := a.env.Net().AddTransfer(
			a.env.Tag(CompSampler, CompDetector), src, dst,
			a.cfg.FrameKB*1e3, a.cfg.PaceMbps,
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
	finish := start + a.cfg.DetectDelay
	a.busyUntil = finish
	a.env.Engine().At(finish, func() { a.onDetectionDone(birth) })
}

// onDetectionDone publishes the annotated image and the label message.
func (a *App) onDetectionDone(birth time.Duration) {
	src := a.env.NodeOf(CompDetector)
	if dst := a.env.NodeOf(CompLblListener); dst != "" && !a.isDown(CompLblListener) {
		_, _ = a.env.Net().AddTransfer(
			a.env.Tag(CompDetector, CompLblListener), src, dst,
			a.cfg.LabelBytes, a.cfg.PaceMbps, nil,
		)
	}
	if a.isDown(CompImgListener) || a.inflightOut >= a.cfg.MaxInflightFrames {
		a.framesDropped++
		return
	}
	dst := a.env.NodeOf(CompImgListener)
	a.inflightOut++
	_, err := a.env.Net().AddTransfer(
		a.env.Tag(CompDetector, CompImgListener), src, dst,
		a.cfg.AnnotatedKB*1e3, a.cfg.PaceMbps,
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
