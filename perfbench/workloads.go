package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"strings"
	"time"

	"emerald"
	"emerald/internal/dram"
	"emerald/internal/exp"
	"emerald/internal/geom"
	"emerald/internal/gl"
	"emerald/internal/gpu"
	"emerald/internal/mathx"
	"emerald/internal/mem"
	"emerald/internal/sample"
	"emerald/internal/sched"
	"emerald/internal/shader"
	"emerald/internal/soc"
	"emerald/internal/stats"
	"emerald/internal/trace"
)

// system is one workload's simulator, built by the workload's setup
// and driven one operation at a time by a single caller.
type system interface {
	// prepare builds what the output checks compare against. It runs
	// after setup and outside every timed window.
	prepare() error
	// op runs operation i. Spans the workload records around its own
	// calls into a layer go to sp.
	op(i int, sp spans) error
	// check verifies operation i's simulated output, outside the timed
	// window.
	check(i int) error
	// finish runs the checks deferred until after the measured loop,
	// so that they stay out of the CPU profile, and returns the
	// operations that failed them.
	finish() (failed []int, err error)
	// progress returns the cumulative simulated cycles, frames and GPU
	// warp instructions completed so far.
	progress() (cycles uint64, frames int, instr uint64)
	// digest hashes the simulated state: registry JSON, framebuffer
	// and cycle count.
	digest() (string, error)
	// registry returns the statistics registry the simulator writes.
	registry() *stats.Registry
	// skipped returns the cycles idle skipping jumped over so far.
	skipped() uint64
}

// workload is one named input of the benchmark.
type workload struct {
	name string
	// digestOps is how many operations the digest and the per-layer
	// counters cover. Every run completes at least this many, so both
	// are pure functions of the seed.
	digestOps int
	setup     func(seed int64) (system, error)
}

var workloads = []workload{
	{name: "gpu-frames-w3", digestOps: 16, setup: newGPUFrames},
	{name: "soc-m1-dtb-high", digestOps: 4, setup: newSoCM1},
	{name: "soc-idle-display", digestOps: 8, setup: newSoCIdle},
	{name: "sampled-w3-long", digestOps: 1, setup: newSampled},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// spans collects host durations, in seconds, by span name.
type spans map[string][]float64

func (s spans) add(name string, d time.Duration) { s[name] = append(s[name], d.Seconds()) }

// splitmix64 turns the workload seed into well-spread bits.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// withPhase starts the scene's camera orbit at a seed-chosen angle,
// so each seed renders a different stretch of the camera path.
func withPhase(s *geom.Scene, seed int64) *geom.Scene {
	angle := float32(float64(splitmix64(uint64(seed))>>11) / (1 << 53) * 2 * math.Pi)
	s.Eye = mathx.RotateY(angle).MulVec(mathx.V4(s.Eye.X, s.Eye.Y, s.Eye.Z, 1)).XYZ()
	return s
}

// sumCounters returns a function summing every registry counter whose
// name matches keep, as the registry stands when it is called.
func sumCounters(reg *stats.Registry, keep func(name string) bool) func() uint64 {
	var cs []*stats.Counter
	for _, n := range reg.Names() {
		if keep(n) {
			cs = append(cs, reg.Counter(n))
		}
	}
	return func() uint64 {
		var sum int64
		for _, c := range cs {
			sum += c.Value()
		}
		return uint64(sum)
	}
}

// isWarpInstr matches the per-core gpu.core*.instructions counters.
func isWarpInstr(n string) bool {
	return strings.HasPrefix(n, "gpu.core") && strings.HasSuffix(n, ".instructions")
}

// stateDigest hashes registry JSON, a surface's bytes and the cycle
// count, the pattern the simulator's determinism tests use.
func stateDigest(reg *stats.Registry, m *mem.Memory, s emerald.Surface, cycle uint64) (string, error) {
	var buf bytes.Buffer
	if err := reg.DumpJSON(&buf); err != nil {
		return "", err
	}
	h := sha256.New()
	h.Write(buf.Bytes())
	h.Write(readSurface(m, s))
	fmt.Fprintf(h, "cycle=%d", cycle)
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}

func readSurface(m *mem.Memory, s emerald.Surface) []byte {
	b := make([]byte, s.Width*s.Height*4)
	m.Read(s.Base, b)
	return b
}

// prepareScene issues the Case Study II renderer's set-up calls:
// viewport, assets, program and light. Both contexts of gpu-frames-w3
// run it, so their deterministic allocators place objects at the same
// addresses.
func prepareScene(ctx *gl.Context, s *geom.Scene, w, h int) (gl.MeshHandle, error) {
	ctx.Viewport(w, h)
	mesh, err := ctx.UploadMesh(s.Mesh)
	if err != nil {
		return mesh, err
	}
	tex, err := ctx.UploadTexture(s.Texture)
	if err != nil {
		return mesh, err
	}
	if err := ctx.BindTexture(0, tex); err != nil {
		return mesh, err
	}
	if err := ctx.UseProgram(shader.VSTransform, shader.FSTexturedEarlyZ); err != nil {
		return mesh, err
	}
	ctx.SetLight(mathx.V3(0.4, 0.5, 0.8).Normalize())
	return mesh, nil
}

// frameBudget bounds one operation's simulated cycles; exhausting it
// fails the operation.
const frameBudget = 50_000_000

// gpuFrames renders consecutive W3 frames on the standalone Table 7
// GPU. A functional-executor context renders the same frames after the
// measured loop for the output check.
type gpuFrames struct {
	scene  *geom.Scene
	reg    *stats.Registry
	sys    *emerald.StandaloneGPU
	ctx    *gl.Context
	mesh   gl.MeshHandle
	aspect float32
	frames int
	instr  func() uint64

	fmem  *mem.Memory
	fctx  *gl.Context
	fmesh gl.MeshHandle
	sums  [][32]byte // per frame: hash of the detailed colour and depth surfaces
}

func newGPUFrames(seed int64) (system, error) {
	scene, err := geom.DFSLWorkload(geom.W3Cube)
	if err != nil {
		return nil, err
	}
	opt := exp.Quick()
	g := &gpuFrames{
		scene:  withPhase(scene, seed),
		reg:    stats.NewRegistry(),
		aspect: float32(opt.CS2Width) / float32(opt.CS2Height),
	}
	g.sys = emerald.NewStandaloneGPU(g.reg)
	// Idle skipping and every event wheel on, as the emerald command
	// and BenchmarkFrameW3 run the standalone GPU.
	g.sys.SetIdleSkip(true)
	g.sys.SetEventWheel(true)
	g.ctx = emerald.NewGL(g.sys)
	if g.mesh, err = prepareScene(g.ctx, g.scene, opt.CS2Width, opt.CS2Height); err != nil {
		return nil, err
	}
	g.instr = sumCounters(g.reg, isWarpInstr)
	return g, nil
}

func (g *gpuFrames) prepare() error {
	g.fmem = mem.NewMemory()
	g.fctx = gl.NewContext(g.fmem, sample.DefaultHeapBase, sample.DefaultHeapSize)
	g.fctx.Submit = func(call *gpu.DrawCall) error { return gpu.ExecuteDrawFunc(g.fmem, call, nil) }
	opt := exp.Quick()
	var err error
	g.fmesh, err = prepareScene(g.fctx, g.scene, opt.CS2Width, opt.CS2Height)
	return err
}

// drawFrame issues frame i's GL calls.
func drawFrame(ctx *gl.Context, s *geom.Scene, mesh gl.MeshHandle, i int, aspect float32) error {
	ctx.Clear(0xFF101020, true)
	ctx.SetMVP(s.MVP(i, aspect))
	return ctx.DrawMesh(mesh)
}

func (g *gpuFrames) op(i int, sp spans) error {
	t0 := time.Now()
	if err := drawFrame(g.ctx, g.scene, g.mesh, i, g.aspect); err != nil {
		return err
	}
	sp.add("gl.submit", time.Since(t0))
	if _, err := g.sys.RunUntilIdle(frameBudget); err != nil {
		return err
	}
	g.frames++
	return nil
}

// surfaceSum hashes a context's colour and depth surfaces.
func surfaceSum(m *mem.Memory, ctx *gl.Context) [32]byte {
	h := sha256.New()
	h.Write(readSurface(m, ctx.ColorSurface()))
	h.Write(readSurface(m, ctx.DepthSurface()))
	var sum [32]byte
	h.Sum(sum[:0])
	return sum
}

// check records the detailed frame's surfaces for finish.
func (g *gpuFrames) check(int) error {
	g.sums = append(g.sums, surfaceSum(g.sys.Mem(), g.ctx))
	return nil
}

// finish renders every measured frame through the functional executor
// and compares its colour and depth surfaces with the detailed
// pipeline's.
func (g *gpuFrames) finish() ([]int, error) {
	var failed []int
	for i, want := range g.sums {
		if err := drawFrame(g.fctx, g.scene, g.fmesh, i, g.aspect); err != nil {
			return failed, err
		}
		if surfaceSum(g.fmem, g.fctx) != want {
			failed = append(failed, i)
		}
	}
	return failed, nil
}

func (g *gpuFrames) progress() (uint64, int, uint64) { return g.sys.Cycle(), g.frames, g.instr() }
func (g *gpuFrames) registry() *stats.Registry       { return g.reg }
func (g *gpuFrames) skipped() uint64                 { return g.sys.SkippedCycles() }
func (g *gpuFrames) digest() (string, error) {
	return stateDigest(g.reg, g.sys.Mem(), g.ctx.ColorSurface(), g.sys.Cycle())
}

// socRun drives a full SoC one app frame per operation: operation i
// runs until app frame i+1 completes.
type socRun struct {
	s     *soc.SoC
	instr func() uint64
}

// socWatchdog is the forward-progress window armed on SoC runs: a
// stretch this long with nothing moving fails the operation.
const socWatchdog = 4_000_000

// newSoCRun builds the SoC with idle skipping on. wheels switches every
// event wheel on, the DRAM channels' included, as exp does for the
// systems it builds; off leaves soc.New's defaults.
func newSoCRun(cfg soc.Config, wheels bool) (system, error) {
	// Frames grow one per operation; see op.
	cfg.Frames, cfg.WarmupFrames = 0, 0
	s, err := soc.New(cfg, stats.NewRegistry())
	if err != nil {
		return nil, err
	}
	s.SetWatchdog(socWatchdog)
	s.SetIdleSkip(true)
	if wheels {
		s.SetEventWheel(true)
	}
	return &socRun{s: s, instr: sumCounters(s.Reg, isWarpInstr)}, nil
}

// newSoCM1 builds the Case Study I system of exp at Quick scale with
// the M1 chair under DASH-DTB at the high-load DRAM rate. It repeats
// exp's unexported buildSoC because the benchmark must hand the system
// its own scene, with the seed's camera phase.
func newSoCM1(seed int64) (system, error) {
	scene, err := geom.SoCModel(geom.M1Chair)
	if err != nil {
		return nil, err
	}
	opt := exp.Quick()
	cfg := soc.DefaultConfig(withPhase(scene, seed))
	cfg.Width, cfg.Height = opt.Width, opt.Height
	cfg.GPU.Core.L1D.SizeBytes = 8 * 1024
	cfg.GPU.Core.L1T.SizeBytes = 16 * 1024
	cfg.GPU.Core.L1Z.SizeBytes = 16 * 1024
	cfg.GPU.Core.L1C.SizeBytes = 8 * 1024
	cfg.GPU.Core.LSUWidth = 2
	cfg.GPU.L2.SizeBytes = 64 * 1024
	cfg.DisplayPeriod = opt.DisplayPeriod
	cfg.AppPeriod = opt.AppPeriod
	dash := sched.DefaultDASHConfig(cfg.NumCPUs, true)
	dash.QuantumLength = opt.AppPeriod
	cfg.DRAM, cfg.DASH = sched.DASHDRAM("dram", dram.LPDDR3Geometry(2), dram.LPDDR3Timing(opt.HighMbps), dash)
	return newSoCRun(cfg, true)
}

// newSoCIdle builds the display-paced SoC of BenchmarkSoCIdleSkip: a
// small M2 cube frame, long display and app periods, idle background
// cores, and the event wheels as soc.New leaves them (the DRAM
// channels' off), as that benchmark runs it.
func newSoCIdle(seed int64) (system, error) {
	scene, err := geom.SoCModel(geom.M2Cube)
	if err != nil {
		return nil, err
	}
	cfg := soc.DefaultConfig(withPhase(scene, seed))
	cfg.Width, cfg.Height = 96, 72
	cfg.DisplayPeriod = 400_000
	cfg.AppPeriod = 800_000
	cfg.WorkingSetBytes = 16 * 1024
	cfg.ScenePasses = 1
	cfg.Background = make([]uint32, cfg.NumCPUs-1)
	return newSoCRun(cfg, false)
}

func (r *socRun) prepare() error         { return nil }
func (r *socRun) finish() ([]int, error) { return nil, nil }

func (r *socRun) op(i int, _ spans) error {
	r.s.Cfg.Frames = i + 1
	return r.s.Run(frameBudget)
}

func (r *socRun) check(i int) error {
	if n := len(r.s.Frames); n != i+1 {
		return fmt.Errorf("%d app frames completed, want %d", n, i+1)
	}
	// The display scans out from the first period on; by the end of
	// the second it must have been served.
	if r.s.Cycle() >= 2*r.s.Cfg.DisplayPeriod && r.s.Display.Served() == 0 {
		return fmt.Errorf("display served no requests in %d cycles", r.s.Cycle())
	}
	return nil
}

func (r *socRun) progress() (uint64, int, uint64) { return r.s.Cycle(), len(r.s.Frames), r.instr() }
func (r *socRun) registry() *stats.Registry       { return r.s.Reg }
func (r *socRun) skipped() uint64                 { return r.s.SkippedCycles() }
func (r *socRun) digest() (string, error) {
	return stateDigest(r.s.Reg, r.s.Mem, r.s.GL.ColorSurface(), r.s.Cycle())
}

// Sampled-workload parameters: the 480-frame W3 scenario at Smoke
// scale, k=3 regions of one frame, one worker.
const (
	sampledFrames = 480
	sampledK      = 3
	sampledSpan   = 1
	// sampledMaxErr is the estimate-error bound scripts/bench_sample.sh
	// gates on.
	sampledMaxErr = 0.25
	// checkpointStride is exp.RunSampled's checkpoint grid.
	checkpointStride = 4
)

// checkpointGrid is the frames exp.RunSampled's functional pass
// checkpoints.
func checkpointGrid() []int {
	var grid []int
	for f := 0; f < sampledFrames; f += checkpointStride {
		grid = append(grid, f)
	}
	return grid
}

// warmupStart is the first frame exp.RunSampled replays in detail for
// a region starting at start: exp.RegionWarmupFrames earlier, snapped
// down to the checkpoint grid.
func warmupStart(start int) int {
	w0 := max(start-exp.RegionWarmupFrames, 0)
	return w0 - w0%checkpointStride
}

// sampled runs exp.RunSampled once per operation. Its entry point
// takes only a workload id, so the seed changes nothing here.
type sampled struct {
	opt exp.Options
	// Set by prepare: the detailed truth run's cycles, the warp
	// instructions one exp.RunSampled replays in detail, and its digest.
	truthCycles uint64
	regionInstr uint64
	want        string

	res    *exp.SampledResult
	ops    int
	est    uint64 // estimated cycles summed over operations
	errPct float64
}

// newSampled sets up what precedes exp.RunSampled, which builds
// everything else from the workload id: the scale options and a check
// that the id names a scene.
func newSampled(int64) (system, error) {
	if _, err := geom.DFSLWorkload(geom.W3Cube); err != nil {
		return nil, err
	}
	return &sampled{opt: exp.Smoke()}, nil
}

// newReplay builds the standalone GPU exp.RunSampled replays regions
// on, at the default options, with a GL context that runs each draw
// to completion.
func newReplay(reg *stats.Registry) (*emerald.StandaloneGPU, *gl.Context) {
	sys := emerald.NewStandaloneGPU(reg)
	sys.SetIdleSkip(true)
	sys.SetEventWheel(true)
	ctx := gl.NewContext(sys.Mem(), sample.DefaultHeapBase, sample.DefaultHeapSize)
	ctx.Submit = func(call *gpu.DrawCall) error {
		if err := sys.GPU.SubmitDraw(call, nil); err != nil {
			return err
		}
		_, err := sys.RunUntilIdle(frameBudget)
		return err
	}
	ctx.OnClearDepth = sys.GPU.ClearHiZ
	return sys, ctx
}

// prepare renders the whole scenario in detail for the estimate's
// truth. It then runs exp.RunSampled once and replays each of its
// regions on a system of its own, to count the warp instructions the
// regions execute; each replay must end in the state exp.RunSampled
// reported for that region.
func (s *sampled) prepare() error {
	tr, err := exp.RecordWorkloadTrace(geom.W3Cube, sampledFrames, s.opt)
	if err != nil {
		return err
	}
	sys, ctx := newReplay(stats.NewRegistry())
	if err := trace.Replay(tr, ctx, trace.ReplayAll()); err != nil {
		return err
	}
	s.truthCycles = sys.Cycle()

	res, err := exp.RunSampled(geom.W3Cube, sampledFrames, sampledK, sampledSpan, 1, s.opt)
	if err != nil {
		return err
	}
	pass, err := sample.Pass(tr, sample.PassConfig{CheckpointAt: checkpointGrid()})
	if err != nil {
		return err
	}
	for _, r := range res.Results {
		n, err := regionInstr(tr, pass.Checkpoints[warmupStart(r.Start)], r)
		if err != nil {
			return err
		}
		s.regionInstr += n
	}
	s.want = sampledDigest(res)
	return nil
}

// regionInstr replays region r as exp.RunSampled does, from checkpoint
// cp, and returns the warp instructions it executed.
func regionInstr(tr *trace.Trace, cp *trace.Checkpoint, r *exp.RegionResult) (uint64, error) {
	reg := stats.NewRegistry()
	sys, ctx := newReplay(reg)
	var resumeErr error
	var mark uint64
	run := &sample.RegionRun{
		Trace: tr, CP: cp, Start: r.Start, Span: r.Span,
		Warmup: r.Start - warmupStart(r.Start),
		Ctx:    ctx, Mem: sys.Mem(),
		OnRestore: func() {
			sys.GPU.ClearHiZ()
			resumeErr = sys.ResumeAt(cp.Cycle)
			mark = sys.Cycle()
		},
		Drain: func(int) (uint64, error) {
			c := sys.Cycle()
			d := c - mark
			mark = c
			return d, resumeErr
		},
	}
	if _, err := run.Run(); err != nil {
		return 0, fmt.Errorf("region at frame %d: %w", r.Start, err)
	}
	d, err := stateDigest(reg, sys.Mem(), ctx.ColorSurface(), sys.Cycle())
	if err != nil {
		return 0, err
	}
	if d != r.Digest {
		return 0, fmt.Errorf("region at frame %d: replay digest %s, exp.RunSampled's %s", r.Start, d, r.Digest)
	}
	return sumCounters(reg, isWarpInstr)(), nil
}

func (s *sampled) op(int, spans) error {
	res, err := exp.RunSampled(geom.W3Cube, sampledFrames, sampledK, sampledSpan, 1, s.opt)
	if err != nil {
		return err
	}
	s.res = res
	s.ops++
	s.est += res.Estimate.TotalCycles
	return nil
}

// check bounds the estimate's error against the detailed truth and
// requires every operation to reproduce the result prepare replayed.
func (s *sampled) check(int) error {
	est := float64(s.res.Estimate.TotalCycles)
	s.errPct = 100 * math.Abs(est-float64(s.truthCycles)) / float64(s.truthCycles)
	if s.errPct > 100*sampledMaxErr {
		return fmt.Errorf("estimate %.0f cycles is %.2f%% off the detailed %d", est, s.errPct, s.truthCycles)
	}
	if d := sampledDigest(s.res); d != s.want {
		return fmt.Errorf("digest %s differs from the prepared run's %s", d, s.want)
	}
	return nil
}

func (s *sampled) finish() ([]int, error) { return nil, nil }

// progress counts per operation the scenario's estimated cycles, its
// frames, and the warp instructions of the regions exp.RunSampled
// replays in detail, warm-up frames included.
func (s *sampled) progress() (uint64, int, uint64) {
	return s.est, s.ops * sampledFrames, uint64(s.ops) * s.regionInstr
}

// registry is nil: exp.RunSampled keeps its regions' registries to
// itself.
func (s *sampled) registry() *stats.Registry { return nil }
func (s *sampled) skipped() uint64           { return 0 }
func (s *sampled) digest() (string, error)   { return sampledDigest(s.res), nil }

// sampledDigest hashes every region's end-state digest and the
// estimate.
func sampledDigest(res *exp.SampledResult) string {
	h := sha256.New()
	for _, r := range res.Results {
		fmt.Fprintf(h, "%d:%s\n", r.Start, r.Digest)
	}
	fmt.Fprintf(h, "estimate=%d", res.Estimate.TotalCycles)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// layerSpans times the sampled pipeline's stages through their public
// entry points and the trace layer's checkpoint round trip on the
// functional pass's checkpoints.
func (s *sampled) layerSpans(sp spans) (map[string]float64, error) {
	t0 := time.Now()
	tr, err := exp.RecordWorkloadTrace(geom.W3Cube, sampledFrames, s.opt)
	if err != nil {
		return nil, err
	}
	sp.add("sample.record", time.Since(t0))
	grid := checkpointGrid()
	t0 = time.Now()
	pass, err := sample.Pass(tr, sample.PassConfig{CheckpointAt: grid})
	if err != nil {
		return nil, err
	}
	sp.add("sample.pass", time.Since(t0))
	t0 = time.Now()
	regions, err := sample.SelectRegions(pass.Frames, sampledK)
	if err != nil {
		return nil, err
	}
	sp.add("sample.select", time.Since(t0))

	var kb float64
	for _, f := range grid {
		cp := pass.Checkpoints[f]
		var buf bytes.Buffer
		t0 = time.Now()
		if err := cp.Save(&buf); err != nil {
			return nil, err
		}
		sp.add("trace.checkpoint_save", time.Since(t0))
		kb += float64(buf.Len()) / 1024
		t0 = time.Now()
		loaded, err := trace.LoadCheckpoint(&buf)
		if err != nil {
			return nil, err
		}
		sp.add("trace.checkpoint_load", time.Since(t0))
		m := mem.NewMemory()
		t0 = time.Now()
		loaded.RestoreMemory(m)
		sp.add("trace.checkpoint_restore", time.Since(t0))
	}

	// Measured frames over frames replayed in detail: each region
	// replays from its checkpoint-grid warm-up start.
	var measured, replayed int
	for _, r := range regions {
		n := min(sampledSpan, sampledFrames-r.Frame)
		measured += n
		replayed += n + r.Frame - warmupStart(r.Frame)
	}
	return map[string]float64{
		"trace.checkpoint_kb":        kb / float64(len(grid)),
		"sample.useful_detail_ratio": float64(measured) / float64(replayed),
		"sample.error_pct":           s.errPct,
	}, nil
}
