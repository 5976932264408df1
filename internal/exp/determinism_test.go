package exp

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"emerald/internal/dram"
	"emerald/internal/geom"
	"emerald/internal/gl"
	"emerald/internal/gpu"
	"emerald/internal/par"
	"emerald/internal/shader"
	"emerald/internal/stats"
)

// The parallel tick engine must be bit-identical to the sequential
// engine: every counter, every framebuffer byte, every reported frame
// time. These tests hash the complete observable state of a run —
// stats registry, framebuffer, final cycle, results summary — and
// demand equality between -workers 1 and -workers 4.

// socStateDigest runs one Case Study I cell and hashes its observable
// end state.
func socStateDigest(t *testing.T, model int, cfg MemConfig, pool *par.Pool, noSkip, noWheel bool) string {
	t.Helper()
	opt := Quick()
	if testing.Short() {
		// Race-detector runs (scripts/check.sh uses -race -short) pay
		// ~20x per simulated cycle; one frame still exercises every
		// shard boundary.
		opt.Frames, opt.WarmupFrames = 1, 0
	}
	opt.Pool = pool
	opt.NoSkip = noSkip
	opt.NoWheel = noWheel
	return socDigest(t, model, cfg, opt)
}

// socDigest runs one Case Study I cell under opt and hashes its
// observable end state.
func socDigest(t *testing.T, model int, cfg MemConfig, opt Options) string {
	t.Helper()
	reg := stats.NewRegistry()
	s, err := buildSoC(model, cfg, opt.RegularMbps, opt, reg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(opt.BudgetCycles); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.DumpJSON(&buf); err != nil {
		t.Fatal(err)
	}
	fb := make([]byte, 3*opt.Width*opt.Height*4)
	s.Mem.Read(0x8000_0000, fb)
	h := sha256.New()
	h.Write(buf.Bytes())
	h.Write(fb)
	fmt.Fprintf(h, "cycle=%d res=%+v", s.Cycle(), s.Results("digest"))
	return fmt.Sprintf("%x", h.Sum(nil))
}

// standaloneStateDigest renders two DFSL frames on the standalone GPU
// and hashes the observable end state.
func standaloneStateDigest(t *testing.T, pool *par.Pool, noSkip, noWheel bool) string {
	t.Helper()
	return standaloneFramesDigest(t, pool, noSkip, noWheel, 2)
}

// standaloneFramesDigest renders frames W3 frames on the standalone
// GPU and hashes the observable end state.
func standaloneFramesDigest(t *testing.T, pool *par.Pool, noSkip, noWheel bool, frames int) string {
	t.Helper()
	cfg := gpu.CaseStudyIIConfig()
	sys := gpu.NewStandalone(cfg, dram.Config{
		Geometry: dram.LPDDR3Geometry(4),
		Timing:   dram.LPDDR3Timing(1600),
	}, nil)
	sys.SetParallel(pool)
	sys.SetIdleSkip(!noSkip)
	sys.SetEventWheel(!noWheel)
	ctx := gl.NewContext(sys.Mem(), 0x1000_0000, 256<<20)
	ctx.Submit = func(call *gpu.DrawCall) error { return sys.GPU.SubmitDraw(call, nil) }
	ctx.OnClearDepth = sys.GPU.ClearHiZ
	scene, err := geom.DFSLWorkload(geom.W3Cube)
	if err != nil {
		t.Fatal(err)
	}
	ctx.Viewport(160, 120)
	if err := ctx.UseProgram(shader.VSTransform, shader.FSTexturedEarlyZ); err != nil {
		t.Fatal(err)
	}
	tex, err := ctx.UploadTexture(scene.Texture)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.BindTexture(0, tex); err != nil {
		t.Fatal(err)
	}
	mesh, err := ctx.UploadMesh(scene.Mesh)
	if err != nil {
		t.Fatal(err)
	}
	for frame := 0; frame < frames; frame++ {
		ctx.Clear(0xFF101020, true)
		ctx.SetMVP(scene.MVP(frame, 160.0/120.0))
		if err := ctx.DrawMesh(mesh); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.RunUntilIdle(4_000_000_000); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := sys.Reg.DumpJSON(&buf); err != nil {
		t.Fatal(err)
	}
	cs := ctx.ColorSurface()
	fb := make([]byte, cs.Width*cs.Height*4)
	sys.Mem().Read(cs.Base, fb)
	h := sha256.New()
	h.Write(buf.Bytes())
	h.Write(fb)
	fmt.Fprintf(h, "cycle=%d", sys.Cycle())
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestParallelDeterminismSoC checks the full-SoC path (memstudy
// workloads): CPU/display shards, GPU clusters, DRAM channels.
func TestParallelDeterminismSoC(t *testing.T) {
	pool := par.NewPool(4)
	defer pool.Close()
	cases := []struct {
		model int
		cfg   MemConfig
	}{
		{geom.M2Cube, BAS},
		{geom.M1Chair, DTB},
	}
	if testing.Short() {
		cases = cases[:1]
	}
	for _, c := range cases {
		seq := socStateDigest(t, c.model, c.cfg, nil, false, false)
		parl := socStateDigest(t, c.model, c.cfg, pool, false, false)
		t.Logf("%s/%s state digest: %s", modelName(c.model), c.cfg, seq)
		if seq != parl {
			t.Errorf("%s/%s: workers=1 digest %s != workers=4 digest %s",
				modelName(c.model), c.cfg, seq, parl)
		}
	}
}

// TestParallelDeterminismStandalone checks the standalone-GPU path
// (dfsl workloads): cluster shards and DRAM channels.
func TestParallelDeterminismStandalone(t *testing.T) {
	pool := par.NewPool(4)
	defer pool.Close()
	seq := standaloneStateDigest(t, nil, false, false)
	parl := standaloneStateDigest(t, pool, false, false)
	t.Logf("standalone W3 state digest: %s", seq)
	if seq != parl {
		t.Errorf("workers=1 digest %s != workers=4 digest %s", seq, parl)
	}
}

// TestSkipDeterminismSoC checks that event-driven idle cycle-skipping
// is invisible: the complete observable end state of a run (registry
// JSON, framebuffer, final cycle, results) must be bit-identical with
// skipping on and off, under both the sequential and the parallel tick
// engine. Per-component idle gating applies in both modes, so the only
// difference the skip arm may introduce is which cycles the top-level
// loop visits — and those must all be no-ops.
func TestSkipDeterminismSoC(t *testing.T) {
	pool := par.NewPool(4)
	defer pool.Close()
	cases := []struct {
		model int
		cfg   MemConfig
	}{
		{geom.M2Cube, BAS},
		{geom.M1Chair, DTB},
	}
	if testing.Short() {
		cases = cases[:1]
	}
	for _, c := range cases {
		for _, tc := range []struct {
			name string
			pool *par.Pool
		}{{"workers1", nil}, {"workers4", pool}} {
			skip := socStateDigest(t, c.model, c.cfg, tc.pool, false, false)
			noskip := socStateDigest(t, c.model, c.cfg, tc.pool, true, false)
			if skip != noskip {
				t.Errorf("%s/%s %s: skip digest %s != no-skip digest %s",
					modelName(c.model), c.cfg, tc.name, skip, noskip)
			}
		}
	}
}

// TestSkipDeterminismStandalone is the standalone-GPU (dfsl W3)
// counterpart of TestSkipDeterminismSoC.
func TestSkipDeterminismStandalone(t *testing.T) {
	pool := par.NewPool(4)
	defer pool.Close()
	for _, tc := range []struct {
		name string
		pool *par.Pool
	}{{"workers1", nil}, {"workers4", pool}} {
		skip := standaloneStateDigest(t, tc.pool, false, false)
		noskip := standaloneStateDigest(t, tc.pool, true, false)
		if skip != noskip {
			t.Errorf("%s: skip digest %s != no-skip digest %s", tc.name, skip, noskip)
		}
	}
}

// TestWheelDeterminismSoC checks that the per-shard event wheel is
// invisible: parking a CPU core, the display, a GPU cluster or a DRAM
// channel must only elide ticks that were gated no-ops anyway, so the
// complete observable end state matches a run that ticked every shard
// every cycle — under both the sequential and the parallel engine.
func TestWheelDeterminismSoC(t *testing.T) {
	pool := par.NewPool(4)
	defer pool.Close()
	cases := []struct {
		model int
		cfg   MemConfig
	}{
		{geom.M2Cube, BAS},
		{geom.M1Chair, DTB},
	}
	if testing.Short() {
		cases = cases[:1]
	}
	for _, c := range cases {
		for _, tc := range []struct {
			name string
			pool *par.Pool
		}{{"workers1", nil}, {"workers4", pool}} {
			wheel := socStateDigest(t, c.model, c.cfg, tc.pool, false, false)
			nowheel := socStateDigest(t, c.model, c.cfg, tc.pool, false, true)
			if wheel != nowheel {
				t.Errorf("%s/%s %s: wheel digest %s != no-wheel digest %s",
					modelName(c.model), c.cfg, tc.name, wheel, nowheel)
			}
		}
	}
}

// TestWheelDeterminismStandalone is the standalone-GPU (dfsl W3)
// counterpart of TestWheelDeterminismSoC.
func TestWheelDeterminismStandalone(t *testing.T) {
	pool := par.NewPool(4)
	defer pool.Close()
	for _, tc := range []struct {
		name string
		pool *par.Pool
	}{{"workers1", nil}, {"workers4", pool}} {
		wheel := standaloneStateDigest(t, tc.pool, false, false)
		nowheel := standaloneStateDigest(t, tc.pool, false, true)
		if wheel != nowheel {
			t.Errorf("%s: wheel digest %s != no-wheel digest %s", tc.name, wheel, nowheel)
		}
	}
}
