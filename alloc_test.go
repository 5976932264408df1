package emerald

import (
	"testing"

	"emerald/internal/geom"
)

// frameW3AllocCeiling is the steady-state heap allocation budget of one
// W3 frame on the standalone GPU. Frames 2-5 of the orbit measure about
// 11.8k allocations each, mostly mem.Requests, raster fragments and
// tile-coalescer records; the ceiling is that plus 10%. The detailed
// SIMT core and its L1s allocate nothing in steady state, and a
// regression there fails this tier-1 test rather than only moving the
// benchmark's runtime.allocs_per_frame.
const frameW3AllocCeiling = 13_000

func TestFrameW3AllocCeiling(t *testing.T) {
	sys := NewStandaloneGPU(nil)
	render := frameRenderer(t, sys, geom.W3Cube)
	frame := 0
	next := func() {
		render(frame)
		frame++
	}
	for i := 0; i < 2; i++ {
		next() // warm: caches' free lists, core scratch, pages
	}
	n := testing.AllocsPerRun(4, next)
	t.Logf("%.0f allocations per W3 frame (ceiling %d)", n, frameW3AllocCeiling)
	if n > frameW3AllocCeiling {
		t.Fatalf("%.0f allocations per W3 frame, ceiling %d", n, frameW3AllocCeiling)
	}
}
