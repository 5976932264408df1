package simt

import (
	"strings"
	"testing"

	"emerald/internal/guard"
	"emerald/internal/shader"
)

// guardProg parks a warp at a spin so it stays live while the test
// corrupts its reconvergence stack.
var guardProg = shader.MustAssemble("guard_spin", shader.KindCompute, `
	movs r0, %tid
	exit
`)

// Hand-corrupting a live warp's SIMT stack must trip the simt probe:
// a pushed mask outside the launch mask means divergence created lanes
// from nothing, and an empty stack means control state was lost.
func TestGuardDetectsCorruptSIMTStack(t *testing.T) {
	env := newTestEnv()
	c := NewCore(DefaultCoreConfig(), nil)
	g := guard.NewChecker()
	c.AttachGuard(g)

	w := launch(t, c, guardProg, env, 0x1, nil)
	g.Tick(0)
	if v := g.Violations(); len(v) != 0 {
		t.Fatalf("healthy warp reported violations: %v", v)
	}

	// A stack level activating lanes the warp was never launched with.
	w.stack = append(w.stack, stackEntry{mask: 0x2})
	g.Tick(1)
	v := g.Violations()
	if len(v) != 1 || !strings.Contains(v[0].Detail, "escapes bottom mask") {
		t.Fatalf("violations = %v, want an escaped-mask violation", v)
	}
	if !strings.Contains(v[0].Detail, "warp") {
		t.Fatalf("violation does not name the warp: %v", v[0])
	}
}

func TestGuardDetectsEmptyStackOnLiveWarp(t *testing.T) {
	env := newTestEnv()
	c := NewCore(DefaultCoreConfig(), nil)
	g := guard.NewChecker()
	c.AttachGuard(g)

	w := launch(t, c, guardProg, env, FullMask, nil)
	w.stack = w.stack[:0]
	g.Tick(0)
	v := g.Violations()
	if len(v) != 1 || !strings.Contains(v[0].Detail, "empty SIMT stack") {
		t.Fatalf("violations = %v, want an empty-stack violation", v)
	}
}

func TestGuardDetectsNegativeOutstanding(t *testing.T) {
	env := newTestEnv()
	c := NewCore(DefaultCoreConfig(), nil)
	g := guard.NewChecker()
	c.AttachGuard(g)

	w := launch(t, c, guardProg, env, FullMask, nil)
	w.outstanding = -1
	g.Tick(0)
	v := g.Violations()
	if len(v) != 1 || !strings.Contains(v[0].Detail, "negative outstanding") {
		t.Fatalf("violations = %v, want a negative-outstanding violation", v)
	}
}

// A retired warp goes to the core's free list; putting it back in
// reach of the scheduler or a writeback event must trip the recycling
// audit rather than let its reuse corrupt a live warp.
func TestGuardDetectsReachableFreeWarp(t *testing.T) {
	env := newTestEnv()
	c := NewCore(DefaultCoreConfig(), nil)
	g := guard.NewChecker()
	c.AttachGuard(g)

	w := launch(t, c, guardProg, env, FullMask, nil)
	end := runCore(t, c, 1000)
	if len(c.freeWarps) != 1 || c.freeWarps[0] != w {
		t.Fatalf("retired warp not recycled: free list %v", c.freeWarps)
	}
	g.Tick(end)
	if v := g.Violations(); len(v) != 0 {
		t.Fatalf("healthy free list reported violations: %v", v)
	}

	c.events = append(c.events, wbEvent{at: end + 10, warp: w})
	g.Tick(end + 1)
	v := g.Violations()
	if len(v) != 1 || !strings.Contains(v[0].Detail, "named by a writeback event") {
		t.Fatalf("violations = %v, want a free-listed warp named by an event", v)
	}
	c.events = c.events[:0]

	c.warps = append(c.warps, w)
	g.Tick(end + 2)
	v = g.Violations()
	if len(v) != 2 || !strings.Contains(v[1].Detail, "is resident") {
		t.Fatalf("violations = %v, want a resident free-listed warp", v)
	}
}
