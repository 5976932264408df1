package simt

import (
	"testing"

	"emerald/internal/shader"
)

// issueRetire runs one warp of prog through the core's issue and retire
// bookkeeping: Launch, execute every instruction, complete each queued
// transaction as a one-cycle hit, drain the writeback events and reap.
// The caches are left out on purpose: a write-through store's
// downstream mem.Request belongs to the cache and the memory system,
// and the cache's own allocation test pins it.
func issueRetire(t *testing.T, c *Core, prog *shader.Program, env WarpEnv, cycle *uint64) {
	var sp [WarpSize]shader.Special
	for i := range sp {
		sp[i] = shader.Special{TID: uint32(i), NTID: WarpSize}
	}
	w, err := c.Launch(prog, env, -1, FullMask, sp, nil)
	if err != nil {
		t.Fatal(err)
	}
	for !w.done {
		*cycle++
		c.execute(w, *cycle)
		for c.txQueue.len() > 0 {
			c.finishTx(c.txQueue.front(), *cycle, 1)
			c.txQueue.pop()
		}
		for _, e := range c.events {
			c.completeEvent(e, *cycle)
		}
		c.events = c.events[:0]
	}
	c.curCycle = *cycle
	c.reap()
}

// TestMemOpIssueRetireAllocFree pins the detailed busy path's
// steady-state allocation count at zero: once a core is warmed, issuing
// and retiring a warp's memory instruction reuses the warp, its
// scoreboard record, the LSU queue, the scratch address slices and the
// memOp.
func TestMemOpIssueRetireAllocFree(t *testing.T) {
	const prologue = `
		movs r0, %tid
		shl  r2, r0, 2
		mov  r1, 0.5
	`
	cases := []struct{ name, body string }{
		{"LdGlobal", "ldg r4, [r2]"},
		{"Tex4", "tex4 r4, 0, r1, r1"},
		{"ZLd", "zld r8"},
		{"ZSt", "zst r1"},
		{"FBSt", "fbst r1"},
		{"Out4", "out4 0, r0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			kind := shader.KindFragment
			if tc.name == "Out4" {
				kind = shader.KindVertex
			}
			prog := shader.MustAssemble(tc.name, kind, prologue+tc.body+"\nexit\n")
			env := &vsEnv{testEnv: newTestEnv(), onOut: func() {}}
			c := NewCore(DefaultCoreConfig(), nil)
			var cycle uint64
			for i := 0; i < 4; i++ {
				issueRetire(t, c, prog, env, &cycle) // warm: pages, scratch, free lists
			}
			if n := testing.AllocsPerRun(100, func() { issueRetire(t, c, prog, env, &cycle) }); n != 0 {
				t.Fatalf("%s: %v allocations per warp, want 0", tc.name, n)
			}
			if len(c.freeWarps) != 1 || len(c.freeOps) > 1 {
				t.Fatalf("%s: free lists hold %d warps, %d memOps; want 1 and at most 1",
					tc.name, len(c.freeWarps), len(c.freeOps))
			}
		})
	}
}

// TestWarpLifecycleAllocFree runs whole warps through Tick on a warmed
// core whose L1s hit: launch, scheduling, L1D/L1T/L1Z hits, writeback
// events, reap and recycling together must not allocate.
func TestWarpLifecycleAllocFree(t *testing.T) {
	env := newTestEnv()
	env.texVal = [4]float32{1, 0, 0, 1}
	c := NewCore(DefaultCoreConfig(), nil)
	prog := shader.MustAssemble("lifecycle", shader.KindFragment, `
		movs r0, %tid
		shl  r2, r0, 2
		ldg  r3, [r2]
		tex4 r4, 0, r3, r3
		zld  r8
		add  r9, r8, r4
		zst  r9
		exit
	`)
	var cycle uint64
	run := func() {
		launch(t, c, prog, env, FullMask, nil)
		for {
			cycle++
			c.Tick(cycle)
			for r := c.Out.Pop(); r != nil; r = c.Out.Pop() {
				r.Complete(cycle)
			}
			if c.Idle() {
				return
			}
		}
	}
	for i := 0; i < 4; i++ {
		run() // warm: compulsory misses, pages, scratch, free lists
	}
	if n := testing.AllocsPerRun(100, run); n != 0 {
		t.Fatalf("%v allocations per warp lifecycle, want 0", n)
	}
}

// tickUntil ticks c with an ideal next memory level until done reports
// true, failing after budget cycles.
func tickUntil(t *testing.T, c *Core, cycle *uint64, budget uint64, done func() bool) {
	t.Helper()
	for end := *cycle + budget; *cycle < end; {
		*cycle++
		c.Tick(*cycle)
		for r := c.Out.Pop(); r != nil; r = c.Out.Pop() {
			r.Complete(*cycle)
		}
		if done() {
			return
		}
	}
	t.Fatalf("condition not reached within %d cycles", budget)
}

// A warp that exits while one of its ALU writebacks is still pending is
// not recycled: the event would later unlock a register of whichever
// warp reused the struct.
func TestPendingWritebackBlocksRecycle(t *testing.T) {
	env := newTestEnv()
	c := NewCore(DefaultCoreConfig(), nil)
	launch(t, c, shader.MustAssemble("wb_exit", shader.KindFragment, `
		mov r1, 1.0
		exit
	`), env, FullMask, nil)
	var cycle uint64
	tickUntil(t, c, &cycle, 100, func() bool { return c.ActiveWarps() == 0 })
	if len(c.events) == 0 {
		t.Fatal("the mov writeback retired before the warp; the test needs it pending")
	}
	if len(c.freeWarps) != 0 {
		t.Fatal("warp recycled while a writeback event still names it")
	}
}

// A compute warp is recycled only when its whole block is gone: barrier
// release writes to every warp of the block, retired ones included, so
// a retired warp reused by another block would be released from its
// own barrier early. Block 1's first warp exits at once and its sibling
// reaches bar later; block 2 launches in between, and its reader must
// still wait at its barrier for its slow writer's shared-memory store.
func TestBarrierReleaseSkipsRetiredSiblings(t *testing.T) {
	chain := func(n int) string {
		s := "mov r9, 1.0\n"
		for i := 0; i < n; i++ {
			s += "add r9, r9, 1.0\n"
		}
		return s
	}
	exitNow := shader.MustAssemble("exit_now", shader.KindCompute, "exit")
	slowBar := shader.MustAssemble("slow_bar", shader.KindCompute, chain(30)+"bar\nexit\n")
	reader := shader.MustAssemble("reader", shader.KindCompute, `
		movs r0, %tid
		shl  r1, r0, 2
		bar
		lds  r2, [r1]
		exit
	`)
	writer := shader.MustAssemble("writer", shader.KindCompute, chain(60)+`
		movs r0, %tid
		shl  r1, r0, 2
		cvt.i2f r2, r0
		add  r2, r2, 1.0
		sts  [r1], r2
		bar
		exit
	`)
	env := newTestEnv()
	c := NewCore(DefaultCoreConfig(), nil)
	var sp [WarpSize]shader.Special
	for i := range sp {
		sp[i] = shader.Special{TID: uint32(i)}
	}
	mustLaunch := func(p *shader.Program, block int) *Warp {
		w, err := c.Launch(p, env, block, FullMask, sp, nil)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	mustLaunch(exitNow, 1)
	mustLaunch(slowBar, 1)
	var cycle uint64
	tickUntil(t, c, &cycle, 100, func() bool { return c.ActiveWarps() == 1 })
	r := mustLaunch(reader, 2)
	mustLaunch(writer, 2)
	tickUntil(t, c, &cycle, 10000, c.Idle)
	for lane := 0; lane < WarpSize; lane++ {
		if got, want := r.Threads[lane].F(shader.R(2)), float32(lane+1); got != want {
			t.Fatalf("lane %d read %v from shared memory, want %v: the reader passed its barrier early", lane, got, want)
		}
	}
}
