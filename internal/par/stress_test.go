package par

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// stressRuns bounds the reuse stress loops: a lost completion used to
// hang within about 2M Runs of a 4-task group on 4 workers.
func stressRuns() int {
	if testing.Short() {
		return 50_000
	}
	return 1_000_000
}

// withProcs runs f under GOMAXPROCS n and restores the old setting.
func withProcs(n int, f func()) {
	old := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(old)
	f()
}

// finishWithin fails the test if f does not return within d: a lost
// completion leaves Run spinning forever, which must show up as a
// failure rather than as the package timing out.
func finishWithin(t *testing.T, d time.Duration, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("no completion within %v: Run lost a task completion", d)
	}
}

// TestGroupReuseStress reruns one 4-task group back to back on a
// 4-worker pool. Workers still inside the previous Run of the same
// group race with the next Run's reset; every Run must still see all
// four tasks complete exactly once.
func TestGroupReuseStress(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		withProcs(procs, func() {
			p := NewPool(4)
			defer p.Close()
			var counts [4]atomic.Int64
			g := NewGroup(p, []func(){
				func() { counts[0].Add(1) },
				func() { counts[1].Add(1) },
				func() { counts[2].Add(1) },
				func() { counts[3].Add(1) },
			})
			runs := stressRuns()
			finishWithin(t, time.Minute, func() {
				for r := 1; r <= runs; r++ {
					g.Run()
					for i := range counts {
						if v := counts[i].Load(); v != int64(r) {
							t.Errorf("GOMAXPROCS=%d run %d: task %d ran %d times", procs, r, i, v)
							return
						}
					}
				}
			})
		})
	}
}

// TestWheelReuseStress drives the wheel's Arm/Wake protocol the way the
// tick engine does, on reused groups: one phase in which each shard
// re-arms only the slot it owns (moving it later every phase), then a
// phase in which every shard Wakes every slot concurrently. Between
// phases each slot must hold exactly the armed value, then the minimum
// of the armed value and every Wake aimed at it.
func TestWheelReuseStress(t *testing.T) {
	const slots = 4
	for _, procs := range []int{1, 2, 4} {
		withProcs(procs, func() {
			p := NewPool(4)
			defer p.Close()
			w := NewWheel(slots)
			var base uint64
			arm := make([]func(), slots)
			wake := make([]func(), slots)
			for s := range arm {
				s := uint64(s)
				arm[s] = func() { w.Arm(int(s), base+90) }
				wake[s] = func() {
					for o := uint64(0); o < slots; o++ {
						// Shard s wakes slot o at base+40+10*((s+o)%4)+o,
						// one of them (s+o == 6) later than the arm.
						off := 40 + 10*((s+o)%slots) + o
						if s+o == 6 {
							off = 95
						}
						w.Wake(int(o), base+off)
					}
				}
			}
			ga, gw := NewGroup(p, arm), NewGroup(p, wake)
			runs := stressRuns() / 2
			finishWithin(t, time.Minute, func() {
				for r := 1; r <= runs; r++ {
					base = uint64(r) * 100
					ga.Run()
					for s := 0; s < slots; s++ {
						if got := w.At(s); got != base+90 {
							t.Errorf("GOMAXPROCS=%d phase %d: slot %d armed at %d, want %d", procs, r, s, got, base+90)
							return
						}
					}
					gw.Run()
					for s := 0; s < slots; s++ {
						// The smallest offset aimed at slot o is 40+o.
						if got, want := w.At(s), base+40+uint64(s); got != want {
							t.Errorf("GOMAXPROCS=%d phase %d: slot %d woken to %d, want %d", procs, r, s, got, want)
							return
						}
					}
					if got := w.Min(); got != base+40 {
						t.Errorf("GOMAXPROCS=%d phase %d: Min %d, want %d", procs, r, got, base+40)
						return
					}
				}
			})
		})
	}
}
