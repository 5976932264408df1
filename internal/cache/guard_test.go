package cache

import (
	"errors"
	"strings"
	"testing"

	"emerald/internal/guard"
	"emerald/internal/mem"
)

// A healthy miss keeps the MSHR/in-flight pairing balanced; severing it
// by hand must trip the MSHR-leak probe and surface through Err().
func TestGuardDetectsMSHRLeak(t *testing.T) {
	c := New(testConfig(), nil)
	g := guard.NewChecker()
	c.AttachGuard(g, "l1")

	if res := c.Access(0, 0x100, mem.Read, "w1"); res != Miss {
		t.Fatalf("access = %v, want miss", res)
	}
	g.Tick(0)
	if v := g.Violations(); len(v) != 0 {
		t.Fatalf("healthy cache reported violations: %v", v)
	}

	// Corrupt the bookkeeping: the fill vanishes but its MSHR stays
	// live, so the waiters would wedge forever.
	c.inflight = nil
	g.Tick(1)
	v := g.Violations()
	if len(v) != 1 || !strings.Contains(v[0].Detail, "MSHR leak") {
		t.Fatalf("violations = %v, want one MSHR leak", v)
	}
	if v[0].Source != "cache" || v[0].Name != "l1" || v[0].Cycle != 1 {
		t.Fatalf("violation attribution = %+v", v[0])
	}
	if err := g.Err(); !errors.Is(err, guard.ErrInvariant) {
		t.Fatalf("Err() = %v, want ErrInvariant", err)
	}
}

// An in-flight fill with no MSHR is the inverse leak.
func TestGuardDetectsOrphanFill(t *testing.T) {
	c := New(testConfig(), nil)
	g := guard.NewChecker()
	c.AttachGuard(g, "l1")
	if res := c.Access(0, 0x100, mem.Read, nil); res != Miss {
		t.Fatalf("access = %v, want miss", res)
	}
	// Duplicate the fill: counts diverge.
	c.inflight = append(c.inflight, c.inflight[0])
	g.Tick(0)
	if v := g.Violations(); len(v) != 1 {
		t.Fatalf("violations = %v, want exactly one", v)
	}
}

// A filled miss releases its MSHR to the free list; a waiter left on a
// free-listed MSHR must trip the recycling audit.
func TestGuardDetectsDirtyFreeMSHR(t *testing.T) {
	c := New(testConfig(), nil)
	g := guard.NewChecker()
	c.AttachGuard(g, "l1")
	if res := c.Access(0, 0x100, mem.Read, "w1"); res != Miss {
		t.Fatalf("access = %v, want miss", res)
	}
	r := c.Out.Pop()
	r.Complete(5)
	c.Tick(6)
	if len(c.freeMSHRs) != 1 {
		t.Fatalf("free MSHRs = %d after the fill, want 1", len(c.freeMSHRs))
	}
	g.Tick(6)
	if v := g.Violations(); len(v) != 0 {
		t.Fatalf("healthy free list reported violations: %v", v)
	}
	c.freeMSHRs[0].waiters = append(c.freeMSHRs[0].waiters, "stale")
	g.Tick(7)
	v := g.Violations()
	if len(v) != 1 || !strings.Contains(v[0].Detail, "still holds 1 waiters") {
		t.Fatalf("violations = %v, want a free-listed MSHR with waiters", v)
	}
}
