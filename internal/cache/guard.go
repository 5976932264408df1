package cache

import (
	"fmt"

	"emerald/internal/guard"
)

// AttachGuard registers this cache's MSHR-accounting invariants under
// the given probe name (e.g. "core0_0.l1d"). Safe with a nil checker.
func (c *Cache) AttachGuard(g *guard.Checker, name string) {
	g.Register("cache", name, c.checkInvariants)
}

// checkInvariants verifies the MSHR bookkeeping that every fill path
// relies on: live MSHRs never exceed capacity, each MSHR has exactly
// one in-flight fill request (and vice versa — a broken pairing is an
// MSHR leak: the line would never fill and its waiters would wedge),
// merged waiters respect the per-line target cap, and no free-listed
// MSHR is still in use.
func (c *Cache) checkInvariants(cycle uint64) error {
	if len(c.mshrs) > c.cfg.MSHRs {
		return fmt.Errorf("%d MSHRs live, capacity %d", len(c.mshrs), c.cfg.MSHRs)
	}
	if len(c.inflight) != len(c.mshrs) {
		return fmt.Errorf("MSHR leak: %d MSHRs vs %d in-flight fills", len(c.mshrs), len(c.inflight))
	}
	for _, req := range c.inflight {
		if _, ok := c.mshrs[req.Addr]; !ok {
			return fmt.Errorf("in-flight fill of line %#x has no MSHR", req.Addr)
		}
	}
	for la, m := range c.mshrs {
		if len(m.waiters) > c.cfg.MSHRTargets {
			return fmt.Errorf("MSHR %#x holds %d waiters, cap %d", la, len(m.waiters), c.cfg.MSHRTargets)
		}
	}
	// Recycling audit: a free-listed MSHR must be fully retired. A
	// waiter left behind or a live index entry means a later miss would
	// share the MSHR with a fill still in flight.
	for _, f := range c.freeMSHRs {
		if len(f.waiters) != 0 {
			return fmt.Errorf("free-listed MSHR %#x still holds %d waiters", f.lineAddr, len(f.waiters))
		}
		if c.mshrs[f.lineAddr] == f {
			return fmt.Errorf("free-listed MSHR %#x is still live", f.lineAddr)
		}
	}
	// Wheel audit: the O(1) done-fill counter must agree with an
	// inflight scan. A lost RequestDone would make NextWake report
	// "nothing to install" past a ready fill, parking the cache's owner
	// on the event wheel while data sits undelivered.
	if msg := c.AuditDoneFills(); msg != "" {
		return fmt.Errorf("done-fill counter drift: %s", msg)
	}
	return nil
}
