package simt

import (
	"errors"
	"fmt"

	"emerald/internal/guard"
)

// maxStackDepth bounds legal SIMT stack growth. Structured divergence
// nests a handful of levels; hundreds means runaway push without
// reconvergence.
const maxStackDepth = 128

// checkInvariants verifies the warp's reconvergence-stack
// well-formedness: a live warp always has a stack, the top-of-stack
// mask is never empty (reconverge pops empty levels before control
// returns to the scheduler), every level's mask stays within the
// residual launch mask at the stack bottom (branches only partition
// the current mask and lane exits strip all levels equally), memory
// accounting never goes negative, and depth stays bounded.
func (w *Warp) checkInvariants() error {
	if w.outstanding < 0 {
		return fmt.Errorf("negative outstanding memory count %d", w.outstanding)
	}
	if w.done {
		return nil
	}
	if len(w.stack) == 0 {
		return errors.New("live warp with empty SIMT stack")
	}
	if len(w.stack) > maxStackDepth {
		return fmt.Errorf("SIMT stack depth %d exceeds %d (runaway divergence)", len(w.stack), maxStackDepth)
	}
	if top := w.stack[len(w.stack)-1]; top.mask == 0 {
		return errors.New("empty active mask at top of stack")
	}
	launch := w.stack[0].mask
	for i, e := range w.stack {
		if e.mask&^launch != 0 {
			return fmt.Errorf("stack[%d] mask %08x escapes bottom mask %08x", i, e.mask, launch)
		}
	}
	return nil
}

// AttachGuard registers the core's SIMT-stack invariants and the MSHR
// invariants of its four L1 caches. Safe with a nil checker.
func (c *Core) AttachGuard(g *guard.Checker) {
	track := fmt.Sprintf("core%d_%d", c.Cfg.ClusterID, c.Cfg.ID)
	g.Register("simt", track+".warps", c.checkWarps)
	c.L1D.AttachGuard(g, track+".l1d")
	c.L1T.AttachGuard(g, track+".l1t")
	c.L1Z.AttachGuard(g, track+".l1z")
	c.L1C.AttachGuard(g, track+".l1c")
}

func (c *Core) checkWarps(cycle uint64) error {
	if err := c.checkFreeLists(); err != nil {
		return err
	}
	for _, w := range c.warps {
		if err := w.checkInvariants(); err != nil {
			return fmt.Errorf("warp %d (%s): %w", w.ID, w.Prog.Name, err)
		}
		// Wake-contract audit: a parked warp must genuinely be
		// unschedulable. A violation means a release path forgot to
		// clear the park and the scheduler is skipping issuable work.
		if w.parked > cycle && c.warpReady(w, cycle) {
			return fmt.Errorf("warp %d (%s): parked until %d but ready at %d (missing park-clear hook)",
				w.ID, w.Prog.Name, w.parked, cycle)
		}
	}
	return nil
}

// checkFreeLists audits the recycled objects: a free-listed warp must
// be out of c.warps, out of every block and unnamed by any writeback
// event, and a free-listed memOp must be named by no event and no
// queued transaction. A violation means an object was released while
// still reachable and its reuse would silently corrupt the scoreboard.
func (c *Core) checkFreeLists() error {
	if len(c.freeWarps) > c.Cfg.MaxWarps {
		return fmt.Errorf("%d free-listed warps, cap %d", len(c.freeWarps), c.Cfg.MaxWarps)
	}
	freeWarps := make(map[*Warp]bool, len(c.freeWarps))
	for _, w := range c.freeWarps {
		if freeWarps[w] {
			return fmt.Errorf("warp %d free-listed twice", w.ID)
		}
		freeWarps[w] = true
	}
	for _, w := range c.warps {
		if freeWarps[w] {
			return fmt.Errorf("free-listed warp %d is resident", w.ID)
		}
	}
	for id, b := range c.blocks {
		for _, w := range b.warps {
			if freeWarps[w] {
				return fmt.Errorf("free-listed warp %d is still in block %d", w.ID, id)
			}
		}
	}
	freeOps := make(map[*memOp]bool, len(c.freeOps))
	for _, op := range c.freeOps {
		if freeOps[op] {
			return errors.New("memOp free-listed twice")
		}
		freeOps[op] = true
	}
	for _, e := range c.events {
		if freeWarps[e.warp] {
			return fmt.Errorf("free-listed warp %d is named by a writeback event at %d", e.warp.ID, e.at)
		}
		if freeOps[e.op] {
			return fmt.Errorf("free-listed memOp is named by a writeback event at %d", e.at)
		}
	}
	for _, tx := range c.txQueue.buf[c.txQueue.head:] {
		if freeOps[tx.op] {
			return fmt.Errorf("free-listed memOp is named by a queued transaction to %#x", tx.addr)
		}
	}
	return nil
}

// Instructions returns the number of instructions issued so far — one
// term of the run loops' forward-progress signature.
func (c *Core) Instructions() int64 { return c.instrs.Value() }

// Diagnose renders the core's stuck state for a watchdog bundle: LSU
// and L1 occupancy plus one line per resident warp (capped at maxWarps
// lines). Returns nil when the core holds no work.
func (c *Core) Diagnose(cycle uint64, maxWarps int) []string {
	if len(c.warps) == 0 && c.txQueue.len() == 0 && len(c.events) == 0 {
		return nil
	}
	lines := make([]string, 0, len(c.warps)+2)
	lines = append(lines, fmt.Sprintf("txQueue=%d events=%d mshrs: l1d=%d l1t=%d l1z=%d l1c=%d",
		c.txQueue.len(), len(c.events),
		c.L1D.PendingMisses(), c.L1T.PendingMisses(), c.L1Z.PendingMisses(), c.L1C.PendingMisses()))
	for i, w := range c.warps {
		if maxWarps > 0 && i >= maxWarps {
			lines = append(lines, fmt.Sprintf("... %d more warps", len(c.warps)-maxWarps))
			break
		}
		lines = append(lines, c.warpDiag(w, cycle))
	}
	return lines
}

// warpDiag names the reason one warp cannot issue right now, in the
// same priority order the scheduler observes stalls.
func (c *Core) warpDiag(w *Warp, cycle uint64) string {
	pending := 0
	for _, n := range w.scoreboard {
		if n > 0 {
			pending++
		}
	}
	state := "ready"
	switch {
	case w.done:
		state = "draining"
	case w.atBarrier:
		state = "barrier"
	case len(w.stack) == 0:
		state = "no-stack"
	case w.readyAt > cycle:
		state = fmt.Sprintf("pipeline(until=%d)", w.readyAt)
	default:
		if pc := w.PC(); pc < uint32(len(w.Prog.Code)) {
			in := w.Prog.Code[pc]
			switch {
			case w.hazard(in) && w.outstanding > 0:
				state = "mem-wait"
			case w.hazard(in):
				state = "scoreboard"
			case in.IsMemory() && c.txQueue.len() >= txQueueDepth:
				state = "lsu-full"
			}
		}
	}
	return fmt.Sprintf("warp%d %s: pc=%d mask=%08x depth=%d outstanding=%d pendingRegs=%d %s",
		w.ID, w.Prog.Name, w.PC(), w.ActiveMask(), len(w.stack), w.outstanding, pending, state)
}
