package simt

import (
	"math"

	"emerald/internal/cache"
	"emerald/internal/emtrace"
	"emerald/internal/mem"
	"emerald/internal/shader"
)

// sharedLatency is the scratchpad access latency in cycles.
const sharedLatency = 24

// atomExtraLatency models the round trip to the L2 atomic unit beyond a
// regular global access.
const atomExtraLatency = 20

// txQueueDepth bounds the LSU's pending coalesced transactions.
const txQueueDepth = 192

// execute runs one instruction for warp w. The functional architectural
// effects happen immediately (the simulator is deterministic and
// single-threaded); timing effects are modeled through the scoreboard,
// writeback events and cache transactions.
func (c *Core) execute(w *Warp, cycle uint64) {
	pc := w.PC()
	in := w.Prog.Code[pc]
	mask := w.ActiveMask()
	c.instrs.Inc()

	exec := mask
	if in.Pred >= 0 {
		// Only predicated instructions need the per-lane test.
		exec = 0
		for lane := 0; lane < WarpSize; lane++ {
			if mask&(1<<lane) != 0 && shader.Active(in, &w.Threads[lane]) {
				exec |= 1 << lane
			}
		}
	}

	switch in.Op {
	case shader.OpSSY:
		w.pendingRPC = in.Target
		w.advance()
		return
	case shader.OpBra:
		if w.branch(in.Target, exec) {
			c.divergences.Inc()
			c.trace.Instant1(emtrace.SrcSIMT, c.traceTrack, "diverge", cycle,
				emtrace.Arg{Key: "warp", Val: int64(w.ID)})
		}
		w.reconverge()
		return
	case shader.OpExit, shader.OpKill:
		if exec != 0 {
			c.threadsRetired.Add(int64(popcount(exec)))
			w.exitLanes(exec)
		} else {
			w.advance()
		}
		return
	case shader.OpBar:
		w.advance()
		c.barrier(w)
		return
	}

	cls := shader.ClassOf(in.Op)
	switch cls {
	case shader.ClassALU, shader.ClassSFU:
		for lane := 0; lane < WarpSize; lane++ {
			if exec&(1<<lane) != 0 {
				shader.ExecALU(in, &w.Threads[lane], w.Special[lane])
			}
		}
		if regs := w.lockDst(in); regs.n > 0 {
			lat := c.Cfg.ALULatency
			if cls == shader.ClassSFU {
				lat = c.Cfg.SFULatency
			}
			c.events = append(c.events, wbEvent{at: cycle + lat, warp: w, regs: regs})
		}
		if cls == shader.ClassSFU {
			w.readyAt = cycle + 1 + c.Cfg.SFUStall
		}
		w.advance()
	default:
		c.executeMem(w, in, exec, cycle)
		w.advance()
	}
}

// executeMem handles every memory-class instruction: functional effect
// now, timing via coalesced cache transactions. Each op is a direct
// lane loop that collects the executing lanes' addresses into the
// core's scratch slice; nothing here allocates in steady state.
func (c *Core) executeMem(w *Warp, in shader.Instr, exec uint32, cycle uint64) {
	memory := w.Env.Memory()
	addrs := c.addrs[:0]

	switch in.Op {
	case shader.OpLdGlobal:
		for lane := 0; lane < WarpSize; lane++ {
			if exec&(1<<lane) != 0 {
				t := &w.Threads[lane]
				ea := shader.EA(in, t)
				t.SetU(in.Dst, memory.ReadU32(ea))
				addrs = append(addrs, ea)
			}
		}
		c.issueLoad(w, c.L1D, addrs, w.lockDst(in), cycle)

	case shader.OpStGlobal:
		for lane := 0; lane < WarpSize; lane++ {
			if exec&(1<<lane) != 0 {
				t := &w.Threads[lane]
				ea := shader.EA(in, t)
				memory.WriteU32(ea, t.U(in.A))
				addrs = append(addrs, ea)
			}
		}
		c.issueStore(c.L1D, addrs)

	case shader.OpAtomAdd:
		for lane := 0; lane < WarpSize; lane++ {
			if exec&(1<<lane) != 0 {
				t := &w.Threads[lane]
				ea := shader.EA(in, t)
				old := memory.ReadF32(ea)
				memory.WriteF32(ea, old+t.F(in.A))
				t.SetF(in.Dst, old)
				addrs = append(addrs, ea)
			}
		}
		c.issueLoad(w, c.L1D, addrs, w.lockDst(in), cycle)
		w.readyAt = cycle + atomExtraLatency

	case shader.OpLdShared:
		sh := w.Env.SharedMem()
		for lane := 0; lane < WarpSize; lane++ {
			if exec&(1<<lane) != 0 {
				t := &w.Threads[lane]
				off := int(shader.EA(in, t))
				if sh != nil && off >= 0 && off+4 <= len(sh) {
					t.SetU(in.Dst, leU32(sh[off:]))
				} else {
					t.SetU(in.Dst, 0)
				}
			}
		}
		if regs := w.lockDst(in); regs.n > 0 {
			c.events = append(c.events, wbEvent{at: cycle + sharedLatency, warp: w, regs: regs})
		}

	case shader.OpStShared:
		sh := w.Env.SharedMem()
		for lane := 0; lane < WarpSize; lane++ {
			if exec&(1<<lane) != 0 {
				t := &w.Threads[lane]
				off := int(shader.EA(in, t))
				if sh != nil && off >= 0 && off+4 <= len(sh) {
					putU32(sh[off:], t.U(in.A))
				}
			}
		}
		w.readyAt = cycle + 1

	case shader.OpLdConst:
		base := w.Env.ConstBase()
		for lane := 0; lane < WarpSize; lane++ {
			if exec&(1<<lane) != 0 {
				t := &w.Threads[lane]
				ea := base + shader.EA(in, t)
				t.SetU(in.Dst, memory.ReadU32(ea))
				addrs = append(addrs, ea)
			}
		}
		c.issueLoad(w, c.L1C, addrs, w.lockDst(in), cycle)

	case shader.OpAttr4:
		for lane := 0; lane < WarpSize; lane++ {
			if exec&(1<<lane) != 0 {
				t := &w.Threads[lane]
				val, addr := w.Env.AttrIn(lane, int(in.Slot))
				for i := 0; i < 4; i++ {
					t.SetF(in.Dst+uint8(i), val[i])
				}
				if addr != 0 {
					addrs = append(addrs, addr, addr+12) // vec4 spans 16 bytes
				}
			}
		}
		regs := w.lockDst(in)
		if len(addrs) > 0 {
			c.issueLoad(w, c.L1C, addrs, regs, cycle)
		} else if regs.n > 0 {
			// Fragment varyings: plane-equation evaluation, ALU cost.
			c.events = append(c.events, wbEvent{at: cycle + c.Cfg.ALULatency, warp: w, regs: regs})
		}

	case shader.OpOut4:
		for lane := 0; lane < WarpSize; lane++ {
			if exec&(1<<lane) != 0 {
				t := &w.Threads[lane]
				r := in.A.Reg
				val := [4]float32{
					math.Float32frombits(t.Regs[r]),
					math.Float32frombits(t.Regs[r+1]),
					math.Float32frombits(t.Regs[r+2]),
					math.Float32frombits(t.Regs[r+3]),
				}
				if addr := w.Env.OutWrite(lane, int(in.Slot), val); addr != 0 {
					addrs = append(addrs, addr)
				}
			}
		}
		// Vertex outputs stream directly to the L2-backed output buffer,
		// bypassing L1 (cache == nil).
		for _, a := range addrs {
			c.txQueue.push(transaction{addr: a, kind: mem.Write})
		}

	case shader.OpTex4:
		for lane := 0; lane < WarpSize; lane++ {
			if exec&(1<<lane) != 0 {
				t := &w.Threads[lane]
				u, v := t.F(in.A), t.F(in.B)
				val, texels := w.Env.Tex(lane, int(in.Slot), u, v)
				for i := 0; i < 4; i++ {
					t.SetF(in.Dst+uint8(i), val[i])
				}
				for _, a := range texels {
					if a != 0 {
						addrs = append(addrs, a)
					}
				}
			}
		}
		c.issueLoad(w, c.L1T, addrs, w.lockDst(in), cycle)

	case shader.OpZLd:
		for lane := 0; lane < WarpSize; lane++ {
			if exec&(1<<lane) != 0 {
				a := w.Env.ZAddr(lane)
				w.Threads[lane].SetF(in.Dst, memory.ReadF32(a))
				addrs = append(addrs, a)
			}
		}
		c.issueLoad(w, c.L1Z, addrs, w.lockDst(in), cycle)

	case shader.OpZSt:
		for lane := 0; lane < WarpSize; lane++ {
			if exec&(1<<lane) != 0 {
				a := w.Env.ZAddr(lane)
				memory.WriteF32(a, w.Threads[lane].F(in.A))
				addrs = append(addrs, a)
			}
		}
		c.issueStore(c.L1Z, addrs)

	case shader.OpFBLd:
		for lane := 0; lane < WarpSize; lane++ {
			if exec&(1<<lane) != 0 {
				a := w.Env.CAddr(lane)
				w.Threads[lane].SetU(in.Dst, memory.ReadU32(a))
				addrs = append(addrs, a)
			}
		}
		c.issueLoad(w, c.L1D, addrs, w.lockDst(in), cycle)

	case shader.OpFBSt:
		for lane := 0; lane < WarpSize; lane++ {
			if exec&(1<<lane) != 0 {
				a := w.Env.CAddr(lane)
				memory.WriteU32(a, w.Threads[lane].U(in.A))
				addrs = append(addrs, a)
			}
		}
		c.issueStore(c.L1D, addrs)
	}
	c.addrs = addrs[:0] // keep any growth for the next instruction
}

// coalesce reduces per-lane addresses to their unique cache lines in
// first-touch order (transaction order is part of the timing), using
// the core's line scratch slice.
func (c *Core) coalesce(target *cache.Cache, addrs []uint64) []uint64 {
	lines := c.lines[:0]
next:
	for _, a := range addrs {
		la := target.LineAddr(a)
		for i := len(lines) - 1; i >= 0; i-- {
			if lines[i] == la {
				continue next
			}
		}
		lines = append(lines, la)
	}
	c.lines = lines
	return lines
}

// issueLoad enqueues read transactions for addrs under one memOp that
// releases regs when the last line returns.
func (c *Core) issueLoad(w *Warp, target *cache.Cache, addrs []uint64, regs regSet, cycle uint64) {
	if len(addrs) == 0 {
		// No memory touched (e.g. all lanes predicated off): release
		// immediately via a short event.
		if regs.n > 0 {
			c.events = append(c.events, wbEvent{at: cycle + c.Cfg.ALULatency, warp: w, regs: regs})
		}
		return
	}
	lines := c.coalesce(target, addrs)
	op := c.newMemOp(w, regs, len(lines))
	w.outstanding++
	for _, la := range lines {
		c.txQueue.push(transaction{addr: la, kind: mem.Read, cache: target, op: op})
	}
}

// issueStore enqueues fire-and-forget write transactions.
func (c *Core) issueStore(target *cache.Cache, addrs []uint64) {
	for _, la := range c.coalesce(target, addrs) {
		c.txQueue.push(transaction{addr: la, kind: mem.Write, cache: target})
	}
}

// barrier handles a warp arriving at bar.
func (c *Core) barrier(w *Warp) {
	if w.BlockID < 0 {
		return // graphics warps have no block barrier
	}
	b := c.blocks[w.BlockID]
	if b == nil {
		return
	}
	w.atBarrier = true
	b.atBarrier++
	if b.atBarrier >= b.live {
		for _, bw := range b.warps {
			bw.atBarrier = false
			bw.parked = 0 // barrier release: wake parked siblings
		}
		b.atBarrier = 0
	}
}

func popcount(m uint32) int {
	n := 0
	for m != 0 {
		m &= m - 1
		n++
	}
	return n
}

func leU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func putU32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}
