package simt

import (
	"math"

	"emerald/internal/mem"
	"emerald/internal/shader"
)

// FuncExec runs one warp to completion functionally: every
// architectural effect of the timed Core — register writes, memory
// loads/stores, texture fetches, attribute input and output streaming —
// happens in program order with no scoreboard, no caches and no cycle
// accounting. Because the timed core also applies all functional
// effects immediately at issue, in lock step per instruction (see
// Core.execute/executeMem), a warp run through FuncExec leaves memory
// and the env bit-identical to the same warp run through the timed
// pipeline. The sampled-simulation functional pass rides on this.
//
// Limits, shared with the graphics pipeline's use of warps: OpBar
// advances without cross-warp coordination (block barriers are a
// compute feature; graphics warps are independent), and Retired is
// invoked once when the last lane exits.
func FuncExec(prog *shader.Program, env WarpEnv, mask uint32, specials [WarpSize]shader.Special) {
	var r FuncRunner
	r.Exec(prog, env, mask, specials)
}

// FuncRunner executes warps functionally, reusing one warp struct, its
// SIMT stack and one page-caching memory view across executions so the
// per-warp hot loop of the sampled-simulation functional pass is
// allocation-free. A runner is single-goroutine and must not outlive a
// Memory.Reset or checkpoint restore of the env's memory (the cached
// view would go stale); the graphics pipeline scopes one runner per
// draw call.
type FuncRunner struct {
	warp Warp
	view *mem.View
}

// Exec runs one warp to completion with FuncExec semantics.
func (r *FuncRunner) Exec(prog *shader.Program, env WarpEnv, mask uint32, specials [WarpSize]shader.Special) {
	w := &r.warp
	w.reset(0, prog, env, -1, mask)
	w.Special = specials
	if r.view == nil || r.view.Memory() != env.Memory() {
		r.view = mem.NewView(env.Memory())
	}
	for !w.Done() {
		funcStep(w, r.view)
	}
	env.Retired(w)
}

// funcStep executes one instruction for w, mirroring Core.execute with
// the timing model removed.
func funcStep(w *Warp, mv *mem.View) {
	pc := w.PC()
	in := w.Prog.Code[pc]
	mask := w.ActiveMask()

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
		w.branch(in.Target, exec)
		w.reconverge()
		return
	case shader.OpExit, shader.OpKill:
		if exec != 0 {
			w.exitLanes(exec)
		} else {
			w.advance()
		}
		return
	case shader.OpBar:
		w.advance()
		return
	}

	switch shader.ClassOf(in.Op) {
	case shader.ClassALU, shader.ClassSFU:
		for lane := 0; lane < WarpSize; lane++ {
			if exec&(1<<lane) != 0 {
				shader.ExecALU(in, &w.Threads[lane], w.Special[lane])
			}
		}
	default:
		funcMem(w, in, exec, mv)
	}
	w.advance()
}

// funcMem applies the functional half of executeMem: identical
// register/memory effects, no transactions. Memory traffic goes
// through the runner's page-caching view rather than Env.Memory() —
// the effects are bit-identical, only the page-directory lookups are
// elided.
func funcMem(w *Warp, in shader.Instr, exec uint32, memory *mem.View) {
	// Direct per-op loops (no per-lane closure dispatch): this is the
	// hottest leaf of the functional pass.
	switch in.Op {
	case shader.OpLdGlobal:
		for lane := 0; lane < WarpSize; lane++ {
			if exec&(1<<lane) != 0 {
				t := &w.Threads[lane]
				t.SetU(in.Dst, memory.ReadU32(shader.EA(in, t)))
			}
		}

	case shader.OpStGlobal:
		for lane := 0; lane < WarpSize; lane++ {
			if exec&(1<<lane) != 0 {
				t := &w.Threads[lane]
				memory.WriteU32(shader.EA(in, t), t.U(in.A))
			}
		}

	case shader.OpAtomAdd:
		for lane := 0; lane < WarpSize; lane++ {
			if exec&(1<<lane) != 0 {
				t := &w.Threads[lane]
				ea := shader.EA(in, t)
				old := memory.ReadF32(ea)
				memory.WriteF32(ea, old+t.F(in.A))
				t.SetF(in.Dst, old)
			}
		}

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

	case shader.OpLdConst:
		base := w.Env.ConstBase()
		for lane := 0; lane < WarpSize; lane++ {
			if exec&(1<<lane) != 0 {
				t := &w.Threads[lane]
				t.SetU(in.Dst, memory.ReadU32(base+shader.EA(in, t)))
			}
		}

	case shader.OpAttr4:
		for lane := 0; lane < WarpSize; lane++ {
			if exec&(1<<lane) != 0 {
				t := &w.Threads[lane]
				val, _ := w.Env.AttrIn(lane, int(in.Slot))
				for i := 0; i < 4; i++ {
					t.SetF(in.Dst+uint8(i), val[i])
				}
			}
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
				w.Env.OutWrite(lane, int(in.Slot), val)
			}
		}

	case shader.OpTex4:
		for lane := 0; lane < WarpSize; lane++ {
			if exec&(1<<lane) != 0 {
				t := &w.Threads[lane]
				u, v := t.F(in.A), t.F(in.B)
				val, _ := w.Env.Tex(lane, int(in.Slot), u, v)
				for i := 0; i < 4; i++ {
					t.SetF(in.Dst+uint8(i), val[i])
				}
			}
		}

	case shader.OpZLd:
		for lane := 0; lane < WarpSize; lane++ {
			if exec&(1<<lane) != 0 {
				t := &w.Threads[lane]
				t.SetF(in.Dst, memory.ReadF32(w.Env.ZAddr(lane)))
			}
		}

	case shader.OpZSt:
		for lane := 0; lane < WarpSize; lane++ {
			if exec&(1<<lane) != 0 {
				t := &w.Threads[lane]
				memory.WriteF32(w.Env.ZAddr(lane), t.F(in.A))
			}
		}

	case shader.OpFBLd:
		for lane := 0; lane < WarpSize; lane++ {
			if exec&(1<<lane) != 0 {
				t := &w.Threads[lane]
				t.SetU(in.Dst, memory.ReadU32(w.Env.CAddr(lane)))
			}
		}

	case shader.OpFBSt:
		for lane := 0; lane < WarpSize; lane++ {
			if exec&(1<<lane) != 0 {
				t := &w.Threads[lane]
				memory.WriteU32(w.Env.CAddr(lane), t.U(in.A))
			}
		}
	}
}
