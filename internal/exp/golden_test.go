package exp

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"emerald/internal/dram"
	"emerald/internal/geom"
	"emerald/internal/gpu"
	"emerald/internal/shader"
)

// Golden busy-path digests. Every other determinism gate compares two
// configurations of the same build (workers, skip, wheel); these pin
// the detailed model's timing to recorded values, so an optimisation
// of the SIMT core, its LSU or its caches that shifts one cycle or one
// counter fails here. Each digest hashes the registry JSON, the
// framebuffer (or kernel output) and the final cycle with SHA-256.
// Change a value only together with an intended change to the timing
// model, and say so in CHANGES.md.
var goldenDigests = map[string]string{
	"standalone-w3-4frames": "675f26d5d8ebb85916ca4316fe04ca7dca5fdaa112bd104512a7e9c5d73b3aa3",
	"soc-m1-dtb-2frames":    "34bcd46ad579e2e4a1c0cb5a45b9e8431444904d79837bd65400fee43ae3e2dd",
	"kernel-reduce-atomic":  "eb18138da57c0f9f512b33ce43a0bf27cc9c2db75524ef42f87eda236b704035",
	"kernel-barrier-reduce": "70159caa8260523a24c773a0934857576c9eb257e32e2756ef9de23f9399adba",
}

// kernelBarrierReduce stages each thread's element through shared
// memory across a block barrier before the atomic add. n is not a
// multiple of the block size, so whole warps exit before the barrier
// and the survivors' release runs through the retiring-warp path.
var kernelBarrierReduce = shader.MustAssemble("barrier_reduce", shader.KindCompute, `
	movs r0, %ctaid
	movs r1, %ntid
	movs r2, %tid
	imad r3, r0, r1, r2
	ldc  r4, [12]
	setp.ge.i p0, r3, r4
	@p0 exit
	shl  r5, r2, 2
	shl  r6, r3, 2
	ldc  r7, [0]
	iadd r8, r7, r6
	ldg  r9, [r8]
	sts  [r5], r9
	bar
	lds  r10, [r5]
	ldc  r11, [4]
	atom.add r12, [r11], r10
	exit
`)

// kernelDigest runs prog over n elements on the Case Study II GPU and
// hashes the registry, the input and output words and the final cycle.
func kernelDigest(t *testing.T, prog *shader.Program, n, blocks, threads int) string {
	t.Helper()
	sys := gpu.NewStandalone(gpu.CaseStudyIIConfig(), dram.Config{
		Geometry: dram.LPDDR3Geometry(4),
		Timing:   dram.LPDDR3Timing(1600),
	}, nil)
	const x, out, params = uint64(0x100000), uint64(0x500000), uint64(0x400000)
	m := sys.Mem()
	for i := 0; i < n; i++ {
		m.WriteF32(x+uint64(i*4), float32(i%97))
	}
	m.WriteU32(params+0, uint32(x))
	m.WriteU32(params+4, uint32(out))
	m.WriteU32(params+12, uint32(n))
	m.WriteF32(out, 0)
	k := gpu.Kernel{Prog: prog, Blocks: blocks, ThreadsPerBlock: threads, ParamBase: params, SharedBytes: 4 * threads}
	if _, err := sys.RunKernel(k, 50_000_000); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sys.Reg.DumpJSON(&buf); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 4*n)
	m.Read(x, data)
	t.Logf("%s: sum %v after %d cycles", prog.Name, m.ReadF32(out), sys.Cycle())
	h := sha256.New()
	h.Write(buf.Bytes())
	h.Write(data)
	fmt.Fprintf(h, "out=%v cycle=%d", m.ReadF32(out), sys.Cycle())
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestBusyPathGoldenDigests checks the detailed busy path against the
// recorded digests.
func TestBusyPathGoldenDigests(t *testing.T) {
	if testing.Short() {
		// Single-threaded runs give the race detector nothing to find,
		// and race mode pays ~20x per simulated cycle.
		t.Skip("golden digests run in the full suite")
	}
	cases := []struct {
		name string
		run  func(t *testing.T) string
	}{
		{"standalone-w3-4frames", func(t *testing.T) string {
			return standaloneFramesDigest(t, nil, false, false, 4)
		}},
		{"soc-m1-dtb-2frames", func(t *testing.T) string {
			opt := Quick()
			opt.Frames, opt.WarmupFrames = 2, 0
			return socDigest(t, geom.M1Chair, DTB, opt)
		}},
		{"kernel-reduce-atomic", func(t *testing.T) string {
			return kernelDigest(t, shader.KernelReduceAtomic, 63900, 250, 256)
		}},
		{"kernel-barrier-reduce", func(t *testing.T) string {
			return kernelDigest(t, kernelBarrierReduce, 63900, 250, 256)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := c.run(t)
			if want := goldenDigests[c.name]; got != want {
				t.Errorf("digest %s, recorded %s", got, want)
			}
		})
	}
}
