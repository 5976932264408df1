// Command perfbench is the repository's benchmark. It runs one
// workload in this process at workers=1, as a closed loop with one
// caller: the next operation starts when the previous one returns. It
// checks every operation's simulated output and prints a JSON result
// as the last line of standard output.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the result holds the end-to-end metrics. With
// --trace 1 it holds the per-layer metrics of a traced run: the
// measured phase alternates blocks with a CPU profile on and off, so
// the trace overhead can be measured in the same process. README.md
// describes the workloads and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sim_cycles_per_s", "1/s"},
	{"sim_frames_per_s", "1/s"},
	{"warp_instr_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

var perLayer = append([]metricDef{
	{"simt.warp_instr", "1/frame"},
	{"simt.issue_idle_frac", "ratio"},
	{"simt.mem_stall_cycles", "1/frame"},
	{"runtime.allocs_per_frame", "1/frame"},
	{"runtime.alloc_kb_per_frame", "KiB"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"cache.accesses", "1/frame"},
	{"cache.l1_miss_rate", "ratio"},
	{"cache.l2_miss_rate", "ratio"},
	{"dram.bytes", "B/frame"},
	{"dram.row_hit_rate", "ratio"},
	{"dram.rejects_per_served", "ratio"},
	{"interconnect.transferred", "1/frame"},
	{"interconnect.stall_frac", "ratio"},
	{"cpu.instructions", "1/frame"},
	{"cpu.stall_cycles", "1/frame"},
	{"soc.skipped_frac", "ratio"},
	{"soc.display_dropped", "1/frame"},
	{"gpu.fragments_shaded", "1/frame"},
	{"gpu.hiz_culled_tiles", "1/frame"},
	{"gfx.tc_tiles_out", "1/frame"},
	{"gl.submit_ms", "ms"},
	{"sample.record_s", "s"},
	{"sample.pass_s", "s"},
	{"sample.select_ms", "ms"},
	{"sample.detail_s", "s"},
	{"sample.useful_detail_ratio", "ratio"},
	{"sample.error_pct", "%"},
	{"trace.checkpoint_kb", "KiB"},
	{"trace.checkpoint_save_ms", "ms"},
	{"trace.checkpoint_load_ms", "ms"},
	{"trace.checkpoint_restore_ms", "ms"},
	{"bench.trace_overhead_pct", "%"},
	{"profile.samples", "count"},
}, selfPctDefs()...)

func selfPctDefs() []metricDef {
	var defs []metricDef
	for _, l := range append(append([]string{}, selfLayers...), "runtime", "other") {
		defs = append(defs, metricDef{l + ".self_pct", "%"})
	}
	return defs
}

const (
	// setupReps is how many times a run builds its system; setup_s is
	// the median.
	setupReps = 101
	// traceBlocks is how many blocks a traced run's measured phase is
	// cut into, alternating profile on and off, starting on.
	traceBlocks = 6
	// profileHz is the CPU profile's sampling rate.
	profileHz = 500
	// maxProblemLines caps the failures printed one per line.
	maxProblemLines = 10
)

// opSample is one measured operation.
type opSample struct {
	wall   float64 // host seconds
	cycles uint64
	frames int
	instr  uint64
	traced bool
}

// result is one run's outcome.
type result struct {
	workload  string
	seed      int64
	traced    bool
	attempted int
	failedOps int
	problems  []string // failed operations and failed run-level checks
	digest    string
	metrics   map[string]float64
	notes     []string // human-readable lines printed before the result
}

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 0, "workload seed")
	seconds := flag.Float64("seconds", 10, "host seconds to measure for")
	traced := flag.Int("trace", 0, "1 for the traced run's per-layer metrics, 0 for end-to-end metrics")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || (*traced != 0 && *traced != 1) {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fmt.Fprintf(os.Stderr, "perfbench: need --workload one of %s and --trace 0 or 1\n", strings.Join(names, ", "))
		os.Exit(2)
	}
	res, err := run(w, *seed, *seconds, *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := res.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run sets the workload up, measures it for the given host seconds
// (and at least its digest window), and derives the metrics.
func run(w workload, seed int64, seconds float64, traced bool) (*result, error) {
	var sys system
	var setups []float64
	for k := 0; k < setupReps; k++ {
		// Each set-up starts from a collected heap, so a collection the
		// previous one left due does not land in its time.
		runtime.GC()
		t0 := time.Now()
		s, err := w.setup(seed)
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		sys = s
	}
	if err := sys.prepare(); err != nil {
		return nil, fmt.Errorf("%s: preparing output checks: %w", w.name, err)
	}

	res := &result{workload: w.name, seed: seed, traced: traced, metrics: map[string]float64{}}
	sp := spans{}
	var prof profiler
	var window map[string]float64
	var ops []opSample
	blockLen := seconds / traceBlocks
	total0, steal0 := hostStealTicks()
	start := time.Now()
	for i := 0; ; i++ {
		elapsed := time.Since(start).Seconds()
		if i >= w.digestOps && elapsed >= seconds {
			break
		}
		on := traced && (blockLen <= 0 || int(elapsed/blockLen)%2 == 0)
		if err := prof.set(on); err != nil {
			return nil, err
		}
		c0, f0, n0 := sys.progress()
		r0 := prof.readRuntime()
		t0 := time.Now()
		err := sys.op(i, sp)
		wall := time.Since(t0).Seconds()
		// The per-frame runtime metrics cover the timed operations
		// only, as their frame counts do; operation 0 is not timed.
		if i > 0 {
			prof.addRuntime(r0)
		}
		res.attempted++
		if err == nil {
			err = sys.check(i)
		}
		if err != nil {
			res.failedOps++
			res.problems = append(res.problems, fmt.Sprintf("operation %d: %v", i, err))
			break
		}
		c1, f1, n1 := sys.progress()
		ops = append(ops, opSample{wall, c1 - c0, f1 - f0, n1 - n0, on})
		if i+1 == w.digestOps {
			d, err := sys.digest()
			if err != nil {
				return nil, err
			}
			res.digest = d
			window = counterMetrics(sys.registry(), f1, c1, sys.skipped())
		}
	}
	if err := prof.set(false); err != nil {
		return nil, err
	}
	total1, steal1 := hostStealTicks()
	res.notes = append(res.notes, fmt.Sprintf("host_steal_pct %.2f (share of the machine's CPU time stolen by the hypervisor while measuring)",
		100*ratio(steal1-steal0, total1-total0)))
	failed, err := sys.finish()
	if err != nil {
		return nil, fmt.Errorf("%s: deferred output checks: %w", w.name, err)
	}
	for _, i := range failed {
		res.failedOps++
		res.problems = append(res.problems, fmt.Sprintf("operation %d: simulated output differs from the reference", i))
	}

	// The first operation pays the cold start; the medians leave it out.
	timed := ops
	if len(timed) > 1 {
		timed = timed[1:]
	}
	if !traced {
		res.metrics["setup_s"] = median(setups)
		res.metrics["sim_cycles_per_s"] = rate(timed, func(o opSample) float64 { return float64(o.cycles) })
		res.metrics["sim_frames_per_s"] = rate(timed, func(o opSample) float64 { return float64(o.frames) })
		res.metrics["warp_instr_per_s"] = rate(timed, func(o opSample) float64 { return float64(o.instr) })
		res.metrics["peak_rss_mb"] = peakRSSMB()
		res.notes = append(res.notes, timingNote(timed))
		if s, ok := sys.(*sampled); ok {
			res.notes = append(res.notes, fmt.Sprintf("sample_error_pct %.4f %% (|estimate - truth| / truth, truth %d cycles)",
				s.errPct, s.truthCycles))
		}
	} else {
		for k, v := range window {
			res.metrics[k] = v
		}
		if err := res.layerMetrics(sys, sp, &prof, timed); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// layerMetrics fills the traced run's runtime, span, profile and
// overhead metrics.
func (res *result) layerMetrics(sys system, sp spans, prof *profiler, timed []opSample) error {
	var tracedFrames int
	var on, off []opSample
	for _, o := range timed {
		if o.traced {
			tracedFrames += o.frames
			on = append(on, o)
		} else {
			off = append(off, o)
		}
	}
	rt := prof.runtime
	res.metrics["runtime.allocs_per_frame"] = ratio(rt.allocs, float64(tracedFrames))
	res.metrics["runtime.alloc_kb_per_frame"] = ratio(rt.allocBytes/1024, float64(tracedFrames))
	res.metrics["runtime.gc_cpu_frac"] = ratio(rt.gcCPU, rt.usedCPU)

	if s, ok := sys.(*sampled); ok {
		extra, err := s.layerSpans(sp)
		if err != nil {
			return err
		}
		for k, v := range extra {
			res.metrics[k] = v
		}
		stages := median(sp["sample.record"]) + median(sp["sample.pass"]) + median(sp["sample.select"])
		res.metrics["sample.detail_s"] = median(wallsOf(timed)) - stages
	}
	for _, s := range []struct {
		span, metric string
		scale        float64
	}{
		{"gl.submit", "gl.submit_ms", 1e3},
		{"sample.record", "sample.record_s", 1},
		{"sample.pass", "sample.pass_s", 1},
		{"sample.select", "sample.select_ms", 1e3},
		{"trace.checkpoint_save", "trace.checkpoint_save_ms", 1e3},
		{"trace.checkpoint_load", "trace.checkpoint_load_ms", 1e3},
		{"trace.checkpoint_restore", "trace.checkpoint_restore_ms", 1e3},
	} {
		res.metrics[s.metric] = s.scale * median(sp[s.span])
	}

	cycles := func(o opSample) float64 { return float64(o.cycles) }
	if len(on) > 0 && len(off) > 0 {
		res.metrics["bench.trace_overhead_pct"] = 100 * (rate(off, cycles)/rate(on, cycles) - 1)
	}

	var total int64
	for _, n := range prof.counts {
		total += n
	}
	res.metrics["profile.samples"] = float64(total)
	var sum float64
	for _, d := range selfPctDefs() {
		v := 100 * ratio(float64(prof.counts[strings.TrimSuffix(d.name, ".self_pct")]), float64(total))
		res.metrics[d.name] = v
		sum += v
	}
	if total == 0 {
		res.problems = append(res.problems, "the CPU profile holds no samples")
	} else if math.Abs(sum-100) > 1e-6 {
		res.problems = append(res.problems, fmt.Sprintf("self_pct shares sum to %.6f%%, not 100%%", sum))
	}
	res.notes = append(res.notes, fmt.Sprintf("profile: %d samples over %d traced operations; self_pct shares sum to %.4f%%",
		total, len(on), sum))
	return nil
}

// profiler switches the CPU profile on and off between operations and
// accumulates what the profiled operations cost the Go runtime. Its
// zero value is off.
type profiler struct {
	on      bool
	buf     bytes.Buffer
	counts  map[string]int64
	runtime runtimeSample
}

func (p *profiler) set(on bool) error {
	if on == p.on {
		return nil
	}
	p.on = on
	if on {
		p.buf.Reset()
		// A rate set before StartCPUProfile overrides its default 100 Hz
		// (the runtime notes the override on standard error).
		runtime.SetCPUProfileRate(profileHz)
		return pprof.StartCPUProfile(&p.buf)
	}
	pprof.StopCPUProfile()
	if p.counts == nil {
		p.counts = map[string]int64{}
	}
	return addProfile(p.buf.Bytes(), p.counts)
}

// readRuntime reads the runtime counters before a profiled operation.
func (p *profiler) readRuntime() runtimeSample {
	if !p.on {
		return runtimeSample{}
	}
	return readRuntime()
}

// addRuntime accumulates a profiled operation's runtime cost.
func (p *profiler) addRuntime(before runtimeSample) {
	if p.on {
		p.runtime = p.runtime.add(readRuntime().sub(before))
	}
}

func wallsOf(ops []opSample) []float64 {
	out := make([]float64, len(ops))
	for i, o := range ops {
		out[i] = o.wall
	}
	return out
}

// rate is the work the operations completed per host second: their
// summed work over their summed wall time.
func rate(ops []opSample, work func(opSample) float64) float64 {
	var w, t float64
	for _, o := range ops {
		w += work(o)
		t += o.wall
	}
	return ratio(w, t)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// timingNote reports operation time as a median and the highest of
// p99/p90 with at least ten operations beyond it.
func timingNote(ops []opSample) string {
	walls := wallsOf(ops)
	note := fmt.Sprintf("op_time_ms median %.3f", 1e3*median(walls))
	for _, q := range []float64{0.99, 0.9} {
		if float64(len(walls))*(1-q) >= 10 {
			note += fmt.Sprintf(" p%.0f %.3f", 100*q, 1e3*quantile(walls, q))
			break
		}
	}
	return note + fmt.Sprintf(" (n=%d, first operation excluded)", len(walls))
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// hostStealTicks reads the host's total and stolen CPU time, in clock
// ticks, from the aggregate line of /proc/stat.
func hostStealTicks() (total, steal float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f); i++ {
		v, _ := strconv.ParseFloat(f[i], 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return total, steal
}

// machine is the context every record carries.
func machine(seed int64) map[string]any {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{
		"cores": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "cpu_model": model,
		"go": runtime.Version(), "commit": commit, "seed": seed,
	}
}

func (res *result) print(out io.Writer) error {
	ctx, err := json.Marshal(machine(res.seed))
	if err != nil {
		return err
	}
	defs := endToEnd
	if res.traced {
		defs = perLayer
	}
	fmt.Fprintf(out, "perfbench %s seed=%d trace=%v\n", res.workload, res.seed, res.traced)
	fmt.Fprintf(out, "machine %s\n", ctx)
	metrics := map[string]any{}
	for _, d := range defs {
		v := res.metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			res.problems = append(res.problems, d.name+" is not a finite number")
			v = 0
		}
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
		fmt.Fprintf(out, "  %-30s %16.6g %s\n", d.name, v, d.unit)
	}
	fmt.Fprintf(out, "  %-30s %16.6g (%d failed of %d operations)\n", "op_fail_ratio",
		ratio(float64(res.failedOps), float64(res.attempted)), res.failedOps, res.attempted)
	for _, n := range res.notes {
		fmt.Fprintln(out, n)
	}
	if res.digest == "" {
		res.problems = append(res.problems, "the run ended before its digest window")
	}
	fmt.Fprintf(out, "digest %s\n", res.digest)
	for i, p := range res.problems {
		if i == maxProblemLines {
			fmt.Fprintf(out, "FAILED: %d more\n", len(res.problems)-i)
			break
		}
		fmt.Fprintln(out, "FAILED:", p)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   len(res.problems) == 0,
		"attempted": res.attempted,
		"failed":    res.failedOps,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}
