package main

import (
	"runtime/metrics"
	"strings"

	"emerald/internal/stats"
)

// counterMetrics derives the per-layer counter metrics from a registry
// snapshot covering the given simulated frames, cycles and skipped
// cycles. Counts are per simulated frame. A nil registry (a workload
// whose simulator keeps its registries to itself) gives zeros for
// every registry-backed metric.
func counterMetrics(reg *stats.Registry, frames int, cycles, skipped uint64) map[string]float64 {
	var (
		warpInstr, issueIdle, memStalls            float64
		l1Accesses, l1Misses, l2Accesses, l2Misses float64
		dramBytes, rowHits, rows, rejected, served float64
		transferred, nocStalls                     float64
		cpuInstr, cpuStalls                        float64
		dropped, fragments, hizCulled, tcTiles     float64
	)
	if reg != nil {
		reg.Each(func(name string, v int64) {
			x := float64(v)
			parts := strings.Split(name, ".")
			last := parts[len(parts)-1]
			scope := ""
			if len(parts) > 1 {
				scope = parts[len(parts)-2]
			}
			core := strings.HasPrefix(name, "gpu.core") && len(parts) == 3
			cpu := strings.HasPrefix(name, "cpu") && len(parts) == 2
			l1 := strings.HasPrefix(scope, "l1")
			dram := parts[0] == "dram"
			switch {
			case core && last == "instructions":
				warpInstr += x
			case core && last == "issue_idle":
				issueIdle += x
			case core && last == "mem_stalls":
				memStalls += x
			case l1 && last == "accesses":
				l1Accesses += x
			case l1 && last == "misses":
				l1Misses += x
			case scope == "l2" && last == "accesses":
				l2Accesses += x
			case scope == "l2" && last == "misses":
				l2Misses += x
			case dram && last == "bytes":
				dramBytes += x
			case dram && last == "row_hits":
				rowHits += x
				rows += x
			case dram && (last == "row_misses" || last == "row_conflicts"):
				rows += x
			case dram && strings.HasPrefix(last, "served_"):
				served += x
			case name == "dram.rejected":
				rejected += x
			case last == "transferred":
				transferred += x
			case last == "stalls":
				nocStalls += x
			case cpu && last == "instructions":
				cpuInstr += x
			case cpu && last == "stall_cycles":
				cpuStalls += x
			case name == "display.frames_dropped":
				dropped += x
			case name == "gpu.fragments_shaded":
				fragments += x
			case name == "gpu.hiz_culled_tiles":
				hizCulled += x
			case last == "tc_tiles_out":
				tcTiles += x
			}
		})
	}
	perFrame := func(v float64) float64 { return ratio(v, float64(frames)) }
	return map[string]float64{
		"simt.warp_instr":          perFrame(warpInstr),
		"simt.issue_idle_frac":     ratio(issueIdle, issueIdle+warpInstr),
		"simt.mem_stall_cycles":    perFrame(memStalls),
		"cache.accesses":           perFrame(l1Accesses + l2Accesses),
		"cache.l1_miss_rate":       ratio(l1Misses, l1Accesses),
		"cache.l2_miss_rate":       ratio(l2Misses, l2Accesses),
		"dram.bytes":               perFrame(dramBytes),
		"dram.row_hit_rate":        ratio(rowHits, rows),
		"dram.rejects_per_served":  ratio(rejected, served),
		"interconnect.transferred": perFrame(transferred),
		"interconnect.stall_frac":  ratio(nocStalls, nocStalls+transferred),
		"cpu.instructions":         perFrame(cpuInstr),
		"cpu.stall_cycles":         perFrame(cpuStalls),
		"soc.skipped_frac":         ratio(float64(skipped), float64(cycles)),
		"soc.display_dropped":      perFrame(dropped),
		"gpu.fragments_shaded":     perFrame(fragments),
		"gpu.hiz_culled_tiles":     perFrame(hizCulled),
		"gfx.tc_tiles_out":         perFrame(tcTiles),
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runtimeSample is a reading of the Go runtime's allocation and CPU
// counters.
type runtimeSample struct {
	allocs, allocBytes, gcCPU, usedCPU float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/user:cpu-seconds",
	"/cpu/classes/scavenge/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	gc := v(2)
	return runtimeSample{allocs: v(0), allocBytes: v(1), gcCPU: gc, usedCPU: gc + v(3) + v(4)}
}

func (a runtimeSample) sub(b runtimeSample) runtimeSample {
	return runtimeSample{a.allocs - b.allocs, a.allocBytes - b.allocBytes, a.gcCPU - b.gcCPU, a.usedCPU - b.usedCPU}
}

func (a runtimeSample) add(b runtimeSample) runtimeSample {
	return runtimeSample{a.allocs + b.allocs, a.allocBytes + b.allocBytes, a.gcCPU + b.gcCPU, a.usedCPU + b.usedCPU}
}
