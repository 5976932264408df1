package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// This file attributes CPU-profile samples to layers. It decodes the
// few fields of the gzipped profile.proto that runtime/pprof writes
// which it needs: each sample's leaf location and count, each
// location's innermost function, and function names.

// selfLayers are the internal/ packages the workloads can reach, each
// reported as <name>.self_pct. Samples whose leaf function lies in the
// Go runtime count as runtime; everything else (standard library, the
// benchmark, other packages) counts as other.
var selfLayers = []string{
	"cache", "cpu", "dram", "emtrace", "exp", "geom", "gfx", "gl", "gpu",
	"guard", "interconnect", "mathx", "mem", "par", "raster", "sample",
	"sched", "shader", "simt", "soc", "stats", "telemetry", "trace",
}

// layerOf maps a fully qualified Go function name to its layer.
func layerOf(fn string) string {
	// The package path ends at the first '.' after the last '/' that
	// precedes any receiver or type-parameter bracket.
	prefix := fn
	if i := strings.IndexAny(fn, "[("); i >= 0 {
		prefix = fn[:i]
	}
	slash := strings.LastIndex(prefix, "/")
	pkg := prefix
	if dot := strings.Index(prefix[slash+1:], "."); dot >= 0 {
		pkg = prefix[:slash+1+dot]
	}
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(pkg, "emerald/internal/"):
		name := strings.SplitN(strings.TrimPrefix(pkg, "emerald/internal/"), "/", 2)[0]
		for _, l := range selfLayers {
			if l == name {
				return name
			}
		}
	}
	return "other"
}

// addProfile adds a CPU profile's sample counts to counts, by the
// layer of each sample's leaf function.
func addProfile(gz []byte, counts map[string]int64) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	var (
		strs     []string
		funcName = map[uint64]int64{}  // function id -> string index
		locFunc  = map[uint64]uint64{} // location id -> leaf function id
		leaves   [][2]uint64           // leaf location id, sample count
	)
	err = fields(raw, func(num, wt int, v uint64, b []byte) error {
		switch {
		case num == 2 && wt == 2: // Sample
			var locs, vals []uint64
			err := fields(b, func(num, wt int, v uint64, b []byte) error {
				switch num {
				case 1:
					locs = append(locs, varints(wt, v, b)...)
				case 2:
					vals = append(vals, varints(wt, v, b)...)
				}
				return nil
			})
			if err != nil || len(locs) == 0 || len(vals) == 0 {
				return err
			}
			leaves = append(leaves, [2]uint64{locs[0], vals[0]})
		case num == 4 && wt == 2: // Location
			var id, fn uint64
			seenLine := false
			err := fields(b, func(num, wt int, v uint64, b []byte) error {
				switch {
				case num == 1:
					id = v
				case num == 4 && wt == 2 && !seenLine: // first Line is the innermost
					seenLine = true
					return fields(b, func(num, _ int, v uint64, _ []byte) error {
						if num == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			locFunc[id] = fn
			return err
		case num == 5 && wt == 2: // Function
			var id uint64
			var name int64
			err := fields(b, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case num == 6 && wt == 2: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, l := range leaves {
		name := ""
		if si, ok := funcName[locFunc[l[0]]]; ok && si >= 0 && int(si) < len(strs) {
			name = strs[si]
		}
		counts[layerOf(name)] += int64(l[1])
	}
	return nil
}

// fields walks the protobuf fields of b, calling f with each field's
// number, wire type, and varint value or length-delimited bytes.
func fields(b []byte, f func(num, wt int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("profile: bad field key")
		}
		b = b[n:]
		num, wt := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wt {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("profile: bad varint")
			}
			b = b[n:]
		case 1, 5:
			size := 8
			if wt == 5 {
				size = 4
			}
			if len(b) < size {
				return fmt.Errorf("profile: truncated fixed field")
			}
			b = b[size:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("profile: bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wt)
		}
		if err := f(num, wt, v, data); err != nil {
			return err
		}
	}
	return nil
}

// varints decodes a repeated varint field, packed or not.
func varints(wt int, v uint64, b []byte) []uint64 {
	if wt == 0 {
		return []uint64{v}
	}
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		out = append(out, x)
		b = b[n:]
	}
	return out
}
