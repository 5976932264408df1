package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestDigest checks the digest contract on every workload: two
// untraced runs at one seed give one digest, and the traced run gives
// the same digest as the untraced ones. A run of zero seconds covers
// exactly the digest window.
func TestDigest(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			if testing.Short() && w.name == "sampled-w3-long" {
				t.Skip("renders the whole 480-frame scenario in detail")
			}
			var digests []string
			for _, traced := range []bool{false, false, true} {
				res, err := run(w, 3, 0, traced)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.problems) > 0 || res.digest == "" {
					t.Fatalf("traced=%v: problems %v, digest %q", traced, res.problems, res.digest)
				}
				digests = append(digests, res.digest)
			}
			if digests[0] != digests[1] {
				t.Errorf("two runs at one seed: digests %s and %s", digests[0], digests[1])
			}
			if digests[0] != digests[2] {
				t.Errorf("untraced digest %s, traced %s", digests[0], digests[2])
			}
		})
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json declares the workloads
// and metrics this program runs and prints, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i := range spec.Workloads {
		if i < len(workloads) && spec.Workloads[i].Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, spec.Workloads[i].Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		kind string
		spec []metric
		defs []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.spec) != len(c.defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", c.kind, len(c.spec), len(c.defs))
			continue
		}
		for i, d := range c.defs {
			if c.spec[i].Name != d.name || c.spec[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]",
					c.kind, i, c.spec[i].Name, c.spec[i].Unit, d.name, d.unit)
			}
		}
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"emerald/internal/simt.(*Core).Tick":                                         "simt",
		"emerald/internal/simt.(*Core).issueOne.func1":                               "simt",
		"emerald/internal/par.(*Queue[go.shape.*emerald/internal/mem.Request]).Push": "par",
		"emerald/internal/cache.lookup[...]":                                         "cache",
		"emerald/internal/sweep.(*Runner).Submit":                                    "other",
		"runtime.mallocgc":                        "runtime",
		"internal/runtime/maps.(*Map).getWithKey": "runtime",
		"runtime/internal/atomic.Xadd":            "runtime",
		"sort.Slice":                              "other",
		"main.run":                                "other",
		"":                                        "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
