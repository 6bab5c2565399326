package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the smoke test compares
// against the metric tables.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// exercised names, per workload, the per-layer metrics that must be
// non-zero in a traced run: the layers the workload is chosen to reach.
var exercised = map[string][]string{
	"blast16": {"rt.send_ns_per_pkt", "rt.forwards_per_pkt", "rt.deliveries_per_pkt",
		"chanfabric.inflight_mean", "chanfabric.cycle_ns", "lsa.encode_ns_64", "lsa.decode_ns_64",
		"lsa.patch_ns_1024", "fib.lookup_ns", "rt.stage_coverage", "runtime.cpu_util", "runtime.cpu_ns_per_op"},
	"churn64": {"route.compute_ns", "route.calls_per_event", "core.compute_ns_per_event", "core.step_ns",
		"lsa.flood_decode_ns", "fib.compile_ns", "rt.fib_compiles_per_event", "rt.installs_per_event",
		"rt.inject_ns", "obs.span_computations_per_event", "obs.span_floods_per_event",
		"obs.span_converge_p50_ms", "runtime.cpu_util", "runtime.cpu_ns_per_op"},
	"paced_udp16": {"workload.gen_late_p99_ms", "udp.cycle_ns", "rt.send_ns_per_pkt",
		"rt.fib_compiles_per_event", "lsa.patch_ns_1024", "fib.lookup_ns", "runtime.cpu_util", "runtime.cpu_ns_per_op"},
	"check_ring5": {"explore.states", "explore.transitions", "explore.ns_per_transition",
		"explore.alloc_bytes_per_transition", "explore.route_frac", "route.compute_ns", "runtime.cpu_util", "runtime.cpu_ns_per_op"},
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFileMatchesTables pins BENCHMARK.json to the metrics and
// workloads the program reports.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, program has %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
	compare := func(kind string, file []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, defs []metricDef) {
		if len(file) != len(defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", kind, len(file), len(defs))
			return
		}
		for i, d := range defs {
			if file[i].Name != d.name || file[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, file[i].Name, file[i].Unit, d.name, d.unit)
			}
		}
	}
	compare("end_to_end", bf.EndToEnd, endToEnd)
	compare("per_layer", bf.PerLayer, perLayer)
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that the output checks pass and every named metric is emitted.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			t.Run(name+map[bool]string{false: "/plain", true: "/traced"}[traced], func(t *testing.T) {
				cfg := runConfig{workload: name, seed: 7, window: 400 * time.Millisecond, trace: traced, outDir: t.TempDir()}
				res, err := workloads[name](cfg)
				if err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				if err := report(&out, cfg, res); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var line resultLine
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, out.String())
				}
				if !line.Correct || line.Failed != 0 || line.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", line.Correct, line.Attempted, line.Failed, out.String())
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(line.Metrics) != len(defs) {
					t.Errorf("%d metrics emitted, want %d", len(line.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := line.Metrics[d.name]
					if !ok {
						t.Errorf("metric %s missing", d.name)
						continue
					}
					if m.Unit != d.unit {
						t.Errorf("metric %s unit %q, want %q", d.name, m.Unit, d.unit)
					}
					if !traced && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, m.Value)
					}
				}
				if traced {
					for _, m := range exercised[name] {
						if line.Metrics[m].Value <= 0 {
							t.Errorf("per-layer metric %s = %v on a workload that exercises it", m, line.Metrics[m].Value)
						}
					}
				}
			})
		}
	}
}
