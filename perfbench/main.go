// Command perfbench is the repository benchmark: it drives the live
// runtime (rt.Cluster over rt.ChanFabric or rt.UDPFabric) and the model
// checker (explore.Exhaustive) through their public APIs, checks every
// output, and prints one JSON result line.
//
//	perfbench --workload blast16 --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics, and a span dump is written under
// --out. README.md lists the workloads and the layer-to-metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them; what an "op" is depends on the workload (a
// delivered packet, a converged membership event, an explored state).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"peak_mem_mb", "MB"},
	{"ok_frac", "frac"},
	{"computations_per_event", "count"},
	{"floods_per_event", "count"},
}

// perLayer are the traced run's metrics, named after the modules. A layer a
// workload does not exercise reports 0.
var perLayer = []metricDef{
	{"workload.failed_frac", "frac"},
	{"workload.latency_p99_ms", "ms"},
	{"workload.blocked_frac", "frac"},
	{"workload.gen_late_p99_ms", "ms"},
	{"rt.send_ns_per_pkt", "ns"},
	{"rt.forwards_per_pkt", "count"},
	{"rt.deliveries_per_pkt", "count"},
	{"rt.drops", "count"},
	{"rt.fib_compiles_per_event", "count"},
	{"rt.installs_per_event", "count"},
	{"rt.inject_ns", "ns"},
	{"rt.stage_coverage", "frac"},
	{"chanfabric.inflight_mean", "count"},
	{"chanfabric.cycle_ns", "ns"},
	{"udp.cycle_ns", "ns"},
	{"lsa.encode_ns_64", "ns"},
	{"lsa.encode_ns_1024", "ns"},
	{"lsa.decode_ns_64", "ns"},
	{"lsa.decode_ns_1024", "ns"},
	{"lsa.patch_ns_64", "ns"},
	{"lsa.patch_ns_1024", "ns"},
	{"lsa.flood_decode_ns", "ns"},
	{"fib.lookup_ns", "ns"},
	{"fib.compile_ns", "ns"},
	{"core.compute_ns_per_event", "ns"},
	{"core.step_ns", "ns"},
	{"core.resync_requests", "count"},
	{"route.compute_ns", "ns"},
	{"route.calls_per_event", "count"},
	{"explore.states", "count"},
	{"explore.transitions", "count"},
	{"explore.ns_per_transition", "ns"},
	{"explore.alloc_bytes_per_transition", "B"},
	{"explore.gc_cpu_frac", "frac"},
	{"explore.route_frac", "frac"},
	{"obs.trace_overhead_frac", "frac"},
	{"obs.span_computations_per_event", "count"},
	{"obs.span_floods_per_event", "count"},
	{"obs.span_converge_p50_ms", "ms"},
	{"runtime.cpu_ns_per_op", "ns"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.gc_cpu_frac", "frac"},
	{"runtime.cpu_util", "frac"},
}

// runConfig is one invocation's parameters.
type runConfig struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	outDir   string
}

// result is what a workload run hands back: its outcome counts, the
// metrics it measured, and any failed output checks.
type result struct {
	attempted, failed uint64
	metrics           map[string]float64
	fabric            string
	checkErrs         []string
	spans             *recorder
}

func newResult(fabric string, spans *recorder) *result {
	return &result{metrics: map[string]float64{}, fabric: fabric, spans: spans}
}

// check records a failed output check.
func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.checkErrs = append(r.checkErrs, fmt.Sprintf(format, args...))
	}
}

// outcome records the run's attempted and failed operation counts and the
// ok_frac and workload.failed_frac they give.
func (r *result) outcome(attempted, failed uint64) {
	if failed > attempted {
		failed = attempted
	}
	r.attempted, r.failed = attempted, failed
	frac := div(float64(failed), float64(attempted))
	r.metrics["ok_frac"] = 1 - frac
	r.metrics["workload.failed_frac"] = frac
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(runConfig) (*result, error){
	"blast16":     runBlast,
	"churn64":     runChurn,
	"paced_udp16": runPaced,
	"check_ring5": runCheck,
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "traces"), "directory for traced-run span dumps")
	if err := fs.Parse(args); err != nil {
		return err
	}
	runner, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	cfg := runConfig{workload: *name, seed: *seed, window: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, outDir: *out}
	res, err := runner(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", *name, err)
	}
	return report(w, cfg, res)
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// runContext describes the host and the run, so results from different
// hosts are never compared blindly.
type runContext struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	Fabric     string `json:"fabric"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

func newRunContext(cfg runConfig, fabric string) runContext {
	return runContext{
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Seconds:    int(cfg.window / time.Second),
		Trace:      cfg.trace,
		Fabric:     fabric,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
	}
}

// cpuModel reads the processor name from /proc/cpuinfo ("unknown" where
// that file does not exist).
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted uint64               `json:"attempted"`
	Failed    uint64               `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// report prints the run context, one line per metric, the check verdicts,
// and finally the JSON result line. A traced run also writes its span dump.
func report(w io.Writer, cfg runConfig, res *result) error {
	ctx := newRunContext(cfg, res.fabric)
	ctxJSON, err := json.Marshal(ctx)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "context %s\n", ctxJSON)
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	line := resultLine{
		Correct:   len(res.checkErrs) == 0 && res.attempted > 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   map[string]metricOut{},
	}
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok && !cfg.trace {
			return fmt.Errorf("workload %s did not measure %s", cfg.workload, d.name)
		}
		line.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "metric %-36s %16.6g %s\n", d.name, v, d.unit)
	}
	for _, e := range res.checkErrs {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", e)
	}
	if cfg.trace {
		path, err := writeTrace(cfg, ctx, res)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "spans %s\n", path)
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", out)
	return nil
}
