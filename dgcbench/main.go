// Command dgcbench is the repository benchmark. It drives the collector
// from outside, through the public dgc API, on three workloads:
//
//	rmi     the paper's Table 1 call pattern over loopback TCP
//	cycles  garbage-to-swept latency of distributed cycles in the simulator
//	heap    GC rounds over large live heaps under mutator churn
//
// An untraced run (--trace 0) prints the end-to-end metrics; a traced run
// (--trace 1) drives the same inputs phase by phase, records spans around
// every call into a layer, prints the per-layer metrics and writes the spans
// under .bench_build/dgcbench/spans. Every run checks the collector's outputs and exits non-zero on
// a failed check. Build and run it from the repository root with
//
//	bash dgcbench/run.sh --workload cycles --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is the machine-readable result; the line
// before it is the full report (sample counts, ratio bases, stamps).
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric. The lists mirror BENCHMARK.json
// (TestMetricListsMatchBenchmarkJSON keeps them in step).
type metricDef struct{ name, unit string }

// endToEnd metrics are printed by every workload's untraced run. "op" is the
// workload's unit of work: one remote call on rmi, one GCRound on cycles and
// heap.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_us", "us"},
	{"op_p90_us", "us"},
	{"ops_per_s", "1/s"},
	{"allocs_per_op", "count"},
	{"swept_p50_ms", "ms"},
	{"swept_p90_ms", "ms"},
	{"swept_rounds_mean", "rounds"},
	{"msgs_per_swept_obj", "count"},
	{"bytes_per_swept_obj", "B"},
	{"peak_heap_mb", "MB"},
}

// perLayer metrics are printed by every workload's traced run; a layer a
// workload does not exercise reads 0 there.
var perLayer = []metricDef{
	{"heap.mutator_us_per_call", "us"},
	{"node.invoke_us_per_call", "us"},
	{"transport.send_us_per_msg", "us"},
	{"transport.rtt_us_per_call", "us"},
	{"node.handle_us.InvokeRequest", "us"},
	{"node.handle_us.InvokeReply", "us"},
	{"node.handle_us.NewSetStubs", "us"},
	{"node.handle_us.CDM", "us"},
	{"node.handle_us.BatchCDM", "us"},
	{"lgc.reclaim_ms_per_batch", "ms"},
	{"wire.bytes_per_call", "B"},
	{"node.dgc_overhead_pct", "%"},
	{"core.start_ms_per_round", "ms"},
	{"node.cdm_msgs_per_round", "count"},
	{"core.detections_per_round", "count"},
	{"core.race_drops_per_round", "count"},
	{"core.dedups_per_round", "count"},
	{"core.relaunches_per_round", "count"},
	{"core.useful_frac", "ratio"},
	{"transport.fabric_ms_per_round", "ms"},
	{"trace.events_per_round", "count"},
	{"lgc.ms_per_run", "ms"},
	{"lgc.swept_per_run", "count"},
	{"lgc.ms_per_round", "ms"},
	{"snapshot.ms_per_run", "ms"},
	{"snapshot.ms_per_round", "ms"},
	{"snapshot.cache_hit_frac", "ratio"},
	{"heap.churn_ms_per_round", "ms"},
	{"cluster.pool_speedup", "ratio"},
	{"trace.overhead_pct", "%"},
}

// runConfig is what a workload receives: the seed its inputs are generated
// from and how long to measure.
type runConfig struct {
	seed   int64
	budget time.Duration
}

// bench is one workload's untraced and traced runs.
type bench struct {
	untraced func(cfg runConfig, rep *report)
	traced   func(cfg runConfig, rep *report, tr *tracer)
}

var workloads = map[string]bench{
	"rmi":    {untraced: rmiUntraced, traced: rmiTraced},
	"cycles": {untraced: cyclesUntraced, traced: cyclesTraced},
	"heap":   {untraced: heapUntraced, traced: heapTraced},
}

func main() {
	if idleSpinChild() {
		return
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("dgcbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: rmi, cycles or heap")
	seed := fl.Int64("seed", 1, "seed every generated input is derived from")
	seconds := fl.Float64("seconds", 10, "how long to measure")
	traceMode := fl.Int("trace", 0, "1 runs the traced per-layer breakdown instead of the end-to-end metrics")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintf(stderr, "dgcbench: need --workload rmi|cycles|heap, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	if runtime.NumCPU() < 4 {
		fmt.Fprintf(stderr, "dgcbench: warning: num_cpu=%d GOMAXPROCS=%d < 4: cluster.pool_speedup is not a scaling result\n",
			runtime.NumCPU(), runtime.GOMAXPROCS(0))
	}
	traced := *traceMode == 1
	rep := newReport(*name, *seed, traced)
	cfg := runConfig{seed: *seed, budget: time.Duration(*seconds * float64(time.Second))}
	defs := endToEnd
	if traced {
		defs = perLayer
		tr := newTracer()
		w.traced(cfg, rep, tr)
		path := filepath.Join(".bench_build", "dgcbench", "spans", *name+".jsonl.gz")
		if err := tr.write(path); err != nil {
			rep.check(false, "write spans: %v", err)
		} else {
			rep.Notes["spans_file"] = path
			rep.Notes["spans"] = len(tr.spans)
		}
	} else {
		w.untraced(cfg, rep)
	}
	return rep.emit(defs, stdout, stderr)
}

// reported is one metric with the count it was measured over: a sample
// count for timings, the base (denominator) for ratios.
type reported struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	Base    float64 `json:"base,omitempty"`
}

// report accumulates a run's metrics, check failures and notes.
type report struct {
	Workload  string              `json:"workload"`
	Seed      int64               `json:"seed"`
	Traced    bool                `json:"traced"`
	Stamp     map[string]any      `json:"stamp"`
	Metrics   map[string]reported `json:"metrics"`
	Failures  []string            `json:"failed_checks"`
	Attempted int64               `json:"attempted"`
	Failed    int64               `json:"failed"`
	Notes     map[string]any      `json:"notes"`
}

func newReport(name string, seed int64, traced bool) *report {
	return &report{
		Workload: name, Seed: seed, Traced: traced,
		Stamp: map[string]any{
			"num_cpu":       runtime.NumCPU(),
			"gomaxprocs":    runtime.GOMAXPROCS(0),
			"go_version":    runtime.Version(),
			"commit":        commitStamp(),
			"source_sha256": sourceHash("."),
		},
		Metrics:  map[string]reported{},
		Failures: []string{},
		Notes:    map[string]any{},
	}
}

// set records a timing or count measured over samples observations.
func (r *report) set(name string, v float64, samples int) {
	r.Metrics[name] = reported{Value: v, Samples: samples}
}

// setRatio records a ratio with its base.
func (r *report) setRatio(name string, x ratio) {
	r.Metrics[name] = reported{Value: x.value(), Base: x.den}
}

// check records a failed correctness check when ok is false.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// emit prints the report line and the result line and returns the exit
// code: 0 only when every check passed and every metric in defs was set.
func (r *report) emit(defs []metricDef, stdout, stderr io.Writer) int {
	out := make(map[string]reported, len(defs))
	for _, d := range defs {
		m, ok := r.Metrics[d.name]
		if !ok {
			r.check(false, "metric %s was not measured", d.name)
		}
		m.Unit = d.unit
		out[d.name] = m
	}
	r.Metrics = out
	full, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintf(stderr, "dgcbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "report %s\n", full)

	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(r.Failures) == 0, r.Attempted, r.Failed, map[string]metric{}}
	for name, m := range out {
		res.Metrics[name] = metric{m.Value, m.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "dgcbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		for _, f := range r.Failures {
			fmt.Fprintf(stderr, "dgcbench: check failed: %s\n", f)
		}
		return 1
	}
	return 0
}

// commitStamp is the commit run.sh found, or "unknown" outside a git
// checkout.
func commitStamp() string {
	if c := os.Getenv("DGCBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

// sourceHash identifies the measured code where no commit is available: a
// SHA-256 over the paths and contents of every .go file and go.mod under
// root (the checkout: the benchmark runs from its root), build outputs
// excluded.
func sourceHash(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return "unreadable"
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}
