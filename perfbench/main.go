// Command perfbench is the repository's benchmark. It drives the engine
// and the vqed daemon through their public entry points only
// (runspec.Run in process, and the /v1 HTTP API of an in-process daemon),
// checks their outputs, and prints one JSON result line:
//
//	perfbench --workload water-vqe --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// spans and engine telemetry off. With --trace 1 the run is repeated with
// spans around every layer call and the engine's telemetry on, and the
// result carries the per-layer metrics instead. See README.md beside this
// file for the workloads and metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the system sees; every workload reports all
// of them on a --trace 0 run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"solve_s", "s"},
	{"evals_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"jobs_per_s", "1/s"},
	{"job_e2e_p50_ms", "ms"},
}

// perLayer is reported by every workload on a --trace 1 run; a layer a
// workload does not exercise reads 0.
var perLayer = []metricDef{
	{"setup.molecule_ms", "ms"}, {"setup.observable_ms", "ms"}, {"setup.fci_ms", "ms"},
	{"setup.plan_ms", "ms"}, {"setup.daemon_boot_ms", "ms"},
	{"ansatz.circuit_ms", "ms"}, {"ansatz.gates", "count"},
	{"state.prepare_ms", "ms"}, {"state.gates_per_s", "1/s"}, {"state.prepare_bytes", "B"},
	{"state.pool_speedup", "ratio"},
	{"pauli.evaluate_ms", "ms"}, {"pauli.matvec_ms", "ms"}, {"pauli.terms", "count"},
	{"pauli.groups", "count"}, {"pauli.evaluate_bytes", "B"}, {"pauli.evaluate_share", "ratio"},
	{"vqe.energy_ms", "ms"}, {"vqe.gradient_ms", "ms"}, {"vqe.prepare_share", "ratio"},
	{"vqe.expect_share", "ratio"}, {"vqe.gradient_share", "ratio"}, {"vqe.energy_evals", "count"},
	{"vqe.gradient_calls", "count"}, {"vqe.ansatz_executions", "count"}, {"vqe.gates_applied", "count"},
	{"adapt.iterations", "count"}, {"adapt.iteration_ms", "ms"}, {"adapt.pool_gradients_ms", "ms"},
	{"opt.iterations", "count"}, {"opt.self_ms", "ms"},
	{"server.admit_ms", "ms"}, {"server.queue_wait_ms", "ms"}, {"server.run_ms", "ms"},
	{"server.notify_ms", "ms"}, {"server.cache_hit_ratio", "ratio"}, {"server.rejected", "count"},
	{"server.retried", "count"},
	{"journal.appends_per_job", "ratio"}, {"journal.syncs_per_append", "ratio"},
	{"journal.bytes_per_job", "B"},
	{"sweep.point_ms", "ms"}, {"sweep.warm_start_ratio", "ratio"}, {"sweep.evals_per_point", "count"},
	{"serve.job_e2e_tail_ms", "ms"}, {"serve.job_e2e_tail_pct", "%"}, {"serve.hit_e2e_p50_ms", "ms"},
	{"serve.sweep_e2e_p50_ms", "ms"}, {"serve.job_unaccounted_ms", "ms"},
	{"trace.solve_s", "s"}, {"trace.overhead_pct", "%"}, {"trace.spans", "count"},
	{"failed_share", "ratio"},
}

// outcome is what a workload run hands back to main.
type outcome struct {
	attempted, failed int
	// problems lists every failed check, for the log.
	problems []string
	metrics  map[string]float64
	spans    *Recorder
}

// check counts one verified operation, recording a failure when ok is false.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.failed++
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
}

// workloads maps each workload name to its runner; BENCHMARK.json at the
// repository root says why each exists.
var workloads = map[string]func(cfg config) (*outcome, error){
	"water-vqe":    engineRunner(waterVQE),
	"water-adapt":  engineRunner(waterAdapt),
	"hea14-expect": engineRunner(hea14),
	"serve-mix":    runServe,
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&cfg.seconds, "seconds", 20, "measurement budget in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory for spool and span files")
	flag.Parse()
	cfg.trace = trace == 1

	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds < 1 || trace < 0 || trace > 1 {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --seconds ≥ 1 and --trace 0|1\n", names)
		os.Exit(2)
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	env, _ := json.Marshal(readEnvironment())
	fmt.Printf("env %s\n", env)

	o, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	if cfg.trace {
		o.metrics["trace.spans"] = float64(len(o.spans.Spans()))
		path := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-%d.json", cfg.workload, cfg.seed))
		if err := o.spans.WriteFile(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
		}
	}
	if o.attempted > 0 {
		o.metrics["failed_share"] = float64(o.failed) / float64(o.attempted)
	}
	for _, p := range o.problems {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", p)
	}
	if !printResult(cfg, o) {
		os.Exit(1)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult prints the metric table and, last, the JSON result line.
// It reports whether the run is correct.
func printResult(cfg config, o *outcome) bool {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	ms := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v := o.metrics[d.name]
		ms[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Printf("metric %-26s %16.6g %s\n", d.name, v, d.unit)
	}
	correct := o.failed == 0 && o.attempted > 0
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{correct, max(o.attempted, 1), o.failed, ms})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return false
	}
	fmt.Println(string(line))
	return correct
}
