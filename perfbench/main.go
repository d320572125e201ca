// Command perfbench is the repository benchmark. One invocation runs one
// workload from one seed, checks every value the program returns, and
// prints every metric by name with its unit. The workloads and metrics
// are listed in BENCHMARK.json at the repository root; run.sh builds and
// runs this command:
//
//	bash perfbench/run.sh --workload wire-rd95z --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the last line reports the end-to-end metrics; with
// --trace 1 it reports the per-layer metrics of a traced run, whose spans
// are written to <out>/trace-<workload>.tsv when the run ends. The line
// before it holds the host facts, sample counts and the per-layer metrics
// the workload's public stats cannot supply ("absent", reported as 0).
//
//ss:host(benchmark load generator; plays the clients and the operator, entirely outside the enclave)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
)

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name (see BENCHMARK.json)")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: keys' access order and op mix")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.out, "out", ".bench_build/perfbench", "directory for traces and value-log scratch")
	flag.Parse()
	o.trace = trace == 1
	o.scale = 1

	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	info, err := json.Marshal(res.info)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res.report)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(info))
	fmt.Println(string(line))
	if !res.report.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: output check failed:", res.info.CheckError)
		os.Exit(1)
	}
}

// options configure one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	// scale divides every workload's key count (tests run tiny sizes).
	scale int
	// corrupt, when set, edits the generated inputs before the run
	// (tests use it to prove the output check catches a wrong value).
	corrupt func(*inputs)
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the --trace 0 metrics, in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_us_per_op", "us"},
	{"get_p50_us", "us"},
	{"set_p50_us", "us"},
	{"vthroughput_kops", "kop/s"},
	{"space_amp", "x"},
	{"heap_mb", "MB"},
}

// perLayer are the --trace 1 metrics, in BENCHMARK.json order.
var perLayer = []metricDef{
	{"loadgen.late_p99_us", "us"},
	{"client.self_us_p50", "us"},
	{"client.wait_us_p50", "us"},
	{"client.reads_per_op", "count"},
	{"client.writes_per_op", "count"},
	{"server.self_us_p50", "us"},
	{"server.write_us_p50", "us"},
	{"server.reads_per_op", "count"},
	{"server.writes_per_op", "count"},
	{"server.bytes_per_op", "B"},
	{"core.get_us_p50", "us"},
	{"core.get_us_p99", "us"},
	{"core.set_us_p50", "us"},
	{"core.set_us_p99", "us"},
	{"core.vlat_p50_us", "us"},
	{"core.vlat_p99_us", "us"},
	{"core.decrypts_per_op", "count"},
	{"core.cmacs_per_op", "count"},
	{"core.entries_visited_per_op", "count"},
	{"core.cache_hit_frac", "frac"},
	{"sgx.ocalls_per_op", "count"},
	{"sgx.hotcalls_per_op", "count"},
	{"sgx.epc_faults_per_op", "count"},
	{"mem.untrusted_mb", "MB"},
	{"mem.enclave_mb", "MB"},
	{"vlog.faults_per_get", "count"},
	{"vlog.spills_per_set", "count"},
	{"vlog.gc_copies_per_set", "count"},
	{"vlog.segments", "count"},
	{"vlog.disk_amp", "x"},
	{"cluster.server_requests_per_op", "count"},
	{"cluster.shard_skew", "x"},
	{"repl.frames_per_set", "count"},
	{"repl.applied_per_set", "count"},
	{"repl.lag_frames_max", "count"},
	{"repl.lag_frames_end", "count"},
	{"trace.overhead_frac", "frac"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last output line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// hostInfo is the line before the report: what the numbers were
// measured on and from how many samples.
type hostInfo struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Trace      bool    `json:"trace"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	OfferedOps float64 `json:"offered_ops_s,omitempty"`
	// ThroughputOps is the closed loop's completed ops per wall second
	// (median over half-second windows); StealFrac the share of the VM's
	// CPU time the hypervisor took from it meanwhile.
	ThroughputOps float64 `json:"throughput_ops_s,omitempty"`
	StealFrac     float64 `json:"steal_frac"`
	// OpenLoop holds the traced open-loop phase's latencies, timed from
	// each op's due time.
	OpenLoop map[string]float64 `json:"open_loop,omitempty"`
	// Wall holds the closed loop's wall latencies (us) as measured,
	// without the steal adjustment of the reported p50s.
	Wall       map[string]float64 `json:"wall_latency_us,omitempty"`
	Samples    map[string]int     `json:"samples"`
	ErrorFrac  float64            `json:"error_frac"`
	WrongValue int                `json:"wrong_values"`
	CheckError string             `json:"check_error,omitempty"`
	Absent     []string           `json:"absent,omitempty"`
	TraceFile  string             `json:"trace_file,omitempty"`
}

// result is what run returns: the report and its host facts.
type result struct {
	report report
	info   hostInfo
}

// finish fills the report's metrics from vals in the order of defs. A
// metric missing from vals is reported as 0 and listed as absent.
func finish(res *result, defs []metricDef, vals map[string]float64) {
	res.report.Metrics = make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			res.info.Absent = append(res.info.Absent, d.name)
		}
		res.report.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	sort.Strings(res.info.Absent)
	res.info.NProc = runtime.NumCPU()
	res.info.GOMAXPROCS = runtime.GOMAXPROCS(0)
	res.info.GoVersion = runtime.Version()
}
