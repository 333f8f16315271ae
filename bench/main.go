// Command bench is the repository's benchmark: one command that builds
// a workload's inputs from a seed, runs it for a fixed time, checks
// every output against the full longest-prefix-match oracle, and prints
// every metric by name and unit. BENCHMARK.json at the repository root
// names the workloads and metrics and fixes each metric's regression
// bound; README.md in this directory says why each exists and which
// layer should move which number.
//
//	go run ./bench -workload fwd-paper-hot -seed 1999 -seconds 10 -trace 0
//	go run ./bench -compare a.jsonl b.jsonl
//
// The last line of standard output is the result object the driver
// reads. -out appends the full record — host fingerprint, per-metric
// quartiles and sample counts — to a file -compare reads.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"time"

	"repro/internal/fastpath"
)

// metricDef is a metric's name and unit as this program emits it;
// direction and bound live in BENCHMARK.json.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the system sees. Every workload reports
// every one of them, measured with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"fwd_vs_ref", "share"},
	{"bytes_per_prefix", "B"},
	{"refs_per_pkt", "count"},
	{"peak_rss_mb", "MiB"},
}

// perLayer is the cost budget, named <module>.<metric>. A workload that
// does not exercise a layer reports 0 for it.
var perLayer = []metricDef{
	{"synth.universe_s", "s"}, {"synth.dests_s", "s"}, {"core.preprocess_s", "s"},
	{"fastpath.compile_s", "s"}, {"churn.prepare_s", "s"}, {"bench.verify_s", "s"},

	{"header.peek_ns_per_pkt", "ns"}, {"header.rewrite_ns_per_pkt", "ns"}, {"header.peek_fail", "count"},
	{"fastpath.process_ns_per_pkt", "ns"}, {"fastpath.claim1_hit_share", "share"},
	{"fastpath.search_share", "share"}, {"fastpath.allocs_per_pkt", "count"},
	{"fastpath.slot_bytes", "B"}, {"fastpath.trie_index_bytes", "B"}, {"fastpath.dict_bytes", "B"},

	{"fastpath.vis_p50_ms", "ms"}, {"fastpath.vis_p90_ms", "ms"}, {"fastpath.vis_p99_ms", "ms"},
	{"fastpath.apply_ms_p50", "ms"}, {"fastpath.apply_ms_p99", "ms"}, {"fastpath.apply_us_per_op", "us"},
	{"fastpath.apply_wait_ms_p50", "ms"}, {"fastpath.apply_busy_share", "share"},
	{"fastpath.applies", "count"}, {"fastpath.fallbacks", "count"}, {"fastpath.recompiles", "count"},
	{"fastpath.compactions", "count"}, {"fastpath.coalesced", "count"},
	{"fastpath.probe_stalls", "count"}, {"fastpath.sweep_mismatches", "count"},
	{"fastpath.fwd_ratio_under_churn", "share"},

	{"core.process_ns_per_pkt", "ns"}, {"telemetry.record_ns_per_pkt", "ns"},
	{"pipeline.handoff_ns_per_pkt", "ns"}, {"pipeline.worker_busy_share", "share"},

	{"bench.fwd_pps", "1/s"}, {"bench.ref_pps", "1/s"},
	{"bench.lat_p50_us", "us"}, {"bench.lat_p90_us", "us"}, {"bench.lat_p99_us", "us"}, {"bench.lat_p999_us", "us"},
	{"bench.loop_self_ns_per_pkt", "ns"}, {"bench.layer_sum_share", "share"},
	{"bench.traced_fwd_pps", "1/s"}, {"bench.trace_overhead_share", "share"},
	{"bench.gen_cpu_busy_share", "share"},
}

// wireLayer is what only the wire-chain3 diagnostic measures; these are
// not in BENCHMARK.json.
var wireLayer = []metricDef{
	{"cluster.build_s", "s"}, {"cluster.launch_s", "s"}, {"cluster.warm_s", "s"},
	{"batchio.send_ns_per_pkt", "ns"}, {"batchio.recv_ns_per_pkt", "ns"},
	{"batchio.send_batch_mean", "count"}, {"batchio.recv_batch_mean", "count"}, {"batchio.send_short", "count"},
	{"clued.c0_cpu_us_per_pkt", "us"}, {"clued.c1_cpu_us_per_pkt", "us"}, {"clued.c2_cpu_us_per_pkt", "us"},
	{"clued.max_cpu_busy_share", "share"}, {"clued.sys_share", "share"},
	{"clued.c0_refs_per_pkt", "count"}, {"clued.claim1_hit_share", "share"},
	{"clued.malformed", "count"}, {"clued.no_route", "count"},
	{"clued.send_drop", "count"}, {"clued.send_retry", "count"},
	{"cluster.reordered", "count"}, {"bench.gen_late_us_p99", "us"},
}

// allMetrics is every name the program can emit.
func allMetrics() []metricDef {
	return slices.Concat(endToEnd, perLayer, wireLayer)
}

type runner func(context.Context, runConfig) (*result, error)

// workloads maps each name in BENCHMARK.json to its runner.
var workloads = map[string]runner{
	"fwd-paper-hot": func(_ context.Context, c runConfig) (*result, error) {
		return runInProcess(c, inprocSpec{layout: fastpath.LayoutAuto, setups: c.sizes.lightSetups, refBits: c.sizes.hotRefBits, refLookups: 1})
	},
	"fwd-modern-cold": func(_ context.Context, c runConfig) (*result, error) {
		return runInProcess(c, inprocSpec{modern: true, verify: true, layout: fastpath.LayoutCompressed, setups: 1, refBits: c.sizes.coldRefBits, refLookups: c.sizes.coldRefLookups})
	},
	"churn-modern": func(_ context.Context, c runConfig) (*result, error) {
		return runInProcess(c, inprocSpec{modern: true, verify: true, layout: fastpath.LayoutCompressed, churn: true, setups: 1, refBits: c.sizes.coldRefBits, refLookups: c.sizes.coldRefLookups})
	},
}

// diagnostics are workloads the command runs but BENCHMARK.json does not
// list, so no regression bound rests on them. wire-chain3 runs five busy
// threads — three clued processes, a sender and a collector — on this
// host's two cores; it measures the scheduler as much as the program
// (README.md records the spread), and is kept for hosts with the cores
// to run it. A diagnostic prints every metric it measured, whatever
// -trace says.
var diagnostics = map[string]runner{
	"wire-chain3": runWire,
}

// sizes are a scale's constants. README.md records how the full-scale
// rate, period and burst values were calibrated on the 2-core host.
type sizes struct {
	window time.Duration // measured window (from -seconds)
	// The in-process window is cut into pairs: passDur of the forwarding
	// loop, then refDur of the reference data plane. A metric is the
	// median over pairs.
	passDur, refDur time.Duration
	// The reference data plane's table size (log2 entries) beside the
	// cache-resident and the memory-bound workloads, and how many entries
	// a reference packet reads beside the memory-bound ones.
	hotRefBits, coldRefBits, coldRefLookups int

	paperScale  float64 // synth.PaperRouters scale
	hotDests    int     // fwd-paper-hot destinations: fit in cache
	lightSetups int     // set-up repetitions on the workloads that can afford them

	modernPrefixes int // fwd-modern-cold / churn-modern table size
	coldDests      int // their destinations: working set far beyond L2

	churnPeriod    time.Duration // one burst is due every period
	churnMeanBurst int           // mean route ops per burst

	wirePrefixes, wireFlows int
	wireSetups              int
	wirePasses              int     // passes per phase (closed loop, open loop)
	wireWindow              int     // closed loop: packets in flight
	wireRate                float64 // open loop: packets per second
}

var scales = map[string]sizes{
	"full": {
		passDur: 100 * time.Millisecond, refDur: 40 * time.Millisecond, hotRefBits: 18, coldRefBits: 25, coldRefLookups: 8,
		paperScale: 1, hotDests: 8192, lightSetups: 9,
		modernPrefixes: 1_000_000, coldDests: 1 << 19,
		churnPeriod: 20 * time.Millisecond, churnMeanBurst: 8,
		wirePrefixes: 100_000, wireFlows: 4096, wireSetups: 3, wirePasses: 9, wireWindow: 1024, wireRate: 25_000,
	},
	// tiny is what bench_test.go runs: every code path, no meaningful
	// numbers.
	"tiny": {
		passDur: 20 * time.Millisecond, refDur: 5 * time.Millisecond, hotRefBits: 12, coldRefBits: 16, coldRefLookups: 8,
		paperScale: 0.05, hotDests: 1024, lightSetups: 1,
		modernPrefixes: 2000, coldDests: 4096,
		churnPeriod: 5 * time.Millisecond, churnMeanBurst: 4,
		wirePrefixes: 2000, wireFlows: 256, wireSetups: 1, wirePasses: 3, wireWindow: 256, wireRate: 5_000,
	},
}

// runConfig is one invocation.
type runConfig struct {
	workload  string
	seed      int64
	trace     bool
	traceOut  string
	sizes     sizes
	scale     string
	buildDir  string    // where wire-chain3 puts the clued binary
	procStart time.Time // set-up is timed from here
}

// result accumulates what a run measured.
type result struct {
	attempted, failed int64
	notes             []string // one line per kind of failure
	metrics           map[string]summary
	passes            int
}

func newResult() *result { return &result{metrics: map[string]summary{}} }

func (r *result) put(name string, s summary) { r.metrics[name] = s }

// fail counts n failed operations of one kind.
func (r *result) fail(n int64, format string, args ...any) {
	if n > 0 {
		r.failed += n
		r.notes = append(r.notes, fmt.Sprintf("%d %s", n, fmt.Sprintf(format, args...)))
	}
}

// putSetup reports set-up time and its parts. The parts are laps of one
// stopwatch started at process start, so they sum to setup_s exactly.
func (r *result) putSetup(parts setupParts) {
	for name, v := range parts {
		r.put(name, single(v))
	}
	r.put("setup_s", single(parts.total()))
}

// record is the full result -out writes and -compare reads.
type record struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     bool               `json:"trace"`
	Scale     string             `json:"scale"`
	Host      hostInfo           `json:"host"`
	Passes    int                `json:"passes"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Notes     []string           `json:"notes,omitempty"`
	Metrics   map[string]summary `json:"metrics"`
	Units     map[string]string  `json:"units"`
}

// line is the driver's contract: the last line of standard output.
type line struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractLine selects the metrics the driver expects for this kind of
// run: every end-to-end metric untraced, every per-layer metric traced.
// A diagnostic workload prints whatever it measured.
func contractLine(res *result, trace, diagnostic bool) (line, error) {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	if diagnostic {
		defs = allMetrics()
	}
	out := line{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed,
		Metrics: map[string]lineMetric{}}
	for _, d := range defs {
		s, ok := res.metrics[d.name]
		v := s.Median
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return line{}, fmt.Errorf("metric %s is not finite", d.name)
		}
		if diagnostic && !ok {
			continue
		}
		if !trace && !diagnostic && (!ok || v == 0) {
			return line{}, fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		out.Metrics[d.name] = lineMetric{Value: v, Unit: d.unit}
	}
	return out, nil
}

// run executes one workload and returns both output shapes.
func run(ctx context.Context, cfg runConfig) (record, line, error) {
	fn, ok := workloads[cfg.workload]
	diagnostic := false
	if !ok {
		if fn, diagnostic = diagnostics[cfg.workload]; !diagnostic {
			return record{}, line{}, fmt.Errorf("unknown workload %q", cfg.workload)
		}
	}
	res, err := fn(ctx, cfg)
	if err != nil {
		return record{}, line{}, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if res.attempted < 1 {
		return record{}, line{}, fmt.Errorf("%s: nothing was attempted", cfg.workload)
	}
	ln, err := contractLine(res, cfg.trace, diagnostic)
	if err != nil {
		return record{}, line{}, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	units := map[string]string{}
	for _, d := range allMetrics() {
		if _, ok := res.metrics[d.name]; ok {
			units[d.name] = d.unit
		}
	}
	rec := record{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.sizes.window.Seconds(), Trace: cfg.trace,
		Scale: cfg.scale, Host: fingerprint(), Passes: res.passes,
		Attempted: res.attempted, Failed: res.failed, Notes: res.notes,
		Metrics: res.metrics, Units: units,
	}
	return rec, ln, nil
}

func main() {
	procStart := time.Now()
	// The workloads are sized for two cores: one forwarder and one writer
	// or generator goroutine beside it.
	runtime.GOMAXPROCS(2)

	var (
		workload = flag.String("workload", "", "workload to run (see BENCHMARK.json; wire-chain3 is a diagnostic outside it)")
		seed     = flag.Int64("seed", 1999, "seed every input is generated from")
		seconds  = flag.Float64("seconds", 10, "measured window, seconds")
		trace    = flag.Int("trace", 0, "1: record spans and report the per-layer metrics instead of the end-to-end ones")
		traceOut = flag.String("trace-out", "", "with -trace 1: write the recorded spans to this file")
		out      = flag.String("out", "", "append the full record (one JSON line) to this file")
		scale    = flag.String("scale", "full", "input sizes: full or tiny")
		compare  = flag.Bool("compare", false, "compare two -out files: bench -compare a.jsonl b.jsonl")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("usage: bench -compare a.jsonl b.jsonl"))
		}
		ok, err := compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	sz, ok := scales[*scale]
	if !ok {
		fatal(fmt.Errorf("unknown scale %q", *scale))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatal(errors.New("-seconds must be positive and -trace 0 or 1"))
	}
	sz.window = time.Duration(*seconds * float64(time.Second))
	cfg := runConfig{
		workload: *workload, seed: *seed, trace: *trace == 1, traceOut: *traceOut,
		sizes: sz, scale: *scale, buildDir: ".bench_build", procStart: procStart,
	}

	// No signal handling: a killed benchmark closes its children's stdin,
	// and a clued node exits on that by itself.
	rec, ln, err := run(context.Background(), cfg)
	if err != nil {
		fatal(err)
	}
	for _, n := range rec.Notes {
		fmt.Fprintln(os.Stderr, "bench: failed:", n)
	}
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			fatal(err)
		}
	}
	b, err := json.Marshal(ln)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

func appendRecord(path string, rec record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
