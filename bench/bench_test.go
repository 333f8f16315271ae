package main

import (
	"bytes"
	"context"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

func loadBenchmarkFile(t *testing.T) *benchmarkFile {
	t.Helper()
	bf, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFileMatchesProgram pins BENCHMARK.json to the names and
// units the program emits, so neither can drift from the other.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	bf := loadBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if strings.ContainsRune(w.Why, '\n') || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	slices.Sort(names)
	if got := sortedKeys(workloads); !slices.Equal(got, names) {
		t.Errorf("workloads: program has %v, BENCHMARK.json has %v", got, names)
	}
	var e2e, layer []metricDef
	setup := false
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for _, m := range bf.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	if !slices.Equal(e2e, endToEnd) {
		t.Errorf("end_to_end: BENCHMARK.json has %v, program emits %v", e2e, endToEnd)
	}
	if !slices.Equal(layer, perLayer) {
		t.Errorf("per_layer: BENCHMARK.json has %v, program emits %v", layer, perLayer)
	}
	seen := map[string]bool{}
	for _, d := range allMetrics() {
		if !nameRE.MatchString(d.name) || len(d.name) > 64 || seen[d.name] {
			t.Errorf("metric name %q is malformed or repeated", d.name)
		}
		seen[d.name] = true
	}
}

// tinyConfig is one workload at the scale the tests can afford.
func tinyConfig(t *testing.T, workload string, trace bool, buildDir string) runConfig {
	sz := scales["tiny"]
	sz.window = time.Second
	cfg := runConfig{
		workload: workload, seed: 7, trace: trace, sizes: sz, scale: "tiny",
		buildDir: buildDir, procStart: time.Now(),
	}
	if trace {
		cfg.traceOut = filepath.Join(t.TempDir(), "spans.tsv")
	}
	return cfg
}

// checkTinyRun is what every tiny run must satisfy whatever it prints:
// no failed operation, a complete host fingerprint, a span file when
// traced.
func checkTinyRun(t *testing.T, cfg runConfig, rec record, ln line) {
	t.Helper()
	if ln.Failed != 0 || !ln.Correct || ln.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d: %v", ln.Correct, ln.Attempted, ln.Failed, rec.Notes)
	}
	if rec.Host.Link != "loopback" || rec.Host.NProc < 1 || rec.Host.Go == "" {
		t.Errorf("host fingerprint incomplete: %+v", rec.Host)
	}
	if cfg.trace {
		b, err := os.ReadFile(cfg.traceOut)
		if err != nil || bytes.Count(b, []byte("\n")) < 2 {
			t.Errorf("span file: %d bytes, err %v", len(b), err)
		}
	}
}

// TestWorkloadsTiny runs every workload of BENCHMARK.json at tiny scale,
// untraced and traced, and checks the driver-facing line: exactly the
// metric names of BENCHMARK.json for that kind of run, and no failed
// operation.
func TestWorkloadsTiny(t *testing.T) {
	bf := loadBenchmarkFile(t)
	want := map[bool][]string{}
	for _, m := range bf.EndToEnd {
		want[false] = append(want[false], m.Name)
	}
	for _, m := range bf.PerLayer {
		want[true] = append(want[true], m.Name)
	}
	slices.Sort(want[false])
	slices.Sort(want[true])

	for _, w := range bf.Workloads {
		for _, trace := range []bool{false, true} {
			name := w.Name + "/untraced"
			if trace {
				name = w.Name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				cfg := tinyConfig(t, w.Name, trace, "")
				rec, ln, err := run(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if got := sortedKeys(ln.Metrics); !slices.Equal(got, want[trace]) {
					t.Errorf("metric names:\n got %v\nwant %v", got, want[trace])
				}
				checkTinyRun(t, cfg, rec, ln)
			})
		}
	}
}

// TestWireDiagnosticTiny runs wire-chain3, which BENCHMARK.json does not
// list: it prints what it measured, under names the program knows.
func TestWireDiagnosticTiny(t *testing.T) {
	buildDir := t.TempDir()
	requireChain(t, buildDir)
	known := map[string]bool{}
	for _, d := range allMetrics() {
		known[d.name] = true
	}
	for _, trace := range []bool{false, true} {
		cfg := tinyConfig(t, "wire-chain3", trace, buildDir)
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		rec, ln, err := run(ctx, cfg)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		for name := range ln.Metrics {
			if !known[name] {
				t.Errorf("trace=%v: unknown metric %q", trace, name)
			}
		}
		for _, name := range []string{"setup_s", "bench.fwd_pps", "bench.lat_p50_us", "refs_per_pkt", "peak_rss_mb"} {
			if ln.Metrics[name].Value <= 0 {
				t.Errorf("trace=%v: %s was not measured", trace, name)
			}
		}
		checkTinyRun(t, cfg, rec, ln)
	}
}

// requireChain skips when this environment cannot run the wire workload:
// no loopback sockets, or no toolchain to build clued with.
func requireChain(t *testing.T, dir string) {
	t.Helper()
	c, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Skipf("no loopback sockets: %v", err)
	}
	c.Close()
	if _, err := cluster.BuildDaemon(dir); err != nil {
		t.Skipf("cannot build clued: %v", err)
	}
}

func TestQuantile(t *testing.T) {
	s := make([]int64, 1000)
	for i := range s {
		s[i] = int64(i + 1) // 1..1000
	}
	for _, c := range []struct {
		q    float64
		want int64
		ok   bool
	}{
		{0.5, 500, true},
		{0.9, 900, true},
		{0.99, 990, true},  // exactly ten samples beyond it
		{0.999, 0, false},  // one sample beyond: an outlier, not a percentile
		{0.9901, 0, false}, // rank 991: nine beyond
	} {
		got, ok := quantile(s, c.q)
		if got != c.want || ok != c.ok {
			t.Errorf("quantile(1..1000, %v) = %d, %v; want %d, %v", c.q, got, ok, c.want, c.ok)
		}
	}
	if _, ok := quantile(s[:20], 0.5); ok {
		t.Error("median of 20 samples has only 9 below it; want unsupported")
	}
	if v, ok := quantile(s[:21], 0.5); !ok || v != 11 {
		t.Errorf("median of 1..21 = %d, %v; want 11, true", v, ok)
	}
	if _, ok := quantile([]int64(nil), 0.5); ok {
		t.Error("quantile of nothing must be unsupported")
	}
}

func TestSummarizeMatchesPythonQuartiles(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	s := summarize([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 || s.Samples != 10 {
		t.Errorf("got %+v", s)
	}
	if got := s.spread(); got != (8.25-2.75)/5.5 {
		t.Errorf("spread = %v", got)
	}
}

func TestSchedule(t *testing.T) {
	s := newSchedule(1000, 1e6) // one operation per 1000 ns
	if s.due(0) != 1000 || s.due(5) != 6000 {
		t.Errorf("due(0)=%d due(5)=%d", s.due(0), s.due(5))
	}
	for _, c := range []struct{ now, want int64 }{
		{999, 0},  // before the first is due
		{1000, 1}, // the first is due exactly now
		{1999, 1},
		{2000, 2},
		{10500, 10}, // a stall: ten operations became due meanwhile
	} {
		if got := s.dueBy(c.now); got != c.want {
			t.Errorf("dueBy(%d) = %d, want %d", c.now, got, c.want)
		}
	}
	// Latency is charged from the due time, so after a stall the backlog
	// is dated in the past, not at the moment the generator caught up.
	if late := 10500 - s.due(3); late != 6500 {
		t.Errorf("operation 3 sent at 10500 is %d ns late, want 6500", late)
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	mk := func(file string, pps, halfSpread float64, failed int64) string {
		m := map[string]summary{}
		for _, d := range endToEnd {
			m[d.name] = single(100)
		}
		m["fwd_vs_ref"] = summary{Median: pps, Q1: pps * (1 - halfSpread), Q3: pps * (1 + halfSpread), Samples: 9}
		path := filepath.Join(dir, file)
		if err := appendRecord(path, record{Workload: "fwd-paper-hot", Attempted: 1000, Failed: failed, Metrics: m}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	bench := filepath.Join("..", "BENCHMARK.json")
	base := mk("a.jsonl", 1000, 0.01, 0)
	for _, c := range []struct {
		file       string
		pps        float64
		halfSpread float64
		failed     int64
		ok         bool
		word       string
	}{
		{"same.jsonl", 1000, 0.01, 0, true, "ok"},
		{"slow.jsonl", 500, 0.01, 0, false, "regressed"},  // fwd_vs_ref halves: beyond any bound
		{"noisy.jsonl", 1000, 0.2, 0, true, "unresolved"}, // passes 40 % apart: wider than the bound
		{"fails.jsonl", 1000, 0.01, 3, false, "regressed"},
	} {
		var out bytes.Buffer
		ok, err := compareFiles(&out, bench, base, mk(c.file, c.pps, c.halfSpread, c.failed))
		if err != nil {
			t.Fatal(err)
		}
		if ok != c.ok || !strings.Contains(out.String(), c.word) {
			t.Errorf("%s: ok=%v, want %v with %q in:\n%s", c.file, ok, c.ok, c.word, out.String())
		}
	}
}
