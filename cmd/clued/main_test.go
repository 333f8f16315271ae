package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// testConfig is a small chain that completes quickly even under -race.
func testConfig() config {
	return config{
		routers:    3,
		packets:    40,
		timeout:    20 * time.Second,
		sequential: true, // deterministic learning order, all-delivered guarantee
	}
}

func mustRun(t *testing.T, cfg config) *result {
	t.Helper()
	res, err := run(context.Background(), cfg)
	if err != nil {
		if strings.Contains(err.Error(), "listen") {
			t.Skipf("cannot open loopback sockets in this environment: %v", err)
		}
		t.Fatal(err)
	}
	if res.delivered != cfg.packets {
		t.Fatalf("delivered %d/%d packets", res.delivered, cfg.packets)
	}
	return res
}

// scrape parses the Prometheus text lines of one family into
// router -> label value -> counter value.
func scrape(body, family, labelKey string) map[string]map[string]uint64 {
	out := make(map[string]map[string]uint64)
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, family+"{") {
			continue
		}
		open := strings.Index(line, "{")
		close := strings.LastIndex(line, "}")
		if open < 0 || close < open {
			continue
		}
		labels := make(map[string]string)
		for _, kv := range strings.Split(line[open+1:close], ",") {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				continue
			}
			labels[k] = strings.Trim(v, `"`)
		}
		val, err := strconv.ParseUint(strings.TrimSpace(line[close+1:]), 10, 64)
		if err != nil {
			continue
		}
		router := labels["router"]
		if out[router] == nil {
			out[router] = make(map[string]uint64)
		}
		out[router][labels[labelKey]] = val
	}
	return out
}

func get(t *testing.T, url string) (string, error) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("status %s", resp.Status)
	}
	return string(b), nil
}

// TestMetricsMatchFinalStats is the e2e acceptance gate: the /metrics
// endpoint and the shutdown statistics report are views over the same
// telemetry registry, so a scrape taken after the wire went quiet must
// match the final per-router outcome counters exactly.
func TestMetricsMatchFinalStats(t *testing.T) {
	cfg := testConfig()
	cfg.useFast = true // exercise the RCU path so the snapshot memory gauges are live
	cfg.metricsAddr = "127.0.0.1:0"
	cfg.linger = 10 * time.Second
	addrCh := make(chan string, 1)
	cfg.onMetricsReady = func(addr string) { addrCh <- addr }

	type runOut struct {
		res *result
		err error
	}
	runCh := make(chan runOut, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		res, err := run(ctx, cfg)
		runCh <- runOut{res, err}
	}()

	var addr string
	select {
	case addr = <-addrCh:
	case out := <-runCh:
		if out.err != nil && strings.Contains(out.err.Error(), "listen") {
			t.Skipf("cannot open loopback sockets in this environment: %v", out.err)
		}
		t.Fatalf("run ended before metrics came up: %+v, %v", out.res, out.err)
	case <-time.After(15 * time.Second):
		t.Fatal("metrics endpoint never came up")
	}

	// Poll until the tail router has processed every packet — it is the
	// last hop, so at that point the whole chain has gone quiet and the
	// registry is final (run stops the serve loops before lingering).
	tail := fmt.Sprintf("r%d", cfg.routers-1)
	var body string
	deadline := time.Now().Add(15 * time.Second)
	for {
		b, err := get(t, "http://"+addr+"/metrics")
		if err == nil {
			total := uint64(0)
			for _, v := range scrape(b, "clued_packets_total", "outcome")[tail] {
				total += v
			}
			if total == uint64(cfg.packets) {
				body = b
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("tail router never reached %d packets (last err: %v)", cfg.packets, err)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// The hop trace endpoint serves the same run.
	trace, err := get(t, "http://"+addr+"/trace")
	if err != nil {
		t.Fatalf("/trace: %v", err)
	}
	if !strings.Contains(trace, "clue=") {
		t.Errorf("/trace has no hop events:\n%s", trace)
	}

	// Unblock the linger window and collect the final report.
	cancel()
	out := <-runCh
	if out.err != nil {
		t.Fatal(out.err)
	}

	// The scraped outcome counters must equal the report, router by
	// router, outcome by outcome — same registry, same numbers.
	outcomes := scrape(body, "clued_packets_total", "outcome")
	labels := core.OutcomeLabels()
	for _, rep := range out.res.routers {
		got := outcomes[rep.name]
		for i, lbl := range labels {
			if got[lbl] != rep.outcomes[i] {
				t.Errorf("router %s outcome %s: scrape %d != final report %d",
					rep.name, lbl, got[lbl], rep.outcomes[i])
			}
		}
		var scrapedTotal uint64
		for _, v := range got {
			scrapedTotal += v
		}
		if scrapedTotal != rep.packets {
			t.Errorf("router %s: scraped packets %d != report %d", rep.name, scrapedTotal, rep.packets)
		}
	}
	// The snapshot memory gauges read the live snapshot at scrape time:
	// every router must expose them, a router that has learned entries
	// has non-empty slot tables, and a chain this small stays on the
	// flat layout. (clued runs the Patricia engine, so the trie index
	// lives in the delegate engine and the snapshot's own index gauge
	// may legitimately read zero.)
	for _, fam := range []string{
		"clued_fastpath_slot_bytes", "clued_fastpath_slot_fill_permille", "clued_fastpath_trie_index_bytes",
		"clued_fastpath_resume_bytes", "clued_fastpath_compressed",
	} {
		vals := scrape(body, fam, "router")
		for _, rep := range out.res.routers {
			v, ok := vals[rep.name][rep.name]
			if !ok {
				t.Errorf("router %s: gauge %s missing from scrape", rep.name, fam)
				continue
			}
			switch fam {
			case "clued_fastpath_slot_bytes":
				if rep.entries > 0 && v == 0 {
					t.Errorf("router %s: %d entries but zero slot bytes", rep.name, rep.entries)
				}
			case "clued_fastpath_slot_fill_permille":
				if (rep.entries > 0 && v == 0) || v >= 1000 {
					t.Errorf("router %s: %d entries at slot fill %d‰", rep.name, rep.entries, v)
				}
			case "clued_fastpath_compressed":
				if v != 0 {
					t.Errorf("router %s: tiny table reports the compressed layout", rep.name)
				}
			}
		}
	}

	errs := scrape(body, "clued_errors_total", "kind")
	for _, rep := range out.res.routers {
		for kind, want := range map[string]uint64{
			"malformed": rep.malformed, "no-route": rep.noRoute,
			"expired": rep.expired, "send-fail": rep.sendFail, "send-retry": rep.sendRetry,
		} {
			if errs[rep.name][kind] != want {
				t.Errorf("router %s error %s: scrape %d != report %d",
					rep.name, kind, errs[rep.name][kind], want)
			}
		}
	}
}

// TestWorkersDeliverAll pushes a concurrent (non-sequential) workload
// through pipelined routers: every packet must still be delivered, every
// router must process every packet exactly once, the per-worker counters
// must sum to the router totals, and a pipelined run must learn the same
// clue entries as a serial run (learning is set-convergent regardless of
// drain order).
func TestWorkersDeliverAll(t *testing.T) {
	cfg := testConfig()
	cfg.sequential = false
	cfg.packets = 120
	cfg.useFast = true

	cfg.workers = 1
	serial := mustRun(t, cfg)

	cfg.workers = 4
	piped := mustRun(t, cfg)

	for _, rep := range piped.routers {
		if rep.packets != uint64(cfg.packets) {
			t.Errorf("router %s processed %d packets, want %d", rep.name, rep.packets, cfg.packets)
		}
	}
	for i := range piped.routers {
		s, p := serial.routers[i], piped.routers[i]
		if s.entries != p.entries || s.learned != p.learned {
			t.Errorf("router %s: serial learned %d/%d entries, pipelined %d/%d",
				s.name, s.learned, s.entries, p.learned, p.entries)
		}
	}
	if piped.workerPackets != uint64(cfg.packets*cfg.routers) {
		t.Errorf("worker counters drained %d datagrams, want %d",
			piped.workerPackets, cfg.packets*cfg.routers)
	}
}

// TestFastpathFinalStatsParity is the differential regression test for the
// -fastpath accounting sweep: the same sequential workload pushed through
// interpreted clue tables and compiled fastpath snapshots must produce
// identical final statistics — packets, references, outcome counts and the
// learned-entry count (the historical suspect: RCU learning happens on the
// writer side, and a double-counted or dropped Learn shows up here).
func TestFastpathFinalStatsParity(t *testing.T) {
	cfg := testConfig()
	slow := mustRun(t, cfg)
	cfg.useFast = true
	fast := mustRun(t, cfg)

	if len(slow.routers) != len(fast.routers) {
		t.Fatalf("router count differs: %d vs %d", len(slow.routers), len(fast.routers))
	}
	labels := core.OutcomeLabels()
	for i := range slow.routers {
		s, f := slow.routers[i], fast.routers[i]
		if s.name != f.name {
			t.Fatalf("router order differs: %s vs %s", s.name, f.name)
		}
		if s.packets != f.packets {
			t.Errorf("router %s: packets %d (interpreted) != %d (fastpath)", s.name, s.packets, f.packets)
		}
		if s.refs != f.refs {
			t.Errorf("router %s: refs %d (interpreted) != %d (fastpath)", s.name, s.refs, f.refs)
		}
		if s.outcomes != f.outcomes {
			for j := range s.outcomes {
				if s.outcomes[j] != f.outcomes[j] {
					t.Errorf("router %s outcome %s: %d (interpreted) != %d (fastpath)",
						s.name, labels[j], s.outcomes[j], f.outcomes[j])
				}
			}
		}
		if s.learned != f.learned {
			t.Errorf("router %s: learned %d (interpreted) != %d (fastpath)", s.name, s.learned, f.learned)
		}
		if s.entries != f.entries {
			t.Errorf("router %s: entries %d (interpreted) != %d (fastpath)", s.name, s.entries, f.entries)
		}
	}
}
