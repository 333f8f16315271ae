// Wall-clock benchmarks for the compiled fast path. The paper's own
// metric is memory references; these measure what the references stand
// for — nanoseconds — and pin the two acceptance criteria: 0 allocs/op
// and a ≥5× single-thread speedup over the map-based core table on the
// hot (valid clue) path.
package fastpath_test

import (
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fastpath"
	"repro/internal/ip"
	"repro/internal/lookup"
	"repro/internal/mem"
	"repro/internal/synth"
	"repro/internal/telemetry"
)

// benchPair builds the AT&T-1 → AT&T-2 hop at quarter scale with a warm
// all-hit workload, the same fixture shape the core benchmarks use.
func benchPair(b testing.TB) *pairFixture {
	b.Helper()
	routers := synth.PaperRouters(1999, 0.25)
	p := &pairFixture{sender: routers["AT&T-1"], receiver: routers["AT&T-2"]}
	p.st, p.rt = p.sender.Trie(), p.receiver.Trie()
	w := synth.NewWorkload(17, p.sender)
	for len(p.dests) < 8192 {
		d := w.Next()
		if bmp, _, ok := p.st.Lookup(d, nil); ok {
			p.dests = append(p.dests, d)
			p.clues = append(p.clues, bmp.Clue())
		}
	}
	return p
}

// BenchmarkFastpathProcess compares the map-based core table against the
// compiled snapshot, per engine, single-threaded. The "core/…" pairs are
// the baseline the ≥5× criterion (TestFastpathSpeedup, EXPERIMENTS.md §
// fast path) is measured against.
func BenchmarkFastpathProcess(b *testing.B) {
	p := benchPair(b)
	for _, eng := range []lookup.ClueEngine{lookup.NewRegular(p.rt), lookup.NewPatricia(p.rt)} {
		tab := newTable(b, p, core.Advance, eng, false)
		snap := fastpath.Compile(tab)
		b.Run("core/"+eng.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				j := i % len(p.dests)
				tab.Process(p.dests[j], p.clues[j], nil)
			}
		})
		b.Run("fastpath/"+eng.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				j := i % len(p.dests)
				snap.Process(p.dests[j], p.clues[j], nil)
			}
		})
	}
}

// BenchmarkFastpathBatch runs ProcessBatch over 64-packet batches; the
// ns/op figure is per packet.
func BenchmarkFastpathBatch(b *testing.B) {
	p := benchPair(b)
	snap := fastpath.Compile(newTable(b, p, core.Advance, lookup.NewRegular(p.rt), false))
	const batch = 64
	out := make([]core.Result, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += batch {
		base := (i / batch * batch) % (len(p.dests) - batch)
		snap.ProcessBatch(p.dests[base:base+batch], p.clues[base:base+batch], out, nil)
	}
}

// coldFixture is BenchmarkFastpathBatchCold's table and traffic, built
// once per process: the testing package calls a benchmark function
// several times while it settles b.N, and this set-up takes seconds.
var coldFixture struct {
	once sync.Once
	snap *fastpath.Snapshot
	pair *pairFixture
}

// BenchmarkFastpathBatchCold is the memory-bound counterpart of
// BenchmarkFastpathBatch: the benchmark's fwd-modern-cold table
// (1M-prefix modern universe, Advance with Verify, compressed layout,
// telemetry attached) driven with 2^18 uniform destinations, so every
// packet's slot and sender-trie node miss the cache and what is measured
// is how well a batch overlaps those misses. ns/op is per packet.
// -short shrinks the table, not the destination set.
func BenchmarkFastpathBatchCold(b *testing.B) {
	f := &coldFixture
	f.once.Do(func() {
		prefixes := 1 << 20
		if testing.Short() {
			prefixes = 1 << 16
		}
		u := synth.NewModernUniverse(7, ip.IPv4, prefixes+prefixes/16+64)
		p := &pairFixture{
			sender:   u.Router("cold-sender", prefixes, 0.02),
			receiver: u.Router("cold-receiver", prefixes, 0.02),
		}
		p.st, p.rt = p.sender.Trie(), p.receiver.Trie()
		fillWorkload(p, 8, 1<<18)
		tab := newTable(b, p, core.Advance, lookup.NewRegular(p.rt), true)
		tab.SetTelemetry(telemetry.NewPacketMetrics(telemetry.NewRegistry(), "cold", core.OutcomeLabels()))
		f.snap, f.pair = fastpath.CompileLayout(tab, fastpath.LayoutCompressed), p
	})
	snap, p := f.snap, f.pair
	const batch = 64
	out := make([]core.Result, batch)
	var cnt mem.Counter
	run := func(n int) {
		for i := 0; i < n; i += batch {
			base := i % (len(p.dests) - batch)
			snap.ProcessBatch(p.dests[base:base+batch], p.clues[base:base+batch], out, &cnt)
		}
	}
	if a := testing.AllocsPerRun(10, func() { run(batch) }); a != 0 {
		b.Fatalf("ProcessBatch allocates %v times per batch, want 0", a)
	}
	// The headline footprint rides on the fixture this benchmark already
	// built, so the CI bench smoke guards it: 40 B/prefix is ISSUE 13's
	// budget for the whole snapshot at 1M prefixes (EXPERIMENTS.md, "Slot
	// diet"); the -short table's rows round up to whole pages.
	ms := snap.MemStats()
	perPrefix := float64(ms.TotalBytes()) / float64(ms.Entries)
	if !testing.Short() && perPrefix > 40 {
		b.Fatalf("snapshot is %.1f B/prefix (%d entries, slots %d B at fill %.2f), want <= 40",
			perPrefix, ms.Entries, ms.SlotBytes, float64(ms.Entries)/float64(ms.SlotCapacity))
	}
	b.ReportAllocs()
	b.ResetTimer()
	run(b.N)
	b.ReportMetric(perPrefix, "B/prefix")
}

// BenchmarkFastpathConcurrent compares the two concurrency designs under
// RunParallel: core.ConcurrentTable (RWMutex read path, PR 3's satellite
// fix) against the RCU snapshot (wait-free read path).
func BenchmarkFastpathConcurrent(b *testing.B) {
	p := benchPair(b)
	b.Run("rwmutex", func(b *testing.B) {
		ct := core.NewConcurrentTable(newTable(b, p, core.Advance, lookup.NewRegular(p.rt), false))
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				j := i % len(p.dests)
				ct.Process(p.dests[j], p.clues[j], nil)
				i++
			}
		})
	})
	b.Run("rcu", func(b *testing.B) {
		rcu := fastpath.NewRCU(newTable(b, p, core.Advance, lookup.NewRegular(p.rt), false))
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				j := i % len(p.dests)
				rcu.Process(p.dests[j], p.clues[j], nil)
				i++
			}
		})
	})
}

// TestFastpathSpeedup is the executable form of the ≥5× acceptance
// criterion: core vs fastpath on the hot single-packet path, measured
// with testing.Benchmark in alternating rounds, and gated on the median
// of the per-round ratios. One round of each sat on the threshold: this
// host's speed drifts by a fifth from second to second, and a ratio of
// two readings taken seconds apart drifts with it; a round measures the
// two sides back to back, and the median drops the rounds a neighbour
// disturbed. Every round is logged, so a change's effect on Process can
// be read off the test. Skipped in -short runs (the CI bench smoke job
// runs the benchmarks but asserts only the alloc figures).
func TestFastpathSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock ratio needs a quiet machine")
	}
	if raceEnabled {
		t.Skip("race instrumentation distorts the wall-clock ratio")
	}
	p := benchPair(t)
	tab := newTable(t, p, core.Advance, lookup.NewRegular(p.rt), false)
	snap := fastpath.Compile(tab)
	nsPerOp := func(r testing.BenchmarkResult) float64 { return float64(r.T.Nanoseconds()) / float64(r.N) }
	coreOnce := func() float64 {
		return nsPerOp(testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				j := i % len(p.dests)
				tab.Process(p.dests[j], p.clues[j], nil)
			}
		}))
	}
	fastOnce := func() float64 {
		return nsPerOp(testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				j := i % len(p.dests)
				snap.Process(p.dests[j], p.clues[j], nil)
			}
		}))
	}
	const rounds = 7
	var ratios []float64
	for round := 0; round < rounds; round++ {
		var coreNs, fastNs float64
		if round%2 == 0 {
			coreNs, fastNs = coreOnce(), fastOnce()
		} else {
			fastNs, coreNs = fastOnce(), coreOnce()
		}
		ratios = append(ratios, coreNs/fastNs)
		t.Logf("round %d: core %.1f ns/op, fastpath %.1f ns/op, speedup %.2fx", round, coreNs, fastNs, coreNs/fastNs)
	}
	sort.Float64s(ratios)
	if median := ratios[rounds/2]; median < 5 {
		t.Errorf("fastpath speedup %.2fx (median of %d rounds, %.2f–%.2f), want >= 5x", median, rounds, ratios[0], ratios[rounds-1])
	} else {
		t.Logf("fastpath speedup %.2fx (median of %d rounds, %.2f–%.2f)", median, rounds, ratios[0], ratios[rounds-1])
	}
}
