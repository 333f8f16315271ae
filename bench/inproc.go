package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fastpath"
	"repro/internal/fib"
	"repro/internal/ip"
	"repro/internal/lookup"
	"repro/internal/pipeline"
	"repro/internal/synth"
	"repro/internal/telemetry"
	"repro/internal/trie"
)

// inprocSpec is what distinguishes the three in-process workloads. They
// share one forwarding loop and differ in table, traffic and whether a
// writer runs beside the reader.
type inprocSpec struct {
	modern bool            // modern 1M-prefix universe, else the paper's AT&T pair
	verify bool            // Advance+Verify, else plain Advance
	layout fastpath.Layout // snapshot representation
	churn  bool            // apply route updates while forwarding
	setups int             // how many times set-up is repeated for setup_s
	// refBits sizes the reference data plane's table (2^refBits entries):
	// cache-resident beside a cache-resident workload, far past the last
	// level cache beside a memory-bound one. refLookups is how many
	// entries of it a reference packet reads.
	refBits, refLookups int
}

// world is one built instance of a workload's tables and traffic.
type world struct {
	rt    *trie.Trie // the receiver's trie: the oracle on a static table
	tab   *core.Table
	rcu   *fastpath.RCU
	pm    *telemetry.PacketMetrics
	set   *packetSet
	ref   *refPlane
	parts setupParts

	// churn-modern only
	plan   *churnPlan
	refLoc *trie.Trie // copy of rt taken before any update, for the sweep
	wm     fastpath.Metrics
}

// churnWarm is how many bursts churn-modern applies before timing.
const churnWarm = 32

// setupParts is set-up time itemised by the layer that spent it, in
// seconds, keyed by per-layer metric name.
type setupParts map[string]float64

func (p setupParts) total() float64 {
	var s float64
	for _, v := range p {
		s += v
	}
	return s
}

// stopwatch attributes elapsed time to setupParts entries.
type stopwatch struct {
	last  time.Time
	parts setupParts
}

func (s *stopwatch) lap(name string) {
	now := time.Now()
	s.parts[name] += now.Sub(s.last).Seconds()
	s.last = now
}

// build constructs a workload instance from the seed. since is when the
// clock for this set-up started (process start for the first).
func (spec inprocSpec) build(seed int64, sz sizes, since time.Time) (*world, error) {
	w := &world{parts: setupParts{}}
	sw := stopwatch{last: since, parts: w.parts}

	var sender, receiver *fib.Table
	if spec.modern {
		n := sz.modernPrefixes
		// Slightly larger than the routers drawn from it, so two views at
		// divergence 0.02 both reach full size.
		u := synth.NewModernUniverse(seed, ip.IPv4, n+n/16+64)
		sender = u.Router("bench-sender", n, 0.02)
		receiver = u.Router("bench-receiver", n, 0.02)
	} else {
		routers := synth.PaperRouters(seed, sz.paperScale)
		sender, receiver = routers["AT&T-1"], routers["AT&T-2"]
	}
	st := sender.Trie()
	w.rt = receiver.Trie()
	sw.lap("synth.universe_s")

	w.tab = core.MustNewTable(core.Config{
		Method: core.Advance, Engine: lookup.NewRegular(w.rt),
		Local: w.rt, Sender: st.Contains, SenderTrie: st, Verify: spec.verify,
	})
	w.tab.Preprocess(sender.Prefixes())
	// Per-packet telemetry attached the way clued attaches it.
	w.pm = telemetry.NewPacketMetrics(telemetry.NewRegistry(), "bench", core.OutcomeLabels())
	w.tab.SetTelemetry(w.pm)
	sw.lap("core.preprocess_s")

	w.rcu = fastpath.NewRCULayout(w.tab, spec.layout)
	sw.lap("fastpath.compile_s")

	// Traffic: destinations inside the sender's prefixes, kept when the
	// receiver routes them too, so every packet forwards.
	want := sz.hotDests
	next := synth.NewFlowWorkload(seed+1, sender, 1.2, 1).Next
	if spec.modern {
		want = sz.coldDests
		uniform := synth.NewWorkload(seed+1, sender)
		next = func() (ip.Addr, bool) { return uniform.Next(), true }
	}
	dests := make([]ip.Addr, 0, want)
	clues := make([]int, 0, want)
	answers := make([]answer, 0, want)
	for tries := 0; len(dests) < want; tries++ {
		if tries > 64*want {
			return nil, fmt.Errorf("found only %d of %d routable destinations", len(dests), want)
		}
		d, _ := next()
		sp, _, ok := st.Lookup(d, nil)
		if !ok {
			continue
		}
		p, v, ok := w.rt.Lookup(d, nil)
		if !ok {
			continue
		}
		dests = append(dests, d)
		clues = append(clues, sp.Clue())
		answers = append(answers, answer{p, v})
	}
	var err error
	if w.set, err = buildPackets(dests, clues, answers); err != nil {
		return nil, err
	}
	w.ref = newRefPlane(w.set, spec.refBits, spec.refLookups)
	sw.lap("synth.dests_s")

	// The pre-timing oracle check is also the warm-up: it touches every
	// destination's path through the tables once.
	if bad := oracleCheck(w.rcu.Snapshot(), w.set, nil); bad != 0 {
		return nil, fmt.Errorf("before timing: %d of %d packets disagree with full LPM", bad, len(w.set.dests))
	}
	sw.lap("bench.verify_s")

	if spec.churn {
		// Enough bursts for the warm-up, the window and the grace period
		// after it.
		n := churnWarm + int((sz.window+2*probeStall)/sz.churnPeriod) + 1
		if w.plan, err = planChurn(seed, n, sz.churnMeanBurst, sender, st, w.rt); err != nil {
			return nil, err
		}
		w.refLoc = w.rt.Clone()
		// The master table builds its clue shadow index on the first
		// Affected call; at 1M prefixes that takes seconds and is set-up
		// of the same kind as Compile, not something a burst should pay.
		w.tab.Affected(w.plan.probes[0].p)
		reg := telemetry.NewRegistry()
		c := func(n string) *telemetry.Counter { return reg.NewCounter("bench_rcu_"+n, n) }
		w.wm = fastpath.Metrics{
			Swaps: c("swaps"), Patches: c("patches"), Recompiles: c("recompiles"), Learns: c("learns"),
			Applies: c("applies"), AppliedOps: c("applied_ops"), Coalesced: c("coalesced"),
			Overflows: c("overflows"), Fallbacks: c("fallbacks"), Compactions: c("compactions"),
			Defensive: c("defensive"), FallbacksBroad: c("fb_broad"), FallbacksDict: c("fb_dict"),
			FallbacksNodes: c("fb_nodes"),
		}
		// The first bursts after a compile run several times slower than
		// the rest (first-touch page faults in the writer's heap, cold
		// master-table lines). A router pays that once after boot; apply a
		// few bursts untimed so the window measures the steady state.
		for _, ops := range w.plan.bursts[:churnWarm] {
			w.rcu.Apply(ops)
		}
		w.rcu.SetMetrics(w.wm)
		sw.lap("churn.prepare_s")
	}

	return w, nil
}

// medianSetup builds the workload spec.setups times and returns the last
// instance together with the set-up whose total was the median — a
// single set-up time is at the mercy of one page-fault storm.
func (spec inprocSpec) medianSetup(seed int64, sz sizes, procStart time.Time) (*world, setupParts, error) {
	var all []setupParts
	var w *world
	since := procStart
	for i := 0; i < spec.setups; i++ {
		w = nil
		runtime.GC() // drop the previous instance before building the next
		var err error
		if w, err = spec.build(seed, sz, since); err != nil {
			return nil, nil, err
		}
		all = append(all, w.parts)
		since = time.Now()
	}
	sort.Slice(all, func(i, j int) bool { return all[i].total() < all[j].total() })
	return w, all[len(all)/2], nil
}

// pairStats is one timed pass of the forwarding loop and the reference
// pass that followed it.
type pairStats struct {
	passStats
	ref  float64 // reference data plane, packets per second
	refs float64 // memory references charged per packet (mem.Counter)
}

// vsRef is the pass's rate as a share of the reference rate measured
// right after it.
func (p pairStats) vsRef() float64 { return p.pps() / p.ref }

// column extracts one value per pair.
func column(ps []pairStats, get func(pairStats) float64) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = get(p)
	}
	return out
}

// runInProcess measures one of the three in-process workloads.
func runInProcess(cfg runConfig, spec inprocSpec) (*result, error) {
	sz := cfg.sizes
	w, parts, err := spec.medianSetup(cfg.seed, sz, cfg.procStart)
	if err != nil {
		return nil, err
	}
	res := newResult()
	res.putSetup(parts)

	clk := clock{epoch: time.Now()}
	f := newForwarder(clk, w.rcu, w.set)

	// The window is cut into pairs: a pass of the forwarding loop, then a
	// pass of the reference data plane. A metric is the median over pairs.
	// An untraced run spends the whole window on the workload proper; a
	// traced run splits it so the same process yields the untraced rate,
	// the traced rate, and (churn) the static rate the churned one is
	// compared with.
	pairs := max(int(sz.window/(sz.passDur+sz.refDur)), 9)
	static, untraced, traced, extraDur := 0, pairs, 0, time.Duration(0)
	if cfg.trace {
		switch {
		case spec.churn:
			static, untraced = pairs*2/9, pairs*3/9
			traced = pairs - static - untraced
		case !spec.modern:
			// The last third goes to the telemetry-detached, core spec and
			// pipeline measurements, a ninth of the window each.
			untraced, traced = pairs/3, pairs/3
			extraDur = sz.window / 9
		default:
			untraced, traced = pairs/2, pairs-pairs/2
		}
	}

	var wr *churnWriter
	var fwdTracer, wrTracer *tracer
	if cfg.trace {
		fwdTracer = newTracer("forwarder")
		if spec.churn {
			wrTracer = newTracer("writer")
		}
	}

	measure := func(n int) []pairStats {
		out := make([]pairStats, 0, n)
		for i := 0; i < n; i++ {
			r0 := f.refs.Count()
			ps := f.pass(sz.passDur)
			refs := float64(f.refs.Count()-r0) / float64(ps.pkts)
			out = append(out, pairStats{ps, f.refPass(w.ref, sz.refDur), refs})
		}
		return out
	}
	measure(1) // warm both loops' code and data

	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0, wall0 := selfCPU(), time.Now()
	pm0 := snapshotPM(w.pm)

	st := measure(static)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var churnStart int64
	if spec.churn {
		f.feed = &probeFeed{probes: w.plan.probes, next: churnWarm}
		f.feed.issued.Store(churnWarm)
		churnStart = clk.now()
		// Burst churnWarm is due now, and one every period after it.
		f.feed.due = newSchedule(churnStart-churnWarm*int64(sz.churnPeriod), float64(time.Second)/float64(sz.churnPeriod))
		wr = &churnWriter{clk: clk, rcu: w.rcu, plan: w.plan, feed: f.feed, tr: wrTracer, next: churnWarm}
		wg.Add(1)
		go func() { defer wg.Done(); wr.run(stop) }()
	}

	un := measure(untraced)
	f.tr = fwdTracer
	tr := measure(traced)
	f.tr = nil

	var churnNs int64
	if spec.churn {
		close(stop)
		wg.Wait()
		churnNs = clk.now() - churnStart
		// Grace: keep forwarding until every issued probe has been seen
		// or has stalled.
		for grace := clk.now(); f.feed.next < f.feed.issued.Load() && clk.now()-grace < int64(2*probeStall); {
			f.pass(10 * time.Millisecond)
		}
	}
	pm1 := snapshotPM(w.pm)
	cpu1, wallS := selfCPU(), time.Since(wall0).Seconds()
	runtime.ReadMemStats(&ms1)

	// End-to-end metrics, from the untraced pairs.
	var pkts int64
	for _, ps := range [][]pairStats{st, un, tr} {
		for _, p := range ps {
			pkts += p.pkts
		}
	}
	res.attempted += pkts
	unVsRef := summarize(column(un, pairStats.vsRef))
	res.put("fwd_vs_ref", unVsRef)
	res.put("bench.fwd_pps", summarize(column(un, func(p pairStats) float64 { return p.pps() })))
	res.put("bench.ref_pps", summarize(column(un, func(p pairStats) float64 { return p.ref })))
	res.put("bench.lat_p50_us", summarize(column(un, func(p pairStats) float64 { return p.p50 / 1e3 })))
	res.put("bench.lat_p90_us", summarize(column(un, func(p pairStats) float64 { return p.p90 / 1e3 })))
	res.put("bench.lat_p99_us", summarize(column(un, func(p pairStats) float64 { return p.p99 / 1e3 })))
	res.put("bench.lat_p999_us", summarize(column(un, func(p pairStats) float64 { return p.p999 / 1e3 })))
	res.put("refs_per_pkt", summarize(column(un, func(p pairStats) float64 { return p.refs })))
	res.passes = len(un)

	dPkts := float64(pm1.packets - pm0.packets)
	if dPkts > 0 {
		res.put("fastpath.claim1_hit_share", single(float64(pm1.fd-pm0.fd)/dPkts))
		res.put("fastpath.search_share", single(1-float64(pm1.fd-pm0.fd)/dPkts))
	}
	res.put("fastpath.allocs_per_pkt", single(float64(ms1.Mallocs-ms0.Mallocs)/float64(pkts)))
	res.put("bench.gen_cpu_busy_share", single(cpu1.sub(cpu0).total()/wallS))
	res.put("header.peek_fail", single(float64(f.peekFail)))
	res.fail(f.peekFail, "headers rejected by PeekIPv4")
	res.fail(f.badWrite, "in-place rewrites refused")
	res.fail(w.ref.badSum, "checksums the reference data plane could not verify")
	if !spec.churn {
		// Every destination was chosen routable and the table is static.
		res.fail(f.noRoute, "packets found no route on a static table")
	}

	if cfg.trace {
		res.put("bench.traced_fwd_pps", summarize(column(tr, func(p pairStats) float64 { return p.pps() })))
		// Both sides as shares of the reference rate, so that a host that
		// changed speed between the two segments does not read as overhead.
		res.put("bench.trace_overhead_share", single(1-summarize(column(tr, pairStats.vsRef)).Median/unVsRef.Median))
		var tPkts, tNs int64
		for _, p := range tr {
			tPkts += p.pkts
			tNs += p.ns
		}
		per := func(l layer) float64 { return float64(fwdTracer.sumNs[l]) / float64(fwdTracer.pkts[l]) }
		self := per(layerBatch) - per(layerPeek) - per(layerProcess) - per(layerRewrite)
		res.put("header.peek_ns_per_pkt", single(per(layerPeek)))
		res.put("fastpath.process_ns_per_pkt", single(per(layerProcess)))
		res.put("header.rewrite_ns_per_pkt", single(per(layerRewrite)))
		res.put("bench.loop_self_ns_per_pkt", single(self))
		// Layer costs must add back to the traced run's time per packet.
		res.put("bench.layer_sum_share", single(per(layerBatch)/(float64(tNs)/float64(tPkts))))
	}

	if spec.churn {
		if len(st) > 0 {
			res.put("fastpath.fwd_ratio_under_churn", single(unVsRef.Median/summarize(column(st, pairStats.vsRef)).Median))
		}
		if err := finishChurn(res, w, f, wr, churnNs); err != nil {
			return nil, err
		}
	} else {
		putMemStats(res, w.rcu.Snapshot())
		if extraDur > 0 {
			paperHotExtras(res, w, f, extraDur, res.metrics["bench.fwd_pps"].Median, res.metrics["fastpath.process_ns_per_pkt"].Median)
		}
		bad := oracleCheck(w.rcu.Snapshot(), w.set, nil)
		res.fail(bad, "packets disagree with full LPM after timing")
	}

	if cfg.traceOut != "" {
		if err := writeSpans(cfg.traceOut, fwdTracer, wrTracer); err != nil {
			return nil, err
		}
	}
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	res.put("peak_rss_mb", single(rss))
	return res, nil
}

// putMemStats reports the snapshot's footprint: the end-to-end bytes per
// prefix (every byte of the snapshot over the clue entries it serves)
// and the per-structure split.
func putMemStats(res *result, snap *fastpath.Snapshot) {
	m := snap.MemStats()
	res.put("bytes_per_prefix", single(float64(m.TotalBytes())/float64(m.Entries)))
	res.put("fastpath.slot_bytes", single(float64(m.SlotBytes)))
	res.put("fastpath.trie_index_bytes", single(float64(m.LocalTrieBytes+m.SenderTrieBytes)))
	res.put("fastpath.dict_bytes", single(float64(m.DictBytes)))
}

// pmCounts is the part of a PacketMetrics bundle the benchmark reads.
type pmCounts struct{ packets, fd uint64 }

func snapshotPM(pm *telemetry.PacketMetrics) pmCounts {
	return pmCounts{packets: pm.Packets(), fd: pm.OutcomeCount(int(core.OutcomeFD))}
}

// finishChurn quiesces churn-modern and reports the writer side:
// visibility, Apply cost, the RCU's own counters, and the two sweeps.
func finishChurn(res *result, w *world, f *forwarder, wr *churnWriter, churnNs int64) error {
	fd := f.feed
	issued := fd.issued.Load()
	res.attempted += issued - churnWarm
	stalls := fd.stalls + (issued - fd.next)
	res.fail(stalls, "probes never became visible")
	res.put("fastpath.probe_stalls", single(float64(stalls)))
	vis := msQuantiles(fd.visNs)
	res.put("fastpath.vis_p50_ms", vis(0.5))
	res.put("fastpath.vis_p90_ms", vis(0.9))
	res.put("fastpath.vis_p99_ms", vis(0.99))

	var applyNs int64
	for _, ns := range wr.applyNs {
		applyNs += ns
	}
	apply := msQuantiles(wr.applyNs)
	res.put("fastpath.apply_ms_p50", apply(0.5))
	res.put("fastpath.apply_ms_p99", apply(0.99))
	res.put("fastpath.apply_wait_ms_p50", msQuantiles(wr.waitNs)(0.5))
	if wr.ops > 0 {
		res.put("fastpath.apply_us_per_op", single(float64(applyNs)/1e3/float64(wr.ops)))
	}
	res.put("fastpath.apply_busy_share", single(float64(applyNs)/float64(churnNs)))
	res.put("fastpath.applies", single(float64(w.wm.Applies.Value())))
	res.put("fastpath.fallbacks", single(float64(w.wm.Fallbacks.Value())))
	res.put("fastpath.recompiles", single(float64(w.wm.Recompiles.Value())))
	res.put("fastpath.compactions", single(float64(w.wm.Compactions.Value())))
	res.put("fastpath.coalesced", single(float64(w.wm.Coalesced.Value())))

	// Quiesced. The patched snapshot's footprint is read now, so bloat
	// left behind by copy-on-write patching shows in bytes_per_prefix.
	patched := w.rcu.Snapshot()
	putMemStats(res, patched)

	// Sweep 1: every packet, and every probe, against full LPM on a
	// reference trie that absorbed the same bursts from a clean copy.
	w.plan.applyToTrie(w.refLoc, wr.next)
	bad := oracleCheck(patched, w.set, w.refLoc)
	for i := range w.plan.probes[:wr.next] {
		pr := &w.plan.probes[i]
		if p, v, ok := w.refLoc.Lookup(pr.d, nil); !ok || p != pr.p || v != pr.v {
			return fmt.Errorf("churn: probe %v is shadowed in the reference trie (by %v)", pr.p, p)
		}
		r := patched.ProcessNoClue(pr.d, nil)
		if !r.OK || r.Prefix != pr.p || r.Value != pr.v {
			bad++
		}
	}
	// Sweep 2: the incrementally patched snapshot against a from-scratch
	// compile of the master table that absorbed the same bursts — result
	// and charged references must both agree.
	w.rcu.Mutate(func(*core.Table) {})
	bad += sameAnswers(patched, w.rcu.Snapshot(), w.set, w.plan.probes[:wr.next])
	res.fail(bad, "sweep mismatches after quiesce")
	res.put("fastpath.sweep_mismatches", single(float64(bad)))
	return nil
}

// paperHotExtras are the three layer measurements only the traced run
// of fwd-paper-hot makes, one pass each: the forwarding loop with
// telemetry detached, the executable spec (core.Table.Process) over the
// same packets, and the same packets through a one-worker pipeline.
func paperHotExtras(res *result, w *world, f *forwarder, passDur time.Duration, attachedPPS, processNs float64) {
	// Pipeline: producer → ring → one worker calling ProcessBatch. What
	// it costs beyond the direct call is the hand-off.
	eng := pipeline.NewRCUEngine(w.rcu, pipeline.Config{Workers: 1}, false)
	start := time.Now()
	var pushed int
	for time.Since(start) < passDur {
		for i := 0; i < batchSize; i++ {
			j := pushed % len(w.set.dests)
			eng.Push(pipeline.Packet{Dest: w.set.dests[j], Clue: w.set.clues[j]})
			pushed++
		}
	}
	eng.Close()
	eng.Wait()
	wallNs := float64(time.Since(start))
	st := eng.Stats()
	res.put("pipeline.handoff_ns_per_pkt", single(wallNs/float64(st.Processed)-processNs))
	res.put("pipeline.worker_busy_share", single(float64(st.BusyNs)/wallNs))

	// Telemetry: the same loop with the bundle detached. SetTelemetry
	// republishes the snapshot, so this goes after everything that reads
	// the counters.
	w.rcu.SetTelemetry(nil)
	detached := f.pass(passDur).pps()
	res.put("telemetry.record_ns_per_pkt", single(1e9/attachedPPS-1e9/detached))

	// The spec the ≥5× gate divides by. No writer runs, so reading the
	// master table beside the RCU that owns it is safe.
	start = time.Now()
	var n int
	for time.Since(start) < passDur {
		for i := 0; i < batchSize; i++ {
			j := n % len(w.set.dests)
			w.tab.Process(w.set.dests[j], w.set.clues[j], nil)
			n++
		}
	}
	res.put("core.process_ns_per_pkt", single(float64(time.Since(start))/float64(n)))
}
