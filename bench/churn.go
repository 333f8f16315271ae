package main

import (
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/churn"
	"repro/internal/fastpath"
	"repro/internal/fib"
	"repro/internal/header"
	"repro/internal/ip"
	"repro/internal/mem"
	"repro/internal/synth"
	"repro/internal/trie"
)

// churn-modern's writer side: a second goroutine applies pre-generated
// route-update bursts to the live RCU on a fixed schedule while the
// forwarder keeps forwarding. Each burst carries one probe route, and
// the forwarder itself — not a side channel — reports when a packet
// first comes back routed by it.

// probeStall is how long a probe may stay invisible before it is
// counted as a stall and abandoned.
const probeStall = 2 * time.Second

// probe is one visibility measurement: a prefix absent from both tables
// and longer than anything the update stream announces, so once
// published it is the longest match for its destination and nothing
// shadows or withdraws it. It is announced with a unique next hop, so
// "a forwarded packet came back with (p, v)" is exactly "the update is
// visible to the read side".
type probe struct {
	hdr [hdrLen]byte // packet to d, carrying the sender's clue for d
	d   ip.Addr
	p   ip.Prefix
	v   int
}

// probeFeed couples the writer and the forwarder. The writer owns
// issued; the forwarder owns next and the result slices.
type probeFeed struct {
	probes []probe
	due    schedule // burst k, and with it probe k, is due at due.due(k)
	// issued: probes [0, issued) have been handed to Apply. Stored by
	// the writer just before the call, so the forwarder may start looking
	// slightly early but never late.
	issued atomic.Int64

	next   int64   // oldest probe not yet seen
	visNs  []int64 // due → first forwarded packet routed by the probe
	stalls int64
}

// loadProbe overwrites the batch's last packet with the oldest
// outstanding probe's, if there is one.
func (f *forwarder) loadProbe() {
	fd := f.feed
	f.probe.on = false
	if fd.next >= fd.issued.Load() {
		return
	}
	copy(f.buf[probeSlot*hdrLen:], fd.probes[fd.next].hdr[:])
	f.probe.on, f.probe.k = true, fd.next
}

// checkProbe looks at how the probe packet of the batch just forwarded
// was routed.
func (f *forwarder) checkProbe(now int64) {
	fd := f.feed
	pr := &fd.probes[f.probe.k]
	due := fd.due.due(f.probe.k)
	r := &f.out[probeSlot]
	switch {
	case r.OK && r.Prefix == pr.p && r.Value == pr.v:
		fd.visNs = append(fd.visNs, now-due)
		fd.next++
	case now-due > int64(probeStall):
		fd.stalls++
		fd.next++
	}
}

// refSlice is how long the forwarder looks away from an outstanding
// probe while the reference data plane runs.
const refSlice = time.Millisecond

// refPass runs the reference data plane for dur and returns its rate.
// Under churn the forwarder keeps watching for the outstanding probe:
// the pass is cut into refSlice pieces with one lookup of the probe's
// packet between them, so a route that becomes visible during a
// reference pass is seen within a millisecond, not at the next batch.
func (f *forwarder) refPass(ref *refPlane, dur time.Duration) float64 {
	if f.feed == nil {
		pkts, ns := ref.pass(dur)
		return float64(pkts) / (float64(ns) / 1e9)
	}
	var pkts, ns int64
	for ns < int64(dur) {
		p, n := ref.pass(min(refSlice, dur-time.Duration(ns)))
		pkts, ns = pkts+p, ns+n
		if f.loadProbe(); f.probe.on {
			pr := &f.feed.probes[f.probe.k]
			d, _, c, _, _ := header.PeekIPv4(pr.hdr[:])
			f.out[probeSlot] = f.rcu.Snapshot().Process(d, c, nil)
			f.checkProbe(f.clk.now())
		}
	}
	return float64(pkts) / (float64(ns) / 1e9)
}

// churnPlan is everything the writer will do, generated from the seed
// before timing starts: burst k's route ops, with probe k's announce
// appended.
type churnPlan struct {
	bursts [][]fastpath.RouteOp
	probes []probe
}

// planChurn pre-generates n bursts of the BGP-shaped stream over the
// sender table, and one probe per burst.
func planChurn(seed int64, n, meanBurst int, sender *fib.Table, st, rt *trie.Trie) (*churnPlan, error) {
	sc := churn.StreamConfig{Seed: seed + 3, MeanBurst: meanBurst}
	stream := churn.NewStream(sc, sender)
	// The stream announces IPv4 prefixes of length 16..26 (its
	// defaults); probes sit two bits past that, out of its reach.
	const probeLen = 28
	plan := &churnPlan{bursts: make([][]fastpath.RouteOp, n)}

	pw := synth.NewWorkload(seed+4, sender)
	seen := make(map[ip.Prefix]bool, n)
	for tries := 0; len(plan.probes) < n; tries++ {
		if tries > 64*n {
			return nil, fmt.Errorf("churn: found only %d of %d probe prefixes", len(plan.probes), n)
		}
		d := pw.Next()
		p := ip.PrefixFrom(d, probeLen)
		if seen[p] || rt.Contains(p) || st.Contains(p) {
			continue
		}
		// A route at or past the probe's length would shadow it.
		if mp, _, ok := rt.Lookup(d, nil); ok && mp.Len() >= probeLen {
			continue
		}
		sp, _, ok := st.Lookup(d, nil)
		if !ok {
			continue
		}
		seen[p] = true
		h := header.IPv4{TTL: 64, Protocol: 17, Src: ip.AddrFrom4(10, 0, 0, 1), Dst: d,
			Clue: &header.ClueOption{Len: sp.Clue()}}
		b, err := h.Marshal(0)
		if err != nil {
			return nil, fmt.Errorf("churn: marshal probe: %w", err)
		}
		pr := probe{d: d, p: p, v: 1<<20 + len(plan.probes)}
		copy(pr.hdr[:], b)
		plan.probes = append(plan.probes, pr)
	}
	for k := range plan.bursts {
		ev := stream.Next()
		ops := append(ev.Local.Ops(), ev.Sender.SenderOps()...)
		pr := &plan.probes[k]
		ops = append(ops, fastpath.RouteOp{Kind: fastpath.OpAnnounce, Prefix: pr.p, Value: pr.v})
		plan.bursts[k] = ops
	}
	return plan, nil
}

// churnWriter applies the plan's bursts on the feed's schedule.
type churnWriter struct {
	clk  clock
	rcu  *fastpath.RCU
	plan *churnPlan
	feed *probeFeed
	tr   *tracer // nil when untraced

	next    int     // first burst not yet applied; starts past the warm-up bursts
	done    int     // bursts applied by run
	ops     int64   // route ops in them
	applyNs []int64 // time inside Apply, per burst
	waitNs  []int64 // due → Apply entered, per burst
}

// run applies bursts until stop closes or the plan runs out. It is an
// open loop: a burst that is late is applied at once and the schedule
// does not slip, so a slow Apply shows up as waiting time on the bursts
// behind it.
func (w *churnWriter) run(stop <-chan struct{}) {
	for ; w.next < len(w.plan.bursts); w.next++ {
		k := w.next
		due := w.feed.due.due(int64(k))
		if d := due - w.clk.now(); d > 0 {
			t := time.NewTimer(time.Duration(d))
			select {
			case <-stop:
				t.Stop()
				return
			case <-t.C:
			}
		} else {
			select {
			case <-stop:
				return
			default:
			}
		}
		w.feed.issued.Store(int64(k + 1))
		t0 := w.clk.now()
		w.rcu.Apply(w.plan.bursts[k])
		t1 := w.clk.now()
		if w.tr != nil {
			w.tr.add(layerApply, -1, uint32(k), t0, t1, len(w.plan.bursts[k]))
		}
		w.waitNs = append(w.waitNs, t0-due)
		w.applyNs = append(w.applyNs, t1-t0)
		w.ops += int64(len(w.plan.bursts[k]))
		w.done++
	}
}

// applyToTrie absorbs the first n bursts into a reference copy of the
// receiver's trie — the oracle the post-quiesce sweep matches against.
// Sender-side ops do not change the receiver's longest-prefix match.
func (p *churnPlan) applyToTrie(local *trie.Trie, n int) {
	for _, ops := range p.bursts[:n] {
		for _, op := range ops {
			switch op.Kind {
			case fastpath.OpAnnounce:
				local.Insert(op.Prefix, op.Value)
			case fastpath.OpWithdraw:
				local.Delete(op.Prefix)
			}
		}
	}
}

// sameAnswers counts packets of the set, and probes, on which two
// snapshots disagree in result or in memory references charged.
func sameAnswers(a, b *fastpath.Snapshot, set *packetSet, probes []probe) int64 {
	var bad int64
	if a.Len() != b.Len() {
		bad++
	}
	var ca, cb mem.Counter
	for i, d := range set.dests {
		ca.Reset()
		cb.Reset()
		if a.Process(d, set.clues[i], &ca) != b.Process(d, set.clues[i], &cb) || ca.Count() != cb.Count() {
			bad++
		}
	}
	for i := range probes {
		d, _, c, _, _ := header.PeekIPv4(probes[i].hdr[:])
		ca.Reset()
		cb.Reset()
		if a.Process(d, c, &ca) != b.Process(d, c, &cb) || ca.Count() != cb.Count() {
			bad++
		}
	}
	return bad
}

// msQuantiles sorts nanosecond samples in place and returns a reader of
// their exact quantiles, in ms, carrying the sample count.
func msQuantiles(ns []int64) func(q float64) summary {
	slices.Sort(ns)
	return func(q float64) summary {
		v, _ := quantile(ns, q)
		return summary{Median: float64(v) / 1e6, Samples: len(ns)}
	}
}
