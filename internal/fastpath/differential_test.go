// Differential tests: a compiled Snapshot must follow core.Table outcome
// for outcome, next hop for next hop, Degraded flag for Degraded flag AND
// memory reference for memory reference — over paper-shaped tables (all
// five engines, both methods, both families, sender verification on and
// off), fuzzed random pairs, fault-injected clue streams, and the
// learning / invalidation write paths through RCU.
package fastpath_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/fastpath"
	"repro/internal/fault"
	"repro/internal/fib"
	"repro/internal/ip"
	"repro/internal/lookup"
	"repro/internal/mem"
	"repro/internal/synth"
	"repro/internal/telemetry"
	"repro/internal/trie"
)

// pairFixture is one sender→receiver hop plus a clue-carrying workload.
// The tries are built once and shared by every table in a test:
// fib.Table.Trie() returns a fresh trie per call, and tables that must
// agree after a route change need the same instance.
type pairFixture struct {
	sender, receiver *fib.Table
	st, rt           *trie.Trie
	dests            []ip.Addr
	clues            []int // the sender's true clue per packet
}

// perturb widens a clean workload with the clue pathologies the table
// must degrade on: out-of-range lengths (BadClue), zero and width clues,
// off-by-a-bit lengths (typically Miss), plus fault.Injector noise.
func (p *pairFixture) perturb(seed int64) {
	width := p.sender.Family().Width()
	inj := fault.Single(fault.ClassBitFlip, 0.5, seed, width)
	rng := rand.New(rand.NewSource(seed))
	n := len(p.dests)
	for i := 0; i < n; i++ {
		d, c := p.dests[i], p.clues[i]
		switch i % 4 {
		case 0:
			c, _ = inj.PerturbClue(c)
		case 1:
			c = rng.Intn(width+3) - 1 // [-1, width+1]
		case 2:
			c = c - 1 + rng.Intn(3)
		case 3:
			c = []int{0, width, width + 1, -1}[rng.Intn(4)]
		}
		p.dests = append(p.dests, d)
		p.clues = append(p.clues, c)
	}
}

func v4Pair(tb testing.TB, nPackets int) *pairFixture {
	tb.Helper()
	routers := synth.PaperRouters(1999, 0.1)
	p := &pairFixture{sender: routers["AT&T-1"], receiver: routers["AT&T-2"]}
	p.st, p.rt = p.sender.Trie(), p.receiver.Trie()
	fillWorkload(p, 23, nPackets)
	return p
}

func v6Pair(tb testing.TB, nPackets int) *pairFixture {
	tb.Helper()
	u := synth.NewUniverseV6(41, 4000)
	p := &pairFixture{
		sender:   u.Router(synth.RouterSpec{Name: "v6-sender", Size: 2500, Divergence: 0.03}),
		receiver: u.Router(synth.RouterSpec{Name: "v6-receiver", Size: 2500, Divergence: 0.03}),
	}
	p.st, p.rt = p.sender.Trie(), p.receiver.Trie()
	fillWorkload(p, 29, nPackets)
	return p
}

func fillWorkload(p *pairFixture, seed int64, n int) {
	w := synth.NewWorkload(seed, p.sender)
	for len(p.dests) < n {
		d := w.Next()
		c := 0
		if bmp, _, ok := p.st.Lookup(d, nil); ok {
			c = bmp.Clue()
		}
		p.dests = append(p.dests, d)
		p.clues = append(p.clues, c)
	}
}

// newTable builds a warm (preprocessed, non-learning) table for the pair.
func newTable(tb testing.TB, p *pairFixture, m core.Method, e lookup.ClueEngine, verify bool) *core.Table {
	tb.Helper()
	cfg := core.Config{Method: m, Engine: e, Local: p.rt, Sender: p.st.Contains}
	if verify {
		cfg.Verify = true
		cfg.SenderTrie = p.st
	}
	tab := core.MustNewTable(cfg)
	tab.Preprocess(p.sender.Prefixes())
	return tab
}

// requirePairs fails unless the fixture compiled entries that keep both
// trie handles in the side array (Verify on a marked clue with a
// restricted search behind it) — or none at all without Verify.
func requirePairs(tb testing.TB, snap *fastpath.Snapshot, verify bool) {
	tb.Helper()
	if n, records := snap.PairStats(); (n > 0) != verify || records != n {
		tb.Fatalf("verify=%v: %d entries in the side array, %d records", verify, n, records)
	}
}

// checkPacket processes one packet through both implementations and
// fails on any divergence: outcome, prefix, value, OK, Degraded, refs.
func checkPacket(tb testing.TB, label string, want func(ip.Addr, int, *mem.Counter) core.Result,
	got func(ip.Addr, int, *mem.Counter) core.Result, d ip.Addr, c int) {
	tb.Helper()
	var cw, cg mem.Counter
	w := want(d, c, &cw)
	g := got(d, c, &cg)
	if w != g {
		tb.Fatalf("%s: dest %v clue %d: core %+v (degraded=%v) fastpath %+v (degraded=%v)",
			label, d, c, w, w.Outcome.Degraded(), g, g.Outcome.Degraded())
	}
	if cw.Count() != cg.Count() {
		tb.Fatalf("%s: dest %v clue %d (outcome %v): core charged %d refs, fastpath %d",
			label, d, c, w.Outcome, cw.Count(), cg.Count())
	}
}

// TestDifferentialEngines drives every engine × method × verify × family
// combination over a paper-shaped workload including perturbed clues.
func TestDifferentialEngines(t *testing.T) {
	for _, fam := range []struct {
		name string
		pair *pairFixture
	}{
		{"IPv4", v4Pair(t, 1500)},
		{"IPv6", v6Pair(t, 1000)},
	} {
		fam.pair.perturb(7)
		for _, e := range lookup.All(fam.pair.rt) {
			for _, m := range []core.Method{core.Simple, core.Advance} {
				for _, verify := range []bool{false, true} {
					if verify && m != core.Advance {
						continue
					}
					name := fam.name + "/" + m.String() + "/" + e.Name()
					if verify {
						name += "/verify"
					}
					t.Run(name, func(t *testing.T) {
						p := fam.pair
						tab := newTable(t, p, m, e, verify)
						snap := fastpath.Compile(tab)
						if (e.Name() == "Regular") != snap.Flat() {
							t.Fatalf("flat=%v for engine %s", snap.Flat(), e.Name())
						}
						if snap.Len() != tab.Len() {
							t.Fatalf("snapshot has %d entries, table %d", snap.Len(), tab.Len())
						}
						requirePairs(t, snap, verify)
						for i := range p.dests {
							checkPacket(t, name, tab.Process, snap.Process, p.dests[i], p.clues[i])
						}
						// Clue-less packets (§5.3 legacy neighbors).
						for i := 0; i < 64; i++ {
							var cw, cg mem.Counter
							w := tab.ProcessNoClue(p.dests[i], &cw)
							g := snap.ProcessNoClue(p.dests[i], &cg)
							if w != g || cw.Count() != cg.Count() {
								t.Fatalf("NoClue dest %v: core %+v (%d refs) fastpath %+v (%d refs)",
									p.dests[i], w, cw.Count(), g, cg.Count())
							}
						}
					})
				}
			}
		}
	}
}

// TestDifferentialCompressed drives the compressed layout through the
// same engine × method × verify × family matrix, pinning it packet for
// packet (outcome, next hop, refs) to BOTH the core table and the flat
// snapshot, and telemetry counter for telemetry counter to the flat
// snapshot over the identical workload.
func TestDifferentialCompressed(t *testing.T) {
	for _, fam := range []struct {
		name string
		pair *pairFixture
	}{
		{"IPv4", v4Pair(t, 1200)},
		{"IPv6", v6Pair(t, 800)},
	} {
		fam.pair.perturb(13)
		for _, e := range lookup.All(fam.pair.rt) {
			for _, m := range []core.Method{core.Simple, core.Advance} {
				for _, verify := range []bool{false, true} {
					if verify && m != core.Advance {
						continue
					}
					name := fam.name + "/" + m.String() + "/" + e.Name()
					if verify {
						name += "/verify"
					}
					t.Run(name, func(t *testing.T) {
						p := fam.pair
						tab := newTable(t, p, m, e, verify)
						flatTel := telemetry.NewPacketMetrics(telemetry.NewRegistry(), "flat", core.OutcomeLabels())
						compTel := telemetry.NewPacketMetrics(telemetry.NewRegistry(), "comp", core.OutcomeLabels())
						tab.SetTelemetry(flatTel)
						flat := fastpath.CompileLayout(tab, fastpath.LayoutFlat)
						tab.SetTelemetry(compTel)
						comp := fastpath.CompileLayout(tab, fastpath.LayoutCompressed)
						tab.SetTelemetry(nil)
						if flat.Compressed() {
							t.Fatal("LayoutFlat produced a compressed snapshot")
						}
						if (e.Name() == "Regular" || verify) != comp.Compressed() {
							t.Fatalf("compressed=%v for engine %s verify=%v", comp.Compressed(), e.Name(), verify)
						}
						requirePairs(t, flat, verify)
						requirePairs(t, comp, verify)
						for i := range p.dests {
							d, c := p.dests[i], p.clues[i]
							var cw, cf, cg mem.Counter
							w := tab.Process(d, c, &cw)
							f := flat.Process(d, c, &cf)
							g := comp.Process(d, c, &cg)
							if w != g || f != g {
								t.Fatalf("dest %v clue %d: core %+v flat %+v compressed %+v", d, c, w, f, g)
							}
							if cw.Count() != cg.Count() || cf.Count() != cg.Count() {
								t.Fatalf("dest %v clue %d: refs core %d flat %d compressed %d",
									d, c, cw.Count(), cf.Count(), cg.Count())
							}
						}
						for i := 0; i < 64; i++ {
							var cw, cg mem.Counter
							w := flat.ProcessNoClue(p.dests[i], &cw)
							g := comp.ProcessNoClue(p.dests[i], &cg)
							if w != g || cw.Count() != cg.Count() {
								t.Fatalf("NoClue dest %v: flat %+v (%d refs) compressed %+v (%d refs)",
									p.dests[i], w, cw.Count(), g, cg.Count())
							}
						}
						// Telemetry equality: same packets, same outcome
						// counts, same aggregate refs on both layouts.
						// (checkPacket ran each workload packet once per
						// snapshot; the NoClue loop adds 64 more to each.)
						if flatTel.Packets() != compTel.Packets() || flatTel.Refs() != compTel.Refs() {
							t.Fatalf("telemetry diverged: flat %d packets/%d refs, compressed %d packets/%d refs",
								flatTel.Packets(), flatTel.Refs(), compTel.Packets(), compTel.Refs())
						}
						for o := range core.OutcomeLabels() {
							if flatTel.OutcomeCount(o) != compTel.OutcomeCount(o) {
								t.Fatalf("telemetry outcome %v: flat %d, compressed %d",
									core.Outcome(o), flatTel.OutcomeCount(o), compTel.OutcomeCount(o))
							}
						}
					})
				}
			}
		}
	}
}

// TestDifferentialCompressedRCU keeps a compressed-layout RCU in
// lockstep with a learning core table through the Learn, Invalidate and
// Revalidate write grades: every publication recompiles or patches the
// compressed snapshot, and the read side must never diverge.
func TestDifferentialCompressedRCU(t *testing.T) {
	p := v4Pair(t, 800)
	p.perturb(17)
	ref := core.MustNewTable(core.Config{
		Method: core.Advance, Engine: lookup.NewRegular(p.rt),
		Local: p.rt, Sender: p.st.Contains,
		Learn: true, LearnLimit: 40,
	})
	live := core.MustNewTable(core.Config{
		Method: core.Advance, Engine: lookup.NewRegular(p.rt),
		Local: p.rt, Sender: p.st.Contains,
		Learn: true, LearnLimit: 40,
	})
	rcu := fastpath.NewRCULayout(live, fastpath.LayoutCompressed)
	if !rcu.Snapshot().Compressed() {
		t.Fatal("NewRCULayout(LayoutCompressed) published a flat snapshot")
	}
	for i := range p.dests {
		d, c := p.dests[i], p.clues[i]
		var cw, cg mem.Counter
		w := ref.Process(d, c, &cw)
		g := rcu.Process(d, c, &cg)
		if w != g || cw.Count() != cg.Count() {
			t.Fatalf("packet %d dest %v clue %d: core %+v (%d refs) rcu %+v (%d refs)",
				i, d, c, w, cw.Count(), g, cg.Count())
		}
		if g.Outcome == core.OutcomeMiss {
			rcu.Learn(d, c)
		}
	}
	if rcu.Len() != ref.Len() {
		t.Fatalf("learned tables diverged: core %d entries, rcu %d", ref.Len(), rcu.Len())
	}
	if !rcu.Snapshot().Compressed() {
		t.Fatal("patching lost the compressed layout")
	}
	var victims []ip.Prefix
	for i := 0; i < len(p.dests) && len(victims) < 30; i += 9 {
		if bmp, _, ok := p.st.Lookup(p.dests[i], nil); ok {
			victims = append(victims, bmp)
		}
	}
	for _, v := range victims {
		if ref.Invalidate(v) != rcu.Invalidate(v) {
			t.Fatalf("Invalidate(%v) disagreed", v)
		}
	}
	for i := range p.dests {
		checkPacket(t, "invalidated", ref.Process, rcu.Process, p.dests[i], p.clues[i])
	}
}

// TestCompressedApplyPatches pins the ISSUE-10 writer contract: Apply on
// a compressed snapshot patches the packed trie in place (Applies, never
// Fallbacks for a modest batch) and the patched snapshot must equal a
// from-scratch compile of the same table — packet for packet, ref for
// ref — across repeated batches of announces and withdraws.
func TestCompressedApplyPatches(t *testing.T) {
	p := v4Pair(t, 400)
	live := newTable(t, p, core.Advance, lookup.NewRegular(p.rt), false)
	rcu := fastpath.NewRCULayout(live, fastpath.LayoutCompressed)
	reg := telemetry.NewRegistry()
	fallbacks := reg.NewCounter("fallbacks", "")
	recompiles := reg.NewCounter("recompiles", "")
	applies := reg.NewCounter("applies", "")
	rcu.SetMetrics(fastpath.Metrics{Fallbacks: fallbacks, Recompiles: recompiles, Applies: applies})
	for round := 0; round < 5; round++ {
		ops := []fastpath.RouteOp{
			{Kind: fastpath.OpAnnounce, Prefix: ip.PrefixFrom(p.dests[3*round], 26), Value: 991 + round},
			{Kind: fastpath.OpAnnounce, Prefix: ip.PrefixFrom(p.dests[3*round+1], 24), Value: 1091 + round},
			{Kind: fastpath.OpWithdraw, Prefix: ip.PrefixFrom(p.dests[3*round+2], 28)},
		}
		rcu.Apply(ops)
		if applies.Value() != uint64(round+1) || fallbacks.Value() != 0 || recompiles.Value() != 0 {
			t.Fatalf("round %d: applies=%d fallbacks=%d recompiles=%d, want %d/0/0",
				round, applies.Value(), fallbacks.Value(), recompiles.Value(), round+1)
		}
		snap := rcu.Snapshot()
		if !snap.Compressed() {
			t.Fatal("in-place patch lost the compressed layout")
		}
		ref := fastpath.CompileLayout(live, fastpath.LayoutCompressed)
		for i := range p.dests {
			checkPacket(t, "post-apply", ref.Process, snap.Process, p.dests[i], p.clues[i])
		}
	}
}

// TestDifferentialFuzz builds small random universes and random clue
// streams (clue lengths drawn uniformly from [-2, width+2], so hits,
// misses and bad clues all occur) and checks packet-for-packet equality.
func TestDifferentialFuzz(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		u := synth.NewUniverse(100+seed, 600)
		s := u.Router(synth.RouterSpec{Name: "fz-s", Size: 400, Divergence: 0.1})
		r := u.Router(synth.RouterSpec{Name: "fz-r", Size: 400, Divergence: 0.1})
		p := &pairFixture{sender: s, receiver: r}
		p.st, p.rt = s.Trie(), r.Trie()
		rng := rand.New(rand.NewSource(seed * 31))
		w := synth.NewWorkload(seed, s)
		for i := 0; i < 800; i++ {
			p.dests = append(p.dests, w.Next())
			p.clues = append(p.clues, rng.Intn(s.Family().Width()+5)-2)
		}
		for _, e := range []lookup.ClueEngine{lookup.NewRegular(p.rt), lookup.NewPatricia(p.rt)} {
			tab := newTable(t, p, core.Advance, e, true)
			snap := fastpath.Compile(tab)
			for i := range p.dests {
				checkPacket(t, e.Name(), tab.Process, snap.Process, p.dests[i], p.clues[i])
			}
		}
	}
}

// TestDifferentialLearning runs a learning table against an RCU whose
// callers report misses via Learn, the fastpath learning contract. The
// two must stay in lockstep packet for packet — including the LearnLimit
// cap and the hit-after-learn transitions.
func TestDifferentialLearning(t *testing.T) {
	p := v4Pair(t, 1200)
	p.perturb(11)
	for _, limit := range []int{0, 40} {
		ref := core.MustNewTable(core.Config{
			Method: core.Advance, Engine: lookup.NewRegular(p.rt),
			Local: p.rt, Sender: p.st.Contains,
			Learn: true, LearnLimit: limit,
		})
		live := core.MustNewTable(core.Config{
			Method: core.Advance, Engine: lookup.NewRegular(p.rt),
			Local: p.rt, Sender: p.st.Contains,
			Learn: true, LearnLimit: limit,
		})
		rcu := fastpath.NewRCU(live)
		for i := range p.dests {
			d, c := p.dests[i], p.clues[i]
			var cw, cg mem.Counter
			w := ref.Process(d, c, &cw)
			g := rcu.Process(d, c, &cg)
			if w != g || cw.Count() != cg.Count() {
				t.Fatalf("limit %d packet %d dest %v clue %d: core %+v (%d refs) rcu %+v (%d refs)",
					limit, i, d, c, w, cw.Count(), g, cg.Count())
			}
			if g.Outcome == core.OutcomeMiss {
				rcu.Learn(d, c) // what netsim/clued do on a miss
			}
		}
		if rcu.Len() != ref.Len() {
			t.Fatalf("limit %d: learned tables diverged: core %d entries, rcu %d", limit, ref.Len(), rcu.Len())
		}
	}
}

// TestDifferentialInvalidate flips validity marks through both write
// paths and checks the read sides agree before, during and after.
func TestDifferentialInvalidate(t *testing.T) {
	p := v4Pair(t, 600)
	ref := newTable(t, p, core.Advance, lookup.NewRegular(p.rt), false)
	live := newTable(t, p, core.Advance, lookup.NewRegular(p.rt), false)
	rcu := fastpath.NewRCU(live)
	sweep := func(stage string) {
		for i := range p.dests {
			checkPacket(t, stage, ref.Process, rcu.Process, p.dests[i], p.clues[i])
		}
	}
	sweep("pristine")
	st := p.st
	var victims []ip.Prefix
	for i := 0; i < len(p.dests) && len(victims) < 50; i += 7 {
		if bmp, _, ok := st.Lookup(p.dests[i], nil); ok {
			victims = append(victims, bmp)
		}
	}
	for _, v := range victims {
		if ref.Invalidate(v) != rcu.Invalidate(v) {
			t.Fatalf("Invalidate(%v) disagreed", v)
		}
	}
	sweep("invalidated")
	for i, v := range victims {
		if i%2 == 0 {
			continue // leave half invalid
		}
		if ref.Revalidate(v) != rcu.Revalidate(v) {
			t.Fatalf("Revalidate(%v) disagreed", v)
		}
	}
	sweep("revalidated")
}

// TestDifferentialMutate pushes a route change through both write paths:
// a trie insert plus UpdateLocal on the master, against a recompiled
// snapshot via RCU.Mutate.
func TestDifferentialMutate(t *testing.T) {
	p := v4Pair(t, 600)
	ref := newTable(t, p, core.Advance, lookup.NewRegular(p.rt), false)
	live := newTable(t, p, core.Advance, lookup.NewRegular(p.rt), false)
	rcu := fastpath.NewRCU(live)
	change := func(tab *core.Table) {
		for i := 0; i < 20; i++ {
			np := ip.PrefixFrom(p.dests[i*13%len(p.dests)], 26)
			p.rt.Insert(np, 4242+i)
			tab.UpdateLocal(np)
		}
	}
	// The two tables share the receiver trie, so mutate it once and tell
	// both tables; Mutate also recompiles the snapshot.
	done := false
	rcu.Mutate(func(tab *core.Table) {
		change(tab)
		done = true
	})
	if !done {
		t.Fatal("Mutate did not run")
	}
	change2 := func() { // ref must see the same entries recomputed
		for i := 0; i < 20; i++ {
			np := ip.PrefixFrom(p.dests[i*13%len(p.dests)], 26)
			ref.UpdateLocal(np)
		}
	}
	change2()
	for i := range p.dests {
		checkPacket(t, "post-mutate", ref.Process, rcu.Process, p.dests[i], p.clues[i])
	}
}

// TestNilCounter pins the mem.Counter contract: nil is valid and free on
// every fastpath entry point, like everywhere else in the repo.
func TestNilCounter(t *testing.T) {
	p := v4Pair(t, 50)
	tab := newTable(t, p, core.Advance, lookup.NewPatricia(p.rt), false)
	snap := fastpath.Compile(tab)
	for i := range p.dests {
		var c mem.Counter
		want := snap.Process(p.dests[i], p.clues[i], &c)
		if got := snap.Process(p.dests[i], p.clues[i], nil); got != want {
			t.Fatalf("nil counter changed the answer: %+v vs %+v", got, want)
		}
	}
	snap.ProcessNoClue(p.dests[0], nil)
}
