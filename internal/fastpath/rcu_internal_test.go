package fastpath

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fib"
	"repro/internal/ip"
	"repro/internal/lookup"
	"repro/internal/mem"
	"repro/internal/synth"
	"repro/internal/telemetry"
)

// smallPair builds a compact sender/receiver pair with a warm Advance
// table on the Regular engine (flat snapshots, the incremental path).
func smallPair(tb testing.TB, learn bool) (*core.Table, *fib.Table) {
	tb.Helper()
	u := synth.NewUniverse(7, 300)
	s := u.Router(synth.RouterSpec{Name: "wb-s", Size: 200, Divergence: 0.1})
	r := u.Router(synth.RouterSpec{Name: "wb-r", Size: 200, Divergence: 0.1})
	rt := r.Trie()
	tab := core.MustNewTable(core.Config{
		Method: core.Advance, Engine: lookup.NewRegular(rt),
		Local: rt, Sender: s.Trie().Contains,
		Learn: learn,
	})
	tab.Preprocess(s.Prefixes())
	return tab, s
}

func testMetrics(reg *telemetry.Registry) Metrics {
	return Metrics{
		Swaps:       reg.NewCounter("swaps", ""),
		Patches:     reg.NewCounter("patches", ""),
		Recompiles:  reg.NewCounter("recompiles", ""),
		Learns:      reg.NewCounter("learns", ""),
		Applies:     reg.NewCounter("applies", ""),
		AppliedOps:  reg.NewCounter("applied_ops", ""),
		Coalesced:   reg.NewCounter("coalesced", ""),
		Overflows:   reg.NewCounter("overflows", ""),
		Fallbacks:   reg.NewCounter("fallbacks", ""),
		Compactions: reg.NewCounter("compactions", ""),
		Defensive:   reg.NewCounter("defensive", ""),
	}
}

// TestRebuildDoesNotConvoyPatches is the writer-lock-convoy regression
// test: a Learn issued while a full rebuild is compiling must publish
// immediately as an incremental patch — if the compile still ran under
// the patch lock, this test would deadlock (the rebuild is blocked on a
// channel only released after the Learn returns). The learned entry must
// also survive the rebuild's publication via the dirty-replay.
func TestRebuildDoesNotConvoyPatches(t *testing.T) {
	tab, sender := smallPair(t, true)
	// Find a destination whose length-13 clue is not yet in the table, so
	// Learn below is guaranteed to add an entry.
	const clueLen = 13
	w := synth.NewWorkload(5, sender)
	var dest ip.Addr
	found := false
	for i := 0; i < 5000 && !found; i++ {
		d := w.Next()
		if tab.Entry(ip.DecodeClue(d, clueLen)) == nil {
			dest, found = d, true
		}
	}
	if !found {
		t.Fatal("no learnable destination in the workload")
	}
	r := NewRCU(tab)
	met := testMetrics(telemetry.NewRegistry())
	r.SetMetrics(met)
	entered := make(chan struct{})
	release := make(chan struct{})
	r.compileHook = func() {
		close(entered)
		<-release
	}
	rebuilt := make(chan struct{})
	go func() {
		defer close(rebuilt)
		r.Mutate(func(tb *core.Table) {}) // any full recompile
	}()
	<-entered // the rebuild is now inside its off-lock compile
	before := r.Len()
	if !r.Learn(dest, clueLen) {
		t.Fatal("Learn failed")
	}
	if got := r.Len(); got != before+1 {
		t.Fatalf("patched snapshot has %d entries during rebuild, want %d", got, before+1)
	}
	if met.Patches.Value() != 1 {
		t.Fatalf("Patches = %d during rebuild, want 1", met.Patches.Value())
	}
	select {
	case <-rebuilt:
		t.Fatal("rebuild finished before it was released")
	default:
	}
	close(release)
	<-rebuilt
	if got := r.Len(); got != before+1 {
		t.Fatalf("rebuild lost the concurrent Learn: %d entries, want %d", got, before+1)
	}
	if _, ok := tab.ExportEntry(ip.DecodeClue(dest, clueLen)); !ok {
		t.Fatal("master table lost the learned entry")
	}
	if met.Recompiles.Value() != 1 {
		t.Fatalf("Recompiles = %d, want 1", met.Recompiles.Value())
	}
}

// TestDefensiveRebuild triggers patchEntry's entry-vanished fallback —
// unreachable through the public surface, forced here by patching a clue
// the table never held — and checks it is counted on its own channel and
// publishes a sound full recompile.
func TestDefensiveRebuild(t *testing.T) {
	tab, _ := smallPair(t, false)
	missing := ip.MustParsePrefix("203.0.113.64/29")
	if tab.Entry(missing) != nil {
		t.Fatal("fixture unexpectedly contains the probe clue")
	}
	r := NewRCU(tab)
	met := testMetrics(telemetry.NewRegistry())
	r.SetMetrics(met)
	r.mu.Lock()
	r.patchEntry(missing)
	r.mu.Unlock()
	if met.Defensive.Value() != 1 {
		t.Fatalf("Defensive = %d, want 1", met.Defensive.Value())
	}
	if met.Recompiles.Value() != 1 {
		t.Fatalf("Recompiles = %d, want 1", met.Recompiles.Value())
	}
	if met.Patches.Value() != 0 {
		t.Fatalf("Patches = %d, want 0", met.Patches.Value())
	}
	if r.Len() != tab.Len() {
		t.Fatalf("defensive snapshot has %d entries, master %d", r.Len(), tab.Len())
	}
}

// TestApplyQueueOverflow pins the queue's explicit overflow policy: a
// burst beyond the cap is coalesced in place, and when distinct keys
// still exceed the cap the drain degrades to one full recompile —
// counted, never dropped, never left stale.
func TestApplyQueueOverflow(t *testing.T) {
	tab, _ := smallPair(t, false)
	r := NewRCU(tab)
	met := testMetrics(telemetry.NewRegistry())
	r.SetMetrics(met)
	r.StartApplier(16)
	base := ip.MustParseAddr("198.18.0.0")
	var ops []RouteOp
	for i := 0; i < 40; i++ {
		p := ip.PrefixFrom(ip.AddrFrom32(base.Uint32()+uint32(i)<<8), 24)
		ops = append(ops, RouteOp{Kind: OpAnnounce, Prefix: p, Value: 9000 + i})
	}
	r.Enqueue(ops...) // one burst: 40 distinct keys against a cap of 16
	r.StopApplier()   // drains and joins
	if met.Overflows.Value() == 0 {
		t.Fatal("overflow burst not counted")
	}
	if met.Recompiles.Value() == 0 {
		t.Fatal("overflow did not degrade to a recompile")
	}
	// Nothing was dropped: every announced prefix is in the master trie
	// and resolvable through the published snapshot.
	cfg := tab.Config()
	for _, op := range ops {
		if v, ok := cfg.Local.Get(op.Prefix); !ok || v != op.Value {
			t.Fatalf("announce %v lost by the overflow path (got %d, %v)", op.Prefix, v, ok)
		}
		var c mem.Counter
		res := r.Process(op.Prefix.Addr(), op.Prefix.Len(), &c)
		want := tab.Process(op.Prefix.Addr(), op.Prefix.Len(), nil)
		if res != want {
			t.Fatalf("snapshot diverged from master after overflow at %v", op.Prefix)
		}
	}
	if r.QueueDepth() != 0 {
		t.Fatalf("queue not drained: depth %d", r.QueueDepth())
	}
}

// TestEnqueueWithoutApplier pins the degenerate mode: with no applier
// running, Enqueue is a synchronous Apply.
func TestEnqueueWithoutApplier(t *testing.T) {
	tab, _ := smallPair(t, false)
	r := NewRCU(tab)
	met := testMetrics(telemetry.NewRegistry())
	r.SetMetrics(met)
	p := ip.MustParsePrefix("198.51.100.0/26")
	r.Enqueue(RouteOp{Kind: OpAnnounce, Prefix: p, Value: 77})
	if v, ok := tab.Config().Local.Get(p); !ok || v != 77 {
		t.Fatal("synchronous Enqueue did not apply")
	}
	if met.Applies.Value()+met.Recompiles.Value() == 0 {
		t.Fatal("synchronous Enqueue published nothing")
	}
}

// TestApplyCompaction flaps one deep prefix until relocation/prune
// garbage crosses the dead-slot threshold, and checks the writer folds
// it away with a counted compacting recompile — bounded garbage, not
// bounded-only-by-restart.
func TestApplyCompaction(t *testing.T) {
	tab, _ := smallPair(t, false)
	r := NewRCU(tab)
	met := testMetrics(telemetry.NewRegistry())
	r.SetMetrics(met)
	p := ip.MustParsePrefix("198.18.77.192/26")
	flapped := 0
	for i := 0; i < 3000 && met.Compactions.Value() == 0; i++ {
		r.Apply([]RouteOp{{Kind: OpAnnounce, Prefix: p, Value: 1000 + i}})
		r.Apply([]RouteOp{{Kind: OpWithdraw, Prefix: p}})
		flapped++
	}
	if met.Compactions.Value() == 0 {
		t.Fatalf("no compaction after %d flap cycles", flapped)
	}
	s := r.Snapshot()
	if 2*s.local.dead > s.local.n-s.local.dead {
		t.Fatalf("compaction left dead=%d of n=%d", s.local.dead, s.local.n)
	}
	if met.Applies.Value() == 0 {
		t.Fatal("flaps never took the incremental path")
	}
}

// TestPairGarbageCompacts pins the side array to the compaction policy:
// handle pairs abandoned by relocations count as garbage, show in
// MemStats, and past a quarter of the table make the next Apply fold
// them away with a counted compacting recompile.
func TestPairGarbageCompacts(t *testing.T) {
	tab, _ := smallPair(t, false)
	r := NewRCU(tab)
	met := testMetrics(telemetry.NewRegistry())
	r.SetMetrics(met)
	op := []RouteOp{{Kind: OpAnnounce, Prefix: ip.MustParsePrefix("198.18.77.192/26"), Value: 9}}
	r.Apply(op)
	if met.Compactions.Value() != 0 {
		t.Fatal("a clean table compacted")
	}
	// Stand in for a long run of relocations: a published snapshot whose
	// side array is mostly abandoned records.
	s := *r.Snapshot()
	clean := s.MemStats().SlotBytes
	s.pairs = append(s.pairs[:len(s.pairs):len(s.pairs)], make([]auxPair, s.entries)...)
	s.pairsDead = s.entries
	if got := s.MemStats().SlotBytes; got != clean+8*s.entries {
		t.Fatalf("MemStats counts %d slot bytes with %d abandoned pairs, %d without", got, s.entries, clean)
	}
	r.snap.Store(&s)
	op[0].Value = 10
	r.Apply(op)
	if met.Compactions.Value() != 1 {
		t.Fatalf("%d compactions with %d of %d pairs abandoned, want 1", met.Compactions.Value(), s.pairsDead, len(s.pairs))
	}
	if got := r.Snapshot(); got.pairsDead != 0 || len(got.pairs) >= s.entries {
		t.Fatalf("compaction left %d abandoned of %d pairs", got.pairsDead, len(got.pairs))
	}
}
