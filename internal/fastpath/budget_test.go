package fastpath_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fastpath"
	"repro/internal/ip"
	"repro/internal/lookup"
	"repro/internal/synth"
)

// TestSlotBudget is the footprint gate (ISSUE 13): a modern-shaped
// Advance+Verify table compiles to at most 25 slot bytes per entry for
// IPv4 (48 for IPv6, whose key alone is 16), at a fill inside the band
// the row constants promise — and stays there after a soak of route
// changes and learned clues that grows it by a tenth. Apply recomputes
// entries but never adds one (§3.4: clues are learned, not announced),
// so the soak's growth comes from RCU.Learn between its Apply batches.
// The whole-snapshot budget, 40 bytes per prefix, is held where it is
// claimed, on BenchmarkFastpathBatchCold's 1M-prefix table: at 100k the
// two tries alone are 25 bytes per entry (they amortize with scale:
// 14.6 at 1M), which no slot format can bring under 40.
func TestSlotBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 100k- and 50k-prefix tables")
	}
	if raceEnabled {
		t.Skip("size accounting only; the race suites cover the same writers on smaller tables")
	}
	for _, tc := range []struct {
		fam      ip.Family
		prefixes int
		maxSlot  float64
	}{
		{ip.IPv4, 100_000, 25},
		{ip.IPv6, 50_000, 48},
	} {
		u := synth.NewModernUniverse(7, tc.fam, tc.prefixes+tc.prefixes/8)
		sender, receiver := u.Router("budget-sender", tc.prefixes, 0.02), u.Router("budget-receiver", tc.prefixes, 0.02)
		st, rt := sender.Trie(), receiver.Trie()
		tab := core.MustNewTable(core.Config{
			Method: core.Advance, Engine: lookup.NewRegular(rt), Local: rt,
			Sender: st.Contains, Verify: true, SenderTrie: st, Learn: true,
		})
		clues := sender.Prefixes()
		compiled := len(clues) * 10 / 11
		tab.Preprocess(clues[:compiled])
		rcu := fastpath.NewRCULayout(tab, fastpath.LayoutCompressed)
		check := func(stage string, entries int) {
			t.Helper()
			m := rcu.Snapshot().MemStats()
			fill := float64(m.Entries) / float64(m.SlotCapacity)
			slot, total := float64(m.SlotBytes)/float64(m.Entries), float64(m.TotalBytes())/float64(m.Entries)
			t.Logf("%v %s: %d entries, fill %.3f, %.2f slot B/entry, %.2f B/entry", tc.fam, stage, m.Entries, fill, slot, total)
			if m.Entries != entries {
				t.Fatalf("%v %s: %d entries, want %d", tc.fam, stage, m.Entries, entries)
			}
			if slot > tc.maxSlot {
				t.Errorf("%v %s: %.2f slot B/entry, budget %v", tc.fam, stage, slot, tc.maxSlot)
			}
			if fill < fastpath.FillGrowTo || fill > fastpath.FillGrowAt {
				t.Errorf("%v %s: fill %.3f outside [%v, %v]", tc.fam, stage, fill, fastpath.FillGrowTo, fastpath.FillGrowAt)
			}
		}
		check("compiled", compiled)
		for i, c := range clues[compiled:] {
			if !rcu.Learn(c.Addr(), c.Len()) {
				t.Fatalf("Learn(%v) refused", c)
			}
			if i%64 == 0 { // a route flap under the learned clue
				more := ip.PrefixFrom(c.Last(), min(c.Len()+2, tc.fam.Width()))
				rcu.Apply([]fastpath.RouteOp{{Kind: fastpath.OpAnnounce, Prefix: more, Value: i}, {Kind: fastpath.OpSenderAnnounce, Prefix: more, Value: i}})
				rcu.Apply([]fastpath.RouteOp{{Kind: fastpath.OpWithdraw, Prefix: more}, {Kind: fastpath.OpSenderWithdraw, Prefix: more}})
			}
		}
		check("soaked", len(clues))
	}
}
