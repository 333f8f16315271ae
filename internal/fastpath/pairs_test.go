// The handle-pair side array: the entries that need both trie handles
// (Verify on a marked sender vertex with a restricted search behind it)
// through every writer grade, against core.Table packet for packet and
// reference for reference, and the array's growth under repeated
// patches of one entry.
package fastpath_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/fastpath"
	"repro/internal/ip"
	"repro/internal/lookup"
	"repro/internal/trie"
)

// pairClues returns the table's entries that a Verify snapshot keeps in
// the side array: non-final, and marked in the sender trie.
func pairClues(tab *core.Table, st *trie.Trie) []ip.Prefix {
	var out []ip.Prefix
	for _, e := range tab.Export() {
		if e.Resume != nil && st.Contains(e.Clue) {
			out = append(out, e.Clue)
		}
	}
	return out
}

func TestPairEntriesPatched(t *testing.T) {
	for _, fam := range []string{"IPv4", "IPv6"} {
		base := applyPair(t, fam)
		for _, lo := range []struct {
			name   string
			layout fastpath.Layout
		}{{"Flat", fastpath.LayoutFlat}, {"Compressed", fastpath.LayoutCompressed}} {
			t.Run(fam+"/"+lo.name, func(t *testing.T) {
				// Two disjoint copies of the routing state, half the
				// sender's prefixes preprocessed so the rest can be learned.
				mk := func() (*core.Table, *trie.Trie) {
					rt, st := base.rt.Clone(), base.st.Clone()
					tab := core.MustNewTable(core.Config{
						Method: core.Advance, Engine: lookup.NewRegular(rt), Local: rt,
						Sender: st.Contains, Verify: true, SenderTrie: st, Learn: true,
					})
					all := base.sender.Prefixes()
					tab.Preprocess(all[:len(all)/2])
					return tab, st
				}
				live, _ := mk()
				ref, refST := mk()
				rcu := fastpath.NewRCULayout(live, lo.layout)
				// sweep sends the first and last address under each clue,
				// with the clue, and once every clue is learned (a learning
				// core table learns from a missed packet on its own) the
				// fixture's workload too.
				learnedAll := false
				sweep := func(stage string, clues ...ip.Prefix) {
					t.Helper()
					for _, c := range clues {
						checkPacket(t, stage, ref.Process, rcu.Process, c.First(), c.Len())
						checkPacket(t, stage, ref.Process, rcu.Process, c.Last(), c.Len())
					}
					for i := 0; learnedAll && i < len(base.dests); i++ {
						checkPacket(t, stage, ref.Process, rcu.Process, base.dests[i], base.clues[i])
					}
				}
				paired := func(stage string) []ip.Prefix {
					t.Helper()
					clues := pairClues(ref, refST)
					if n, _ := rcu.Snapshot().PairStats(); n != len(clues) || n == 0 {
						t.Fatalf("%s: snapshot keeps %d entries in the side array, the table has %d", stage, n, len(clues))
					}
					return clues
				}
				clues := paired("compiled")
				sweep("compiled", clues...)

				// Validity flips of one paired entry reuse its record.
				_, records := rcu.Snapshot().PairStats()
				for i := 0; i < 40; i++ {
					c := clues[i%3]
					if rcu.Invalidate(c) != ref.Invalidate(c) {
						t.Fatalf("Invalidate(%v) disagreed", c)
					}
					sweep("invalidated", c)
					if rcu.Revalidate(c) != ref.Revalidate(c) {
						t.Fatalf("Revalidate(%v) disagreed", c)
					}
				}
				sweep("revalidated", clues...)
				if _, got := rcu.Snapshot().PairStats(); got != records {
					t.Fatalf("80 validity flips grew the side array %d → %d records", records, got)
				}

				// Learning the other half adds paired entries.
				all := base.sender.Prefixes()
				for _, c := range all[len(all)/2:] {
					if rcu.Learn(c.Addr(), c.Len()) != ref.Learn(c) {
						t.Fatalf("Learn(%v) disagreed", c)
					}
				}
				learnedAll = true
				learned := paired("learned")
				if len(learned) <= len(clues) {
					t.Fatalf("learning added no paired entry (%d → %d)", len(clues), len(learned))
				}
				sweep("learned", learned...)

				// Route changes under paired clues move their handles; the
				// same batch again changes nothing and must add no record.
				var ops []fastpath.RouteOp
				for i, c := range learned[:min(8, len(learned))] {
					more := ip.PrefixFrom(c.Last(), min(c.Len()+3, c.Family().Width()))
					ops = append(ops,
						fastpath.RouteOp{Kind: fastpath.OpAnnounce, Prefix: more, Value: 7000 + i},
						fastpath.RouteOp{Kind: fastpath.OpSenderAnnounce, Prefix: more, Value: 7100 + i})
				}
				for round := 0; round < 25; round++ {
					rcu.Apply(ops)
					if round == 0 {
						for _, op := range ops {
							refApplyOp(ref, nil, op)
						}
						_, records = rcu.Snapshot().PairStats()
					}
				}
				after := paired("applied")
				sweep("applied", after...)
				if _, got := rcu.Snapshot().PairStats(); got != records {
					t.Fatalf("24 repeats of one batch grew the side array %d → %d records", records, got)
				}
				for i := range ops {
					ops[i].Kind += fastpath.OpWithdraw - fastpath.OpAnnounce // announce → withdraw, both op spaces
					refApplyOp(ref, nil, ops[i])
				}
				rcu.Apply(ops)
				sweep("withdrawn", paired("withdrawn")...)
				if n, total := rcu.Snapshot().PairStats(); total > 2*n+64 {
					t.Fatalf("side array holds %d records for %d entries", total, n)
				}
				full := fastpath.CompileLayout(ref, lo.layout)
				for i := range base.dests {
					checkPacket(t, fmt.Sprint("recompiled ", i), full.Process, rcu.Process, base.dests[i], base.clues[i])
				}
			})
		}
	}
}
