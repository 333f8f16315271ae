// Snapshot-swap stress: wait-free readers hammering Process/ProcessBatch
// while a writer learns, invalidates, revalidates, applies route batches
// and recompiles — on both trie layouts, so the compressed subtree
// patches (ISSUE 10) publish under the same race as the flat row edits,
// and on a compressed Verify table, where a batch is a staged walk that
// holds slot and node pointers across passes and so must stay inside the
// one snapshot it loaded. Run under -race in CI; without the detector it
// still checks that every batch equals the per-packet loop on the same
// snapshot, and the structural invariant that every published snapshot
// is internally consistent (a matching prefix always contains the
// destination, outcomes stay in range).
package fastpath_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/fastpath"
	"repro/internal/ip"
	"repro/internal/lookup"
)

func TestSnapshotSwapStress(t *testing.T) {
	for _, lo := range []struct {
		name       string
		layout     fastpath.Layout
		compressed bool
		verify     bool
	}{
		{"Flat", fastpath.LayoutFlat, false, false},
		{"Compressed", fastpath.LayoutCompressed, true, false},
		{"CompressedVerify", fastpath.LayoutCompressed, true, true},
	} {
		t.Run(lo.name, func(t *testing.T) {
			runSnapshotSwapStress(t, lo.layout, lo.compressed, lo.verify)
		})
	}
}

func runSnapshotSwapStress(t *testing.T, layout fastpath.Layout, compressed, verify bool) {
	p := v4Pair(t, 2048)
	p.perturb(13)
	cfg := core.Config{
		Method: core.Advance, Engine: lookup.NewRegular(p.rt),
		Local: p.rt, Sender: p.st.Contains, Learn: true,
	}
	if verify {
		cfg.Verify, cfg.SenderTrie = true, p.st
	}
	live := core.MustNewTable(cfg)
	live.Preprocess(p.sender.Prefixes()[:p.sender.Len()/2]) // leave room to learn
	rcu := fastpath.NewRCULayout(live, layout)
	if rcu.Snapshot().Compressed() != compressed {
		t.Fatalf("layout %v published compressed=%v", layout, rcu.Snapshot().Compressed())
	}

	var stop atomic.Bool
	var processed atomic.Int64
	var wg sync.WaitGroup

	check := func(d ip.Addr, res core.Result) {
		if res.OK && !res.Prefix.Contains(d) {
			t.Errorf("snapshot returned prefix %v not containing %v (outcome %v)", res.Prefix, d, res.Outcome)
			stop.Store(true)
		}
	}

	const readers = 4
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			out := make([]core.Result, 64)
			for i := r; !stop.Load(); i++ {
				if i%3 == 0 {
					base := (i * 64) % (len(p.dests) - 64)
					snap := rcu.Snapshot()
					n := snap.ProcessBatch(p.dests[base:base+64], p.clues[base:base+64], out, nil)
					for j := 0; j < n; j++ {
						d, c := p.dests[base+j], p.clues[base+j]
						check(d, out[j])
						if want := snap.Process(d, c, nil); out[j] != want {
							t.Errorf("dest %v clue %d: batch %+v, Process on the same snapshot %+v", d, c, out[j], want)
							stop.Store(true)
						}
					}
					processed.Add(int64(n))
				} else {
					d, c := p.dests[i%len(p.dests)], p.clues[i%len(p.clues)]
					res := rcu.Process(d, c, nil)
					check(d, res)
					if res.Outcome == core.OutcomeMiss {
						rcu.Learn(d, c) // reader-driven learning races the writer
					}
					processed.Add(1)
				}
			}
		}(r)
	}

	// Writer: invalidate/revalidate churn, Apply batches (in-place trie
	// patches on both layouts) and periodic full recompiles through
	// Mutate, like a routing-update storm.
	wg.Add(1)
	go func() {
		defer wg.Done()
		clues := p.sender.Prefixes()
		for i := 0; i < 400 && !stop.Load(); i++ {
			c := clues[i%len(clues)]
			switch i % 7 {
			case 0, 1:
				rcu.Invalidate(c)
			case 2, 3:
				rcu.Revalidate(c)
			case 4:
				rcu.Apply([]fastpath.RouteOp{
					{Kind: fastpath.OpAnnounce, Prefix: ip.PrefixFrom(p.dests[i%len(p.dests)], 26), Value: 9000 + i},
				})
			case 5:
				ops := []fastpath.RouteOp{
					{Kind: fastpath.OpWithdraw, Prefix: ip.PrefixFrom(p.dests[(i*31)%len(p.dests)], 26)},
				}
				if verify {
					// Sender-side churn patches the trie the Verify walks
					// run on: a longer sender prefix appears under a
					// destination's clue (refuting it), then goes away.
					kind := fastpath.OpSenderAnnounce
					if i%14 == 12 {
						kind = fastpath.OpSenderWithdraw
					}
					ops = append(ops, fastpath.RouteOp{Kind: kind, Prefix: ip.PrefixFrom(p.dests[(i/14*17)%len(p.dests)], 27), Value: 7000 + i})
				}
				rcu.Apply(ops)
			default:
				rcu.Mutate(func(tab *core.Table) {
					tab.UpdateLocal(c)
				})
			}
		}
		stop.Store(true)
	}()

	wg.Wait()
	if processed.Load() == 0 {
		t.Fatal("readers made no progress")
	}
	if rcu.Snapshot().Compressed() != compressed {
		t.Fatalf("stress changed the snapshot layout (compressed=%v)", rcu.Snapshot().Compressed())
	}
}
