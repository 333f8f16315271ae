// ProcessBatch against the per-packet loop. The staged walk reorders the
// memory reads of a batch; nothing else may change: results in order,
// the counter total, and every telemetry record.
package fastpath_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fastpath"
	"repro/internal/ip"
	"repro/internal/lookup"
	"repro/internal/mem"
	"repro/internal/telemetry"
)

// adversarial appends the packets a staged batch can get wrong and a
// clean workload does not contain: forged clues (a marked sender prefix
// shorter than the true one, which Verify refutes), a clue length whose
// row is empty, and destinations repeated within a batch. It returns
// the clues the table should hold invalid.
func (p *pairFixture) adversarial(t *testing.T) []ip.Prefix {
	t.Helper()
	width := p.sender.Family().Width()
	n := len(p.dests)
	forged := 0
	for i := 0; i < n && forged < 40; i++ {
		d, c := p.dests[i], p.clues[i]
		for l := c - 1; l > 0; l-- {
			if p.st.Contains(ip.PrefixFrom(d, l)) {
				p.dests, p.clues = append(p.dests, d), append(p.clues, l)
				forged++
				break
			}
		}
	}
	if forged == 0 {
		t.Fatal("no destination has a shorter marked sender prefix to forge a clue from")
	}
	held := make([]bool, width+1)
	for _, q := range p.sender.Prefixes() {
		held[q.Len()] = true
	}
	empty := -1
	for l := 1; l <= width; l++ {
		if !held[l] {
			empty = l
			break
		}
	}
	if empty < 0 {
		t.Fatal("every clue length has a row; cannot probe an empty one")
	}
	for i := 0; i < 8; i++ {
		p.dests, p.clues = append(p.dests, p.dests[i]), append(p.clues, empty)
	}
	for i := 0; i < 24; i++ { // the same destination twice in a row, and again later
		p.dests = append(p.dests, p.dests[i], p.dests[i], p.dests[(i*7)%n])
		p.clues = append(p.clues, p.clues[i], p.clues[i], p.clues[(i*7)%n])
	}
	var invalid []ip.Prefix
	for i := 5; i < n && len(invalid) < 25; i += 11 {
		if p.clues[i] > 0 && p.clues[i] <= width {
			if q := ip.PrefixFrom(p.dests[i], p.clues[i]); p.st.Contains(q) {
				invalid = append(invalid, q)
			}
		}
	}
	return invalid
}

// packetSeries filters a registry's exposition down to the two families
// Record writes: packets by outcome and the refs-per-packet histogram
// (buckets, sum, count).
func packetSeries(t *testing.T, reg *telemetry.Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var keep []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "clue_packets_total") || strings.HasPrefix(line, "clue_refs_per_packet") {
			keep = append(keep, line)
		}
	}
	if len(keep) == 0 {
		t.Fatal("exposition holds no packet series")
	}
	return strings.Join(keep, "\n")
}

// TestBatchMatchesProcess pins ProcessBatch to the per-packet loop over
// layout × verify × method × family × engine, in batches that straddle
// the lane width and the 64-packet drain, on inputs that take every way
// out of the lockstep.
func TestBatchMatchesProcess(t *testing.T) {
	lanes := fastpath.BatchLanes
	sizes := []int{0, 1, lanes - 1, lanes, lanes + 1, 64, 65, 200}
	type mode struct {
		name   string
		method core.Method
		verify bool
	}
	modes := []mode{{"Simple", core.Simple, false}, {"Advance", core.Advance, false}, {"Advance/verify", core.Advance, true}}
	for _, fam := range []struct {
		name string
		pair *pairFixture
	}{
		{"IPv4", v4Pair(t, 400)},
		{"IPv6", v6Pair(t, 300)},
	} {
		p := fam.pair
		p.perturb(3)
		invalid := p.adversarial(t)
		for _, e := range []lookup.ClueEngine{lookup.NewRegular(p.rt), lookup.NewPatricia(p.rt)} {
			for _, m := range modes {
				for _, lo := range []struct {
					name   string
					layout fastpath.Layout
				}{{"flat", fastpath.LayoutFlat}, {"compressed", fastpath.LayoutCompressed}} {
					t.Run(fam.name+"/"+e.Name()+"/"+m.name+"/"+lo.name, func(t *testing.T) {
						tab := newTable(t, p, m.method, e, m.verify)
						for _, q := range invalid {
							if !tab.Invalidate(q) {
								t.Fatalf("Invalidate(%v): no such entry", q)
							}
						}
						batchReg, loopReg := telemetry.NewRegistry(), telemetry.NewRegistry()
						batchTel := telemetry.NewPacketMetrics(batchReg, "clue", core.OutcomeLabels())
						loopTel := telemetry.NewPacketMetrics(loopReg, "clue", core.OutcomeLabels())
						tab.SetTelemetry(batchTel)
						bs := fastpath.CompileLayout(tab, lo.layout)
						tab.SetTelemetry(loopTel)
						ls := fastpath.CompileLayout(tab, lo.layout)
						requirePairs(t, bs, m.verify)

						want := make([]core.Result, len(p.dests))
						out := make([]core.Result, len(p.dests))
						var seen [core.NumOutcomes]int
						boundary := 0
						for _, size := range sizes {
							batchTel.Reset()
							loopTel.Reset()
							sum := 0
							for i := range p.dests {
								var c mem.Counter
								want[i] = ls.Process(p.dests[i], p.clues[i], &c)
								sum += c.Count()
								if size == 1 {
									seen[want[i].Outcome]++
									if ls.BoundaryStart(p.dests[i], p.clues[i]) {
										boundary++
									}
								}
							}
							var cnt mem.Counter
							if size == 0 {
								if n := bs.ProcessBatch(nil, nil, out, &cnt); n != 0 || cnt.Count() != 0 {
									t.Fatalf("empty batch: processed %d, charged %d", n, cnt.Count())
								}
								continue
							}
							for base := 0; base < len(p.dests); base += size {
								end := min(base+size, len(p.dests))
								if n := bs.ProcessBatch(p.dests[base:end], p.clues[base:end], out[base:end], &cnt); n != end-base {
									t.Fatalf("size %d: processed %d of %d", size, n, end-base)
								}
							}
							for i := range want {
								if out[i] != want[i] {
									t.Fatalf("size %d packet %d (dest %v clue %d): batch %+v, single %+v",
										size, i, p.dests[i], p.clues[i], out[i], want[i])
								}
							}
							if cnt.Count() != sum {
								t.Fatalf("size %d: batch charged %d refs, per-packet sum %d", size, cnt.Count(), sum)
							}
							if got, want := packetSeries(t, batchReg), packetSeries(t, loopReg); got != want {
								t.Fatalf("size %d: telemetry diverged\nbatch:\n%s\nloop:\n%s", size, got, want)
							}
						}

						// A nil counter is valid and changes no answer.
						clear(out)
						if n := bs.ProcessBatch(p.dests, p.clues, out, nil); n != len(p.dests) {
							t.Fatalf("nil counter: processed %d of %d", n, len(p.dests))
						}
						for i := range want {
							if out[i] != want[i] {
								t.Fatalf("nil counter, packet %d: batch %+v, single %+v", i, out[i], want[i])
							}
						}
						// The short-slice truncation contract.
						if got := bs.ProcessBatch(p.dests, p.clues[:7], out, nil); got != 7 {
							t.Fatalf("short clueLens: processed %d, want 7", got)
						}
						if got := bs.ProcessBatch(p.dests, p.clues, out[:3], nil); got != 3 {
							t.Fatalf("short out: processed %d, want 3", got)
						}

						// The inputs must have taken every exit they were built for.
						need := []core.Outcome{core.OutcomeBadClue, core.OutcomeMiss, core.OutcomeInvalid, core.OutcomeFD}
						if m.verify {
							need = append(need, core.OutcomeSuspect)
						}
						for _, o := range need {
							if seen[o] == 0 {
								t.Errorf("workload never produced outcome %v", o)
							}
						}
						if seen[core.OutcomeResumeHit]+seen[core.OutcomeResumeFD] == 0 {
							t.Error("workload never ran a restricted search")
						}
						if bs.Compressed() && m.verify && boundary == 0 {
							t.Error("workload never started a walk on a boundary vertex")
						}
					})
				}
			}
		}
	}
}

// FuzzBatchMatchesProcess feeds arbitrary batches — length, clue lengths
// and destination bytes all from the fuzzer — to a small compressed
// Verify snapshot and a flat one, and holds ProcessBatch to the
// per-packet loop. A packet is six bytes: a selector, a clue byte and
// four destination bytes; an odd selector aims the packet at one of the
// fixture's real destinations with a clue near its true one, so the
// corpus reaches hits, forged clues and walks, not just misses.
func FuzzBatchMatchesProcess(f *testing.F) {
	p := v4Pair(f, 256)
	width := p.sender.Family().Width()
	verified := newTable(f, p, core.Advance, lookup.NewRegular(p.rt), true)
	verified.Invalidate(ip.PrefixFrom(p.dests[0], p.clues[0]))
	snaps := []*fastpath.Snapshot{
		fastpath.CompileLayout(verified, fastpath.LayoutCompressed),
		fastpath.CompileLayout(newTable(f, p, core.Advance, lookup.NewRegular(p.rt), false), fastpath.LayoutFlat),
	}
	requirePairs(f, snaps[0], true)

	// Seeds: the shapes of the matrix test — a bad clue on either side,
	// the invalidated entry, a forged (shortened) clue, a repeated
	// destination — at batch lengths around the lane width.
	packet := func(sel, clue byte, d ip.Addr) []byte {
		v := d.Uint32()
		return []byte{sel, clue, byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}
	}
	for _, n := range []int{1, fastpath.BatchLanes - 1, fastpath.BatchLanes + 1, 65} {
		var seed []byte
		for i := 0; i < n; i++ {
			switch i % 5 {
			case 0:
				seed = append(seed, packet(1, 1, ip.AddrFrom32(uint32(i)))...) // true clue of dests[i]
			case 1:
				seed = append(seed, packet(1, 0, ip.AddrFrom32(uint32(i)))...) // one bit short: forged or miss
			case 2:
				seed = append(seed, packet(0, 0, p.dests[i%len(p.dests)])...) // clue length -1
			case 3:
				seed = append(seed, packet(0, byte(width+2), p.dests[i%len(p.dests)])...) // width+1
			case 4:
				seed = append(seed, packet(1, 1, ip.AddrFrom32(0))...) // dests[0] again: the invalid entry
			}
		}
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		n := min(len(data)/6, 200)
		dests := make([]ip.Addr, n)
		clues := make([]int, n)
		for i := range dests {
			b := data[6*i : 6*i+6]
			raw := uint32(b[2])<<24 | uint32(b[3])<<16 | uint32(b[4])<<8 | uint32(b[5])
			if b[0]&1 != 0 {
				j := int(raw % uint32(len(p.dests)))
				dests[i], clues[i] = p.dests[j], p.clues[j]-1+int(b[1]%3)
			} else {
				dests[i], clues[i] = ip.AddrFrom32(raw), int(b[1])%(width+3)-1
			}
		}
		out := make([]core.Result, n)
		for si, snap := range snaps {
			var cnt mem.Counter
			if got := snap.ProcessBatch(dests, clues, out, &cnt); got != n {
				t.Fatalf("snapshot %d: processed %d of %d", si, got, n)
			}
			sum := 0
			for i := range dests {
				var c mem.Counter
				want := snap.Process(dests[i], clues[i], &c)
				sum += c.Count()
				if out[i] != want {
					t.Fatalf("snapshot %d packet %d (dest %v clue %d): batch %+v, single %+v",
						si, i, dests[i], clues[i], out[i], want)
				}
			}
			if cnt.Count() != sum {
				t.Fatalf("snapshot %d: batch charged %d refs, per-packet sum %d", si, cnt.Count(), sum)
			}
		}
	})
}
