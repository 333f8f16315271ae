package fastpath

import (
	"repro/internal/core"
	"repro/internal/ip"
	"repro/internal/mem"
)

// batchLanes is how many packets ProcessBatch keeps in flight at once.
// A packet's lookup is a chain of dependent reads — slot, sender-trie
// node, child node, value cell — and at a million prefixes each one
// misses the cache; the staged walk below issues one link of the chain
// for every lane before it consumes any of them, so a lane's miss
// overlaps the other lanes' instead of following them. Measured on the
// benchmark's 1M-prefix table, 32 and 64 lanes forward 3–4 % more than
// 16 and do not differ from each other, so the smaller stack wins
// (EXPERIMENTS.md, "Overlapped lookups"). It is a constant, not an
// option: no caller knows better.
const batchLanes = 32

// walkLanes tracks which lanes are searching in one 64-bit word.
const _ = uint(64 - batchLanes)

// lane is one packet's place in the lockstep.
type lane struct {
	sl  *slot  // stage 0: first cell of the key's home bucket; after stage 1: the packet's slot
	key uint32 // the line's first word, as the stage-1 fetch read it: stored so the load is issued there, not read again
	b   uint32 // the home bucket's index in its row
	pkt uint8  // the packet's position in the group
}

// ProcessBatch routes up to len(out) packets into the caller-owned out
// buffer and returns the number processed (the shortest of the three
// slices). Results, per-packet telemetry records and the total charged
// to cnt are exactly what a loop over Process would produce; only the
// order of the memory reads differs. Aggregate references land on cnt;
// per-packet accounting callers use Process.
//
//cluevet:hotpath
func (s *Snapshot) ProcessBatch(dests []ip.Addr, clueLens []int, out []core.Result, cnt *mem.Counter) int {
	n := min(len(dests), len(clueLens), len(out))
	var lanes [batchLanes]lane // one group's state, reused by the next: each group rewrites what it reads
	for base := 0; base < n; base += batchLanes {
		end := min(base+batchLanes, n)
		s.processLanes(&lanes, dests[base:end], clueLens[base:end], out[base:end], cnt)
	}
	s.tel.ObserveBatch(uint64(n))
	return n
}

// processLanes routes at most batchLanes packets in stages. Stage 0
// computes the address of every lane's home bucket (range check, mask,
// one hash, one multiply onto the row, page-table load); stage 1 reads
// the first word of each of those cache lines — independent loads, so
// their misses overlap — then finds each packet's slot, scanning the
// rest of the line (and for the few that overflowed, the next) in
// place, and finishes every packet the slot alone decides, Claim-1 hits
// among them, exactly as Process does. Rare outcomes (bad
// clue length, empty row, miss, invalid or unmarked clue) finish on the
// spot through the scalar code; only packets with a compressed-trie walk
// ahead of them (staged) go on to walkLanes.
//
//cluevet:hotpath
func (s *Snapshot) processLanes(lanes *[batchLanes]lane, dests []ip.Addr, clueLens []int, out []core.Result, cnt *mem.Counter) {
	clueLens, out = clueLens[:len(dests)], out[:len(dests)]
	n := 0
	for k, d := range dests {
		cl := clueLens[k]
		if cl < 0 || cl > s.width {
			out[k] = s.fullLookup(d, cnt, core.OutcomeBadClue, cnt.Count())
			continue
		}
		lt := &s.lens[cl]
		if lt.nb == 0 {
			before := cnt.Count()
			cnt.Add(1) // the clue-table reference
			out[k] = s.fullLookup(d, cnt, core.OutcomeMiss, before)
			continue
		}
		l := &lanes[n]
		n++
		l.pkt = uint8(k)
		l.b = lt.home(clueKey(d, cl))
		l.sl = &lt.bucket(l.b).s[0]
	}
	for j := range lanes[:n] {
		l := &lanes[j]
		l.key = l.sl.key
	}
	m := 0
	for j := range lanes[:n] {
		l := &lanes[j]
		k := l.pkt
		d, cl := dests[k], clueLens[k]
		kh, kl := clueKey(d, cl)
		sl := s.lens[cl].find(l.b, kh, kl)
		if s.staged(sl) {
			lanes[m].sl, lanes[m].pkt = sl, k
			m++
			continue
		}
		before := cnt.Count()
		cnt.Add(1) // the clue-table reference
		switch {
		case sl.flags&slotUsed == 0:
			out[k] = s.fullLookup(d, cnt, core.OutcomeMiss, before)
		case s.claim1(sl):
			s.record(core.OutcomeFD, cnt, before)
			if sl.fdLen == noFD { // built in place, like Process
				out[k] = core.Result{Outcome: core.OutcomeFD}
			} else {
				out[k] = core.Result{Prefix: ip.PrefixFrom(d, int(sl.fdLen)), Value: int(sl.value), OK: true, Outcome: core.OutcomeFD}
			}
		default:
			out[k] = s.apply(sl, d, cl, cnt, before)
		}
	}
	if m > 0 {
		s.walkLanes(lanes[:m], dests, clueLens, out, cnt)
	}
}

// staged reports whether the packet that found sl continues in the
// lockstep: the tries are compressed, the entry is valid, and a walk
// lies ahead — Verify's walk down the sender trie from a marked clue
// vertex, or without Verify the restricted search of a non-final entry.
// It is a property of the table and the entry, never of the traffic.
// Such a slot's sender/resume handle came from ctrie.find, so the trie
// it names is not empty.
func (s *Snapshot) staged(sl *slot) bool {
	if !s.compressed || sl.flags&(slotUsed|slotValid) != slotUsed|slotValid {
		return false
	}
	if s.verify {
		return sl.flags&slotSenderMarked != 0
	}
	return sl.flags&slotFinal == 0
}

// walkLanes carries the staged lanes through their ctrie walks one node
// per pass: every live lane fetches its next node (the overlapped
// misses), then every live lane steps through what it fetched. A lane
// whose Verify walk ends is refuted (full lookup), answered from its
// final slot, handed to a delegate engine's restricted search, or
// restarted on the local trie for the compressed restricted search; a
// lane whose search ends waits for the decode pass, which reads the
// matched value cells together. References are tallied per lane and
// posted to cnt when the lane retires, so the telemetry record of each
// packet and the batch total equal the scalar loop's.
//
//cluevet:hotpath
func (s *Snapshot) walkLanes(lanes []lane, dests []ip.Addr, clueLens []int, out []core.Result, cnt *mem.Counter) {
	var ws [batchLanes]cwalk
	var refs, vals [batchLanes]int32
	var livebuf, done [batchLanes]uint8 // lanes still walking; lanes whose restricted search is over
	live, nd := livebuf[:len(lanes)], 0
	var searching uint64 // bit j: lane j walks the local trie, not the sender trie
	for j := range lanes {
		live[j] = uint8(j)
		refs[j] = 1 // the clue-table reference
		if l := &lanes[j]; s.verify {
			s.csender.start(&ws[j], uint32(s.senderAt(l.sl)), clueLens[l.pkt])
		} else {
			s.clocal.start(&ws[j], uint32(s.resumeAt(l.sl)), clueLens[l.pkt])
			searching |= 1 << j
		}
	}
	for len(live) > 0 {
		for _, j := range live {
			ws[j].fetch()
		}
		m := 0
		for _, j := range live {
			w, sl, k := &ws[j], lanes[j].sl, lanes[j].pkt
			d, cl := dests[k], clueLens[k]
			hi, lo := d.Halves()
			ct := &s.csender
			if searching&(1<<j) != 0 {
				ct = &s.clocal
			}
			if !ct.step(w, hi, lo) {
				live[m] = j
				m++
				continue
			}
			refs[j] += w.refs
			if searching&(1<<j) != 0 {
				done[nd] = j
				nd++
				continue
			}
			switch {
			case int(w.best) > cl:
				// A marked sender prefix longer than the clue refutes it.
				before := cnt.Count()
				cnt.Add(int(refs[j]))
				out[k] = s.fullLookup(d, cnt, core.OutcomeSuspect, before)
			case sl.flags&slotFinal != 0 || !s.flat:
				before := cnt.Count()
				cnt.Add(int(refs[j]))
				r := s.applyEntry(sl, d, cl, cnt)
				s.record(r.Outcome, cnt, before)
				out[k] = r
			default:
				s.clocal.start(w, uint32(s.resumeAt(sl)), cl)
				searching |= 1 << j
				live[m] = j
				m++
			}
		}
		live = live[:m]
	}
	for _, j := range done[:nd] {
		if w := &ws[j]; w.best >= 0 {
			vals[j] = s.clocal.val(w.bestAt)
		}
	}
	for _, j := range done[:nd] {
		w, k := &ws[j], lanes[j].pkt
		r := lanes[j].sl.searched(dests[k], w.best, vals[j], w.best >= 0)
		before := cnt.Count()
		cnt.Add(int(refs[j]))
		s.record(r.Outcome, cnt, before)
		out[k] = r
	}
}
