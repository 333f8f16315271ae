package fastpath

// Property tests for the bucketed slot row (lenTable): every row
// operation against a map oracle, on both families, through growth and
// the contiguous→paged crossing, plus the placements a bucketed probe
// can get wrong and the copy-on-write contract of reslot.

import (
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/ip"
)

// rowSnapshot is the least snapshot reslot works on: no tries, so every
// entry compiles final and the payload is the FD alone.
func rowSnapshot(fam ip.Family) *Snapshot {
	return &Snapshot{width: fam.Width(), fam: fam, lens: make([]lenTable, fam.Width()+1)}
}

// randClue draws a clue of length l.
func randClue(rng *rand.Rand, fam ip.Family, l int) ip.Prefix {
	if fam == ip.IPv4 {
		return ip.PrefixFrom(ip.AddrFrom32(rng.Uint32()), l)
	}
	return ip.PrefixFrom(ip.AddrFrom128(rng.Uint64(), rng.Uint64()), l)
}

func rowEntry(clue ip.Prefix, v int) core.ExportedEntry {
	return core.ExportedEntry{Clue: clue, Valid: true, FDOK: true, FDPrefix: clue.Truncate(clue.Len() / 2), FDValue: v}
}

// checkRow holds one row to its oracle: every present key found by find
// and locate with its payload, absent keys ending on a free cell, the
// entry count, at least one free cell, the fill band and the alignment.
func checkRow(t *testing.T, s *Snapshot, l int, want map[ip.Prefix]int, rng *rand.Rand) {
	t.Helper()
	lt := &s.lens[l]
	if lt.used != len(want) {
		t.Fatalf("row holds %d entries, oracle %d", lt.used, len(want))
	}
	used := 0
	for i := uint32(0); i < lt.cells(); i += lt.stride {
		if lt.at(i).flags&slotUsed != 0 {
			used++
		}
	}
	if used != len(want) || uint32(used) >= lt.cells()/lt.stride {
		t.Fatalf("%d used cells of %d for %d entries: no free cell ends a probe", used, lt.cells()/lt.stride, len(want))
	}
	if lt.nb < rowBuckets(lt.used, lt.stride, fillGrowAt) || lt.nb > rowBuckets(lt.used, lt.stride, fillGrowTo) {
		t.Fatalf("%d entries in %d buckets: outside the fill band", lt.used, lt.nb)
	}
	if (lt.flat != nil) == (lt.pages != nil) || (lt.pages != nil && (lt.nb <= flatRowMax || lt.nb%bpageBuckets != 0)) {
		t.Fatalf("row of %d buckets: flat=%v pages=%d", lt.nb, lt.flat != nil, len(lt.pages))
	}
	if a := uintptr(unsafe.Pointer(lt.bucket(0))); a%64 != 0 {
		t.Fatalf("bucket 0 at %#x is not cache-line aligned", a)
	}
	for clue, v := range want {
		kh, kl := clue.Addr().Halves()
		sl := lt.find(lt.home(kh, kl), kh, kl)
		if sl.flags&slotUsed == 0 || int(sl.value) != v || sl != lt.at(lt.locate(kh, kl)) {
			t.Fatalf("clue %v: find %+v, locate cell %d, want value %d", clue, *sl, lt.locate(kh, kl), v)
		}
		if gh, gl := lt.keyAt(lt.locate(kh, kl)); gh != kh || gl != kl {
			t.Fatalf("clue %v: keyAt %x:%x, want %x:%x", clue, gh, gl, kh, kl)
		}
		// Bits past the clue length are not part of the key.
		dest := clue.Last()
		if dh, dl := clueKey(dest, l); dh != kh || dl != kl {
			t.Fatalf("clue %v: key of %v is %x:%x", clue, dest, dh, dl)
		}
	}
	for n := 0; n < 200; n++ {
		clue := randClue(rng, s.fam, l)
		if _, ok := want[clue]; ok {
			continue
		}
		kh, kl := clue.Addr().Halves()
		if sl := lt.find(lt.home(kh, kl), kh, kl); sl.flags&slotUsed != 0 {
			t.Fatalf("absent clue %v found %+v", clue, *sl)
		}
		if i := lt.locate(kh, kl); lt.at(i).flags&slotUsed != 0 {
			t.Fatalf("absent clue %v located on used cell %d", clue, i)
		}
	}
}

// TestRowProperties grows one row per family from empty, past the
// contiguous limit and through two more rebuilds, replacing entries on
// the way, and checks it against the oracle after every batch.
func TestRowProperties(t *testing.T) {
	for _, tc := range []struct {
		fam ip.Family
		l   int
	}{{ip.IPv4, 24}, {ip.IPv4, 32}, {ip.IPv6, 48}, {ip.IPv6, 128}} {
		rng := rand.New(rand.NewSource(int64(tc.l)))
		s := rowSnapshot(tc.fam)
		want := make(map[ip.Prefix]int)
		var clues []ip.Prefix
		rebuilds, crossed, offPage := 0, false, false
		for batch := 0; rebuilds < 3 || !crossed; batch++ {
			if batch > 400 {
				t.Fatalf("%v/%d: %d rebuilds, crossed=%v after %d entries", tc.fam, tc.l, rebuilds, crossed, len(want))
			}
			ps := newPatchSession(len(s.lens))
			for n := 0; n < 97; n++ {
				clue := randClue(rng, tc.fam, tc.l)
				switch {
				case n%8 == 7 && len(clues) > 0:
					clue = clues[rng.Intn(len(clues))] // replace
				case n%8 == 3 && tc.l == 128 && len(clues) > 0:
					// A key that differs from a present one in the last
					// 32 bits only.
					hi, lo := clues[rng.Intn(len(clues))].Addr().Halves()
					clue = ip.PrefixFrom(ip.AddrFrom128(hi, lo^uint64(1+rng.Intn(1<<31))), 128)
				}
				if _, ok := want[clue]; !ok {
					clues = append(clues, clue)
				}
				before := s.lens[tc.l]
				want[clue] = batch*100 + n
				s.reslot(rowEntry(clue, want[clue]), ps)
				if after := s.lens[tc.l]; before.nb != 0 && after.nb != before.nb {
					if after.nb < before.nb+before.nb/8 && after.nb != flatRowMax {
						t.Fatalf("rebuild %d → %d buckets is not geometric", before.nb, after.nb)
					}
					if before.nb > bpageBuckets {
						rebuilds++
					}
					crossed = crossed || (before.flat != nil && after.pages != nil)
				}
			}
			offPage = offPage || s.lens[tc.l].nb%bpageBuckets != 0
			checkRow(t, s, tc.l, want, rng)
		}
		if !offPage || s.entries != len(want) {
			t.Fatalf("%v/%d: offPage=%v, %d entries for %d clues", tc.fam, tc.l, offPage, s.entries, len(want))
		}
	}
}

// homedAt draws distinct keys of a row until n of them hash to bucket b.
func homedAt(rng *rand.Rand, lt *lenTable, fam ip.Family, l int, b uint32, n int) []ip.Prefix {
	var out []ip.Prefix
	seen := make(map[ip.Prefix]bool)
	for len(out) < n {
		clue := randClue(rng, fam, l)
		if kh, kl := clue.Addr().Halves(); !seen[clue] && lt.home(kh, kl) == b {
			seen[clue] = true
			out = append(out, clue)
		}
	}
	return out
}

// TestRowOverflow forces the placements a bucketed probe can get wrong:
// a home bucket so full that the key sits two buckets on, and overflow
// from the last bucket wrapping to bucket 0 — on a row whose size is no
// power of two and, for the paged case, not one page.
func TestRowOverflow(t *testing.T) {
	for _, tc := range []struct {
		fam ip.Family
		l   int
		nb  uint32
	}{{ip.IPv4, 24, 7}, {ip.IPv6, 64, 7}, {ip.IPv6, 128, 9}, {ip.IPv4, 32, flatRowMax + 3*bpageBuckets}} {
		rng := rand.New(rand.NewSource(int64(tc.nb)))
		stride := entryCells(tc.fam)
		lt := newRow(tc.nb, stride)
		per := int(bucketSlots / stride)
		// 2·per+1 keys homed at the last bucket: it fills, the wrap fills
		// bucket 0, and the last key lands in bucket 1.
		last := homedAt(rng, &lt, tc.fam, tc.l, tc.nb-1, 2*per+1)
		// per+1 keys homed at bucket 3, behind a full bucket 4.
		mid := append(homedAt(rng, &lt, tc.fam, tc.l, 4, per), homedAt(rng, &lt, tc.fam, tc.l, 3, per+1)...)
		want := make(map[ip.Prefix]uint32) // the bucket each key must end in
		for i, clue := range last {
			want[clue] = (tc.nb - 1 + uint32(i/per)) % tc.nb
		}
		for i, clue := range mid {
			want[clue] = 4
			if i >= per {
				want[clue] = 3
			}
		}
		want[mid[2*per]] = 5
		for i, clue := range append(last, mid...) {
			kh, kl := clue.Addr().Halves()
			sl := slot{key: uint32(kh >> 32), value: int32(i), fdLen: noFD, flags: slotUsed | slotValid}
			lt.put(lt.locate(kh, kl), sl, kh, kl)
			lt.used++
		}
		for i, clue := range append(last, mid...) {
			kh, kl := clue.Addr().Halves()
			at := lt.locate(kh, kl)
			sl := lt.find(lt.home(kh, kl), kh, kl)
			if sl != lt.at(at) || sl.flags&slotUsed == 0 || int(sl.value) != i || at/bucketSlots != want[clue] {
				t.Fatalf("%v/%d nb=%d: key %d (%v) found %+v in bucket %d, want bucket %d",
					tc.fam, tc.l, tc.nb, i, clue, *sl, at/bucketSlots, want[clue])
			}
		}
		// Absent keys homed at the full buckets walk the same chains and
		// must end on a free cell.
		for _, b := range []uint32{tc.nb - 1, 3, 4} {
			for _, clue := range homedAt(rng, &lt, tc.fam, tc.l, b, 3*per) {
				if _, ok := want[clue]; ok {
					continue
				}
				kh, kl := clue.Addr().Halves()
				if sl := lt.find(b, kh, kl); sl.flags&slotUsed != 0 {
					t.Fatalf("%v/%d: absent key %v homed at %d found %+v", tc.fam, tc.l, clue, b, *sl)
				}
			}
		}
	}
}

// TestRowZeroKey pins the one key every free cell "holds": the all-zero
// key is absent from a row of free cells, present once inserted, and
// does not hide behind the free cells of its bucket.
func TestRowZeroKey(t *testing.T) {
	for _, fam := range []ip.Family{ip.IPv4, ip.IPv6} {
		s := rowSnapshot(fam)
		ps := newPatchSession(len(s.lens))
		zero := ip.PrefixFrom(ip.Zero(fam), 16)
		for i := 0; i < 40; i++ {
			s.reslot(rowEntry(ip.PrefixFrom(randClue(rand.New(rand.NewSource(int64(i))), fam, 16).Addr(), 16), i), ps)
		}
		lt := &s.lens[16]
		if sl := lt.find(lt.home(0, 0), 0, 0); sl.flags&slotUsed != 0 {
			t.Fatalf("%v: zero key found before insertion: %+v", fam, *sl)
		}
		s.reslot(rowEntry(zero, 4242), ps)
		lt = &s.lens[16]
		if sl := lt.find(lt.home(0, 0), 0, 0); sl.flags&slotUsed == 0 || sl.value != 4242 {
			t.Fatalf("%v: zero key not found after insertion: %+v", fam, *sl)
		}
	}
}

// TestReslotCopyOnWrite pins the patch contract on a paged row: the
// published snapshot's buckets are byte-identical after a copy is
// patched, and the copy clones exactly the pages it wrote.
func TestReslotCopyOnWrite(t *testing.T) {
	for _, fam := range []ip.Family{ip.IPv4, ip.IPv6} {
		rng := rand.New(rand.NewSource(5))
		l := fam.Width() - 4
		s := rowSnapshot(fam)
		ps := newPatchSession(len(s.lens))
		var clues []ip.Prefix
		for s.lens[l].pages == nil || len(clues) < 12000 || rowBuckets(len(clues)+100, entryCells(fam), fillGrowAt) > s.lens[l].nb {
			clues = append(clues, randClue(rng, fam, l))
			s.reslot(rowEntry(clues[len(clues)-1], len(clues)), ps)
		}
		pub := s.lens[l]
		frozen := make([]bpage, len(pub.pages))
		for i, pg := range pub.pages {
			frozen[i] = *pg
		}

		ns := *s
		ns.lens = append([]lenTable(nil), s.lens...)
		ps = newPatchSession(len(ns.lens))
		wrote := make(map[uint32]bool)
		for i := 0; i < 60; i++ {
			clue := clues[rng.Intn(len(clues))] // replace
			if i%3 == 0 {
				clue = randClue(rng, fam, l) // add
			}
			ns.reslot(rowEntry(clue, -i), ps)
			kh, kl := clue.Addr().Halves()
			wrote[ns.lens[l].locate(kh, kl)/bucketSlots>>bpageShift] = true
		}
		patched := ns.lens[l]
		if patched.nb != pub.nb {
			t.Fatalf("%v: 20 additions grew the row %d → %d buckets", fam, pub.nb, patched.nb)
		}
		cloned := 0
		for i := range pub.pages {
			if *pub.pages[i] != frozen[i] {
				t.Fatalf("%v: page %d of the published row changed under the patch", fam, i)
			}
			if patched.pages[i] != pub.pages[i] {
				cloned++
				if !wrote[uint32(i)] {
					t.Fatalf("%v: page %d cloned but never written", fam, i)
				}
			}
		}
		if cloned != len(wrote) {
			t.Fatalf("%v: %d pages cloned for %d pages written", fam, cloned, len(wrote))
		}
		if s.lens[l].used != pub.used || ns.entries != s.entries+20 {
			t.Fatalf("%v: published used %d→%d, patched entries %d→%d", fam, pub.used, s.lens[l].used, s.entries, ns.entries)
		}
	}
}
