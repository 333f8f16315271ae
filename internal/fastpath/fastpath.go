// Package fastpath compiles a clue table (core.Table) into an immutable,
// flat, cache-line-packed snapshot and processes packets against it with
// zero allocations — the wall-clock fast path the ROADMAP's "as fast as
// the hardware allows" goal asks for, layered on top of the paper's
// memory-reference cost model rather than replacing it.
//
// The compiled form is a clue-length-indexed jump table: for each clue
// length L in [0, W] an open-addressed, power-of-two hash table over the
// first L bits of the destination, with each 32-byte slot holding the
// clue key, the inlined FD field (as a prefix LENGTH — the FD prefix is
// always an ancestor of the clue, hence a prefix of the destination, so
// it is reconstructed from the packet in registers), the §3.4 validity
// mark, the Claim-1 finality bit, and the restricted-search start point.
// Two slots fill one 64-byte cache line, the software analogue of the
// paper's §3.5 "two clue records per SDRAM line" packing; the Advance
// method's common case (a final entry, 95–99.5% of clues per §6) is one
// hash probe and zero pointer dereferences. On a table too big for the
// cache that probe is a miss, so ProcessBatch (batch.go) computes the
// slot address of every packet in a lane group before it reads any of
// them: the probes of a batch are independent loads and their misses
// overlap. The walks that follow a probe on a compressed snapshot
// advance the same way, one node per pass across the group.
//
// Restricted searches and full lookups come in two flavors:
//
//   - Flat: when the table's engine is the Regular trie scan, the local
//     trie (and the sender trie under Config.Verify) is compiled into a
//     popcount-bitmap flat trie (flattrie.go) and every walk runs over
//     contiguous slices — no pointers anywhere on the hot path.
//   - Delegate: for the compiled engines (Patricia, Binary, 6-way, Log W,
//     Multibit) the snapshot retains the per-entry lookup.Resume values
//     and the engine itself. Those structures are immutable after
//     construction, so the calls are still allocation-free.
//
// Either way the outcome, next hop, degradation flag and the charged
// memory-reference count are bit-for-bit identical to core.Table's —
// enforced by the differential tests in this package. Snapshots are
// immutable: route changes rebuild or patch a snapshot off-path and
// publish it with an atomic pointer swap (see RCU in rcu.go), so readers
// never block and never observe a half-updated table.
package fastpath

import (
	"unsafe"

	"repro/internal/core"
	"repro/internal/ip"
	"repro/internal/lookup"
	"repro/internal/mem"
	"repro/internal/telemetry"
)

// slot is one compiled clue entry: 32 bytes, two per cache line.
type slot struct {
	keyHi, keyLo uint64 // canonical clue bits (dest masked to the table's length)
	value        int32  // FD payload (next-hop ID) when fdLen >= 0
	resume       int32  // restricted-search start: flat-trie index or resumes[] index; unused when final
	sender       int32  // clue vertex in the flat sender trie (Verify), -1 when absent
	fdLen        int16  // FD prefix length; -1 when the FD is "no match"
	flags        uint8
	_            uint8
}

// slot flags.
const (
	slotUsed         uint8 = 1 << 0 // the slot holds an entry (open addressing)
	slotValid        uint8 = 1 << 1 // §3.4 validity mark
	slotFinal        uint8 = 1 << 2 // Ptr = Empty: the FD decides without a search
	slotSenderMarked uint8 = 1 << 3 // the clue is a marked sender vertex (Verify)
)

// Slot pages: the big-row copy-on-write unit, sized like the ctrie's
// node pages — 128 slots × 32 bytes = 4KiB. A patch clones only the
// pages it writes; at modern scale a length row holds hundreds of
// thousands of slots, and cloning it whole per Apply batch used to
// dominate update visibility. Rows at or below flatRowMax stay one
// contiguous array: the whole-row clone is at most 256KiB there (cheap
// next to a page table walk), and the forwarding probe keeps the
// single-load indexing the ≥5× speedup gate is measured on.
const (
	spageShift = 7
	spageSize  = 1 << spageShift
	spageMask  = spageSize - 1
	flatRowMax = 1 << 13
)

// spage is one fixed-size slot page; big rows hold pointers to these so
// the in-page index needs no bounds check and a COW clone is one struct
// copy.
type spage [spageSize]slot

// lenTable is the jump-table row for one clue length: an open-addressed,
// power-of-two slot array (size 0 when the table holds no clue of this
// length — a guaranteed miss). Small rows (size ≤ flatRowMax) live in
// flat; larger rows are chunked into fixed 4KiB pages, with
// `i>>spageShift` picking the page and `i&spageMask` the slot within
// it. Exactly one of flat/pages is non-nil for a non-empty row; size >
// flatRowMax is always a multiple of spageSize.
type lenTable struct {
	flat  []slot
	pages []*spage
	size  int
	used  int
}

// newRow allocates a row of the given power-of-two size: contiguous up
// to flatRowMax, paged over one contiguous backing array above it
// (compile-time locality); patches re-point individual pages at private
// copies.
func newRow(size int) lenTable {
	lt := lenTable{size: size}
	switch {
	case size <= 0:
	case size <= flatRowMax:
		lt.flat = make([]slot, size)
	default:
		lt.pages = make([]*spage, size>>spageShift)
		backing := make([]slot, size)
		for i := range lt.pages {
			lt.pages[i] = (*spage)(backing[i<<spageShift:])
		}
	}
	return lt
}

// at returns the slot at logical index i.
func (lt *lenTable) at(i uint32) *slot {
	if lt.flat != nil {
		return &lt.flat[i]
	}
	return &lt.pages[i>>spageShift][i&spageMask]
}

// home returns the first slot index of key (kh, kl)'s probe chain. The
// row must not be empty.
func (lt *lenTable) home(kh, kl uint64) uint32 {
	return uint32(hashKey(kh, kl)) & uint32(lt.size-1)
}

// find walks the probe chain from index i and returns the slot holding
// key (kh, kl), or the free slot that ends the chain. It is the packet
// path's probe and small enough to inline there.
func (lt *lenTable) find(i uint32, kh, kl uint64) *slot {
	for {
		sl := lt.at(i)
		if sl.flags&slotUsed == 0 || (sl.keyHi == kh && sl.keyLo == kl) {
			return sl
		}
		i = (i + 1) & uint32(lt.size-1)
	}
}

// locate probes for key (kh, kl) and returns the index of its slot —
// the matching used slot, or the first free slot of its chain.
func (lt *lenTable) locate(kh, kl uint64) uint32 {
	mask := uint32(lt.size - 1)
	i := lt.home(kh, kl)
	for {
		sl := lt.at(i)
		if sl.flags&slotUsed == 0 || (sl.keyHi == kh && sl.keyLo == kl) {
			return i
		}
		i = (i + 1) & mask
	}
}

// insert places sl by linear probing, replacing an existing slot with
// the same key. The row must be privately owned (compile or growth
// rebuild); the patch path goes through locate so it can privatize the
// one page it writes.
func (lt *lenTable) insert(sl slot) {
	*lt.at(lt.locate(sl.keyHi, sl.keyLo)) = sl
}

// probe reports whether key (kh, kl) is present.
func (lt *lenTable) probe(kh, kl uint64) bool {
	if lt.size == 0 {
		return false
	}
	return lt.find(lt.home(kh, kl), kh, kl).flags&slotUsed != 0
}

// maskHi/maskLo clear every destination bit past a clue length, turning
// "the first L bits of dest" into two ANDs. Sized 256 and indexed with a
// uint8 so the hot path pays no bounds check; entries past 128 are unused
// (the clue range check runs first).
var maskHi, maskLo [256]uint64

func init() {
	for l := 0; l <= 128; l++ {
		switch {
		case l <= 64:
			maskHi[l] = ^uint64(0) << (64 - uint(l)) // l == 64 shifts by 0; l == 0 shifts out everything
			if l == 0 {
				maskHi[l] = 0
			}
		default:
			maskHi[l] = ^uint64(0)
			maskLo[l] = ^uint64(0) << (128 - uint(l))
		}
	}
}

// clueKey returns the first clueLen bits of dest, the key of its clue in
// row clueLen. The caller has range-checked clueLen.
func clueKey(dest ip.Addr, clueLen int) (kh, kl uint64) {
	hi, lo := dest.Halves()
	return hi & maskHi[uint8(clueLen)], lo & maskLo[uint8(clueLen)]
}

// hashKey mixes the two key words (murmur3 finalizer over a golden-ratio
// fold); open addressing with a 50% max load factor keeps probe chains
// short.
func hashKey(hi, lo uint64) uint64 {
	x := hi ^ (lo * 0x9E3779B97F4A7C15)
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 29
	x *= 0xC4CEB9FE1A85EC53
	x ^= x >> 32
	return x
}

// Snapshot is an immutable compiled clue table. All exported methods are
// safe for unsynchronized concurrent use; none of them allocate.
type Snapshot struct {
	width      int
	fam        ip.Family
	flat       bool // engine is Regular: walks run on the flat tries below
	verify     bool
	compressed bool // tries are ctries (entropy-compressed) instead of flatTries
	lens       []lenTable
	local      flatTrie // flat mode: the receiver's compiled trie
	sender     flatTrie // Verify: the sender's compiled trie
	clocal     ctrie    // compressed counterparts of local/sender
	csender    ctrie
	engine     lookup.Engine
	resumes    []lookup.Resume // delegate mode: per-entry compiled restricted searches
	entries    int
	tel        *telemetry.PacketMetrics // inherited from the master table at Compile
}

// Layout selects the trie representation a snapshot compiles to.
type Layout int

const (
	// LayoutAuto picks per table: flat below autoCompressNodes binary
	// vertices (1999-scale tables, where the 12-byte-node flat trie fits
	// cache and supports in-place Apply patches), compressed above it
	// (modern BGP scale, where bytes/prefix decides throughput).
	LayoutAuto Layout = iota
	// LayoutFlat forces the popcount-bitmap flat tries (flattrie.go).
	LayoutFlat
	// LayoutCompressed forces the multibit packed tries (ctrie.go).
	LayoutCompressed
)

// autoCompressNodes is the LayoutAuto cutover, in binary trie vertices
// across the tries a snapshot compiles (~20k prefixes and up): paper-
// scale fixtures stay flat, modern-scale tables compress.
const autoCompressNodes = 1 << 17

// Compile snapshots a clue table. It runs off the packet path and is not
// charged references (like the paper's preprocessing). The table must be
// internally consistent — entries recomputed after any trie change, which
// is exactly what core's UpdateLocal/UpdateSender/Revalidate maintain;
// later mutations of the live table or its tries do not affect the
// snapshot (flat mode copies the tries) but do require recompiling to be
// visible. The trie representation is chosen per LayoutAuto.
func Compile(t *core.Table) *Snapshot {
	return CompileLayout(t, LayoutAuto)
}

// CompileLayout is Compile with an explicit trie representation.
func CompileLayout(t *core.Table, layout Layout) *Snapshot {
	return compileExported(t.Config(), t.Export(), t.Telemetry(), layout)
}

// compileExported builds a snapshot from an already-exported entry set.
// It is the body of Compile, split out so the RCU writer can capture
// (cfg, entries, telemetry) under its patch lock and run the expensive
// compile off-lock: the tries cfg references are only mutated by
// rebuild-holding writers, so they are stable for the duration, while
// the exported entries are value copies that no concurrent Learn can
// touch.
func compileExported(cfg core.Config, entries []core.ExportedEntry, tel *telemetry.PacketMetrics, layout Layout) *Snapshot {
	s := &Snapshot{
		width:  cfg.Local.Family().Width(),
		fam:    cfg.Local.Family(),
		verify: cfg.Verify,
		engine: cfg.Engine,
		tel:    tel,
	}
	if _, ok := cfg.Engine.(*lookup.RegularEngine); ok {
		s.flat = true
	}
	switch layout {
	case LayoutFlat:
		// compressed stays false
	case LayoutCompressed:
		s.compressed = true
	default:
		need := 0
		if s.flat {
			need = cfg.Local.NodeCount()
		}
		if cfg.Verify {
			need += cfg.SenderTrie.NodeCount()
		}
		s.compressed = need >= autoCompressNodes
	}
	if !s.flat && !cfg.Verify {
		s.compressed = false // no tries to compress; keep Apply patchable
	}
	if s.flat {
		if s.compressed {
			s.clocal = compileCTrie(cfg.Local)
		} else {
			s.local = compileTrie(cfg.Local)
		}
	}
	if cfg.Verify {
		if s.compressed {
			s.csender = compileCTrie(cfg.SenderTrie)
		} else {
			s.sender = compileTrie(cfg.SenderTrie)
		}
	}
	s.lens = make([]lenTable, s.width+1)
	perLen := make([][]core.ExportedEntry, s.width+1)
	for _, e := range entries {
		perLen[e.Clue.Len()] = append(perLen[e.Clue.Len()], e)
	}
	for l, es := range perLen {
		if len(es) == 0 {
			continue
		}
		lt := newRow(tableSize(len(es)))
		for _, e := range es {
			lt.insert(s.compileSlot(e))
		}
		lt.used = len(es)
		s.lens[l] = lt
		s.entries += len(es)
	}
	return s
}

// tableSize returns the power-of-two capacity for n entries at a max load
// factor of 1/2.
func tableSize(n int) int {
	size := 2
	for size < 2*n {
		size <<= 1
	}
	return size
}

// compileSlot flattens one exported entry, appending to s.resumes in
// delegate mode. It runs only on snapshots still under construction
// (Compile builds them, patch calls it on the fresh copy after
// replacing the resumes backing), never on a published one.
//
//cluevet:ctor
func (s *Snapshot) compileSlot(e core.ExportedEntry) slot {
	kh, kl := e.Clue.Addr().Halves()
	sl := slot{keyHi: kh, keyLo: kl, resume: -1, sender: -1, fdLen: -1, flags: slotUsed}
	if e.Valid {
		sl.flags |= slotValid
	}
	if e.FDOK {
		sl.fdLen = int16(e.FDPrefix.Len())
		sl.value = int32(e.FDValue)
	}
	switch {
	case e.Resume == nil:
		sl.flags |= slotFinal
	case s.flat:
		// The Regular engine resumes at the clue vertex of the live trie;
		// the flat walk starts at the same vertex of the compiled copy.
		if s.compressed {
			sl.resume = s.clocal.find(e.Clue)
		} else {
			sl.resume = s.local.find(e.Clue)
		}
		if sl.resume < 0 {
			sl.flags |= slotFinal // vertex gone: nothing below the clue anymore
		}
	default:
		sl.resume = int32(len(s.resumes))
		s.resumes = append(s.resumes, e.Resume)
	}
	if s.verify {
		if s.compressed {
			sl.sender = s.csender.find(e.Clue)
			if s.csender.markedOf(sl.sender, e.Clue) {
				sl.flags |= slotSenderMarked
			}
		} else {
			sl.sender = s.sender.find(e.Clue)
			if sl.sender >= 0 && s.sender.node(uint32(sl.sender)).meta&fMarked != 0 {
				sl.flags |= slotSenderMarked
			}
		}
	}
	return sl
}

// Width returns the address width of the snapshot's family.
func (s *Snapshot) Width() int { return s.width }

// Family returns the snapshot's address family.
func (s *Snapshot) Family() ip.Family { return s.fam }

// Len returns the number of compiled entries.
func (s *Snapshot) Len() int { return s.entries }

// Flat reports whether the snapshot runs fully on flat tries (Regular
// engine) as opposed to delegating restricted searches to a compiled
// engine.
func (s *Snapshot) Flat() bool { return s.flat }

// Compressed reports whether the snapshot's tries use the entropy-
// compressed multibit layout (ctrie.go). Compressed snapshots are
// patched in place by RCU.Apply like flat ones (ctrie_edit.go); a batch
// degrades to the counted recompile path only when it would overflow
// the 16-bit next-hop dictionary or rewrite a table-rivaling share of
// packed nodes.
func (s *Snapshot) Compressed() bool { return s.compressed }

// MemStats is the per-structure memory accounting of a compiled
// snapshot, in bytes of backing array (headers and the Snapshot struct
// itself excluded). It is what the clued /metrics gauges and the
// cluebench scale sweep report.
type MemStats struct {
	Compressed      bool
	Entries         int // compiled clue entries across all slot tables
	SlotBytes       int // open-addressed clue slot tables (32 B/slot, all lengths)
	LocalTrieBytes  int // local trie index: flat pages or packed multibit nodes
	SenderTrieBytes int // sender trie index (Verify), same representation
	DictBytes       int // compressed value arrays + next-hop dictionary
	ResumeBytes     int // delegate-mode per-entry resume handles
	LocalNodes      int // nodes in the local trie (binary vertices flat, multibit nodes compressed)
	SenderNodes     int
}

// TrieIndexBytes is the trie-side footprint: node pages, value arrays
// and dictionary, slot tables excluded. The benchmark reports it as
// fastpath.trie_index_bytes; the gated bytes_per_prefix is TotalBytes.
func (m MemStats) TrieIndexBytes() int {
	return m.LocalTrieBytes + m.SenderTrieBytes + m.DictBytes
}

// TotalBytes is the full snapshot footprint.
func (m MemStats) TotalBytes() int {
	return m.SlotBytes + m.TrieIndexBytes() + m.ResumeBytes
}

// MemStats walks the snapshot's backing arrays and returns the
// per-structure byte accounting. It allocates nothing and is safe on a
// published snapshot.
func (s *Snapshot) MemStats() MemStats {
	m := MemStats{Compressed: s.compressed, Entries: s.entries}
	for _, lt := range s.lens {
		m.SlotBytes += lt.size*int(unsafe.Sizeof(slot{})) + len(lt.pages)*8 // slots plus the page table
	}
	m.ResumeBytes = len(s.resumes) * 16 // two words per lookup.Resume interface
	if s.compressed {
		var d int
		m.LocalTrieBytes, d = s.clocal.memBytes()
		m.DictBytes += d
		m.SenderTrieBytes, d = s.csender.memBytes()
		m.DictBytes += d
		m.LocalNodes = s.clocal.n - s.clocal.dead
		m.SenderNodes = s.csender.n - s.csender.dead
	} else {
		m.LocalTrieBytes = s.local.memBytes()
		m.SenderTrieBytes = s.sender.memBytes()
		m.LocalNodes = s.local.n - s.local.dead
		m.SenderNodes = s.sender.n - s.sender.dead
	}
	return m
}

// Telemetry returns the metrics bundle inherited from the master table
// at Compile (nil when the table had none attached).
func (s *Snapshot) Telemetry() *telemetry.PacketMetrics { return s.tel }

// Process routes one packet, following core.Table.Process decision for
// decision and reference for reference: the same outcomes, the same next
// hops, the same Degraded classification and the same mem.Counter charges
// — only the wall-clock cost differs. Unlike the live table a snapshot
// never learns; a miss routes by full lookup and the caller may hand the
// clue to RCU.Learn off the hot path.
//
//cluevet:hotpath
func (s *Snapshot) Process(dest ip.Addr, clueLen int, cnt *mem.Counter) core.Result {
	before := cnt.Count()
	if clueLen < 0 || clueLen > s.width {
		return s.fullLookup(dest, cnt, core.OutcomeBadClue, before)
	}
	cnt.Add(1) // the clue-table reference
	kh, kl := clueKey(dest, clueLen)
	lt := &s.lens[clueLen]
	if lt.size == 0 {
		return s.fullLookup(dest, cnt, core.OutcomeMiss, before)
	}
	sl := lt.find(lt.home(kh, kl), kh, kl)
	if sl.flags&slotUsed == 0 {
		return s.fullLookup(dest, cnt, core.OutcomeMiss, before)
	}
	// Claim-1 common case (95–99.5% of clues, §6): valid, final,
	// no verification — resolved here without the apply call, and with
	// the result built in place: returned through fd it is copied
	// through the stack once more, which this path can measure.
	if s.claim1(sl) {
		s.record(core.OutcomeFD, cnt, before)
		if sl.fdLen < 0 {
			return core.Result{Outcome: core.OutcomeFD}
		}
		return core.Result{Prefix: ip.PrefixFrom(dest, int(sl.fdLen)), Value: int(sl.value), OK: true, Outcome: core.OutcomeFD}
	}
	return s.apply(sl, dest, clueLen, cnt, before)
}

// record posts a finished packet to the attached telemetry, if any: its
// outcome and the references charged to cnt since before.
func (s *Snapshot) record(o core.Outcome, cnt *mem.Counter, before int) {
	if s.tel != nil {
		s.tel.Record(int(o), uint64(cnt.Count()-before))
	}
}

// claim1 reports whether sl alone decides the packet: a valid, final
// entry on a table that does not verify clues.
func (s *Snapshot) claim1(sl *slot) bool {
	return sl.flags&(slotValid|slotFinal) == slotValid|slotFinal && !s.verify
}

// fd is the slot's inlined FD field as a result with outcome o.
func (sl *slot) fd(dest ip.Addr, o core.Outcome) core.Result {
	if sl.fdLen < 0 {
		return core.Result{Outcome: o}
	}
	return core.Result{Prefix: ip.PrefixFrom(dest, int(sl.fdLen)), Value: int(sl.value), OK: true, Outcome: o}
}

// ProcessNoClue routes a clue-less packet (legacy upstream, §5.3): a full
// lookup, charged to the engine's model.
//
//cluevet:hotpath
func (s *Snapshot) ProcessNoClue(dest ip.Addr, cnt *mem.Counter) core.Result {
	return s.fullLookup(dest, cnt, core.OutcomeNoClue, cnt.Count())
}

// apply resolves a found slot: validity, sender verification, then the
// inlined FD or the restricted search.
//
//cluevet:hotpath
func (s *Snapshot) apply(sl *slot, dest ip.Addr, clueLen int, cnt *mem.Counter, before int) core.Result {
	if sl.flags&slotValid == 0 {
		return s.fullLookup(dest, cnt, core.OutcomeInvalid, before)
	}
	if s.verify && s.refuted(sl, dest, clueLen, cnt) {
		return s.fullLookup(dest, cnt, core.OutcomeSuspect, before)
	}
	r := s.applyEntry(sl, dest, clueLen, cnt)
	s.record(r.Outcome, cnt, before)
	return r
}

// applyEntry resolves a valid, verified slot: the inlined FD when final,
// otherwise the restricted search with the FD as fallback.
//
//cluevet:hotpath
func (s *Snapshot) applyEntry(sl *slot, dest ip.Addr, clueLen int, cnt *mem.Counter) core.Result {
	if sl.flags&slotFinal != 0 {
		return sl.fd(dest, core.OutcomeFD)
	}
	if s.flat {
		var l, v int32
		var ok bool
		if s.compressed {
			l, v, ok = s.clocal.lookupFrom(uint32(sl.resume), clueLen, dest, cnt)
		} else {
			l, v, ok = s.local.lookupFrom(uint32(sl.resume), clueLen, dest, cnt)
		}
		return sl.searched(dest, l, v, ok)
	}
	if p, v, ok := s.resumes[sl.resume].Lookup(dest, cnt); ok {
		return core.Result{Prefix: p, Value: v, OK: true, Outcome: core.OutcomeResumeHit}
	}
	return sl.fd(dest, core.OutcomeResumeFD)
}

// searched is the result of a restricted search on a compiled trie that
// matched a prefix of length l with value v (ok), or fell through to the
// slot's FD.
func (sl *slot) searched(dest ip.Addr, l, v int32, ok bool) core.Result {
	if ok {
		return core.Result{Prefix: ip.PrefixFrom(dest, int(l)), Value: int(v), OK: true, Outcome: core.OutcomeResumeHit}
	}
	return sl.fd(dest, core.OutcomeResumeFD)
}

// refuted mirrors core's sender verification: a clue that is not a marked
// sender vertex is refuted outright at no cost; otherwise the walk down
// the flat sender trie is charged to the packet, and a marked sender
// prefix longer than the clue refutes it.
//
//cluevet:hotpath
func (s *Snapshot) refuted(sl *slot, dest ip.Addr, clueLen int, cnt *mem.Counter) bool {
	if sl.flags&slotSenderMarked == 0 {
		return true
	}
	var l int32
	var ok bool
	if s.compressed {
		l, _, ok = s.csender.lookupFrom(uint32(sl.sender), clueLen, dest, cnt)
	} else {
		l, _, ok = s.sender.lookupFrom(uint32(sl.sender), clueLen, dest, cnt)
	}
	return ok && int(l) > clueLen
}

// fullLookup routes without clue help: the flat root walk in flat mode,
// the engine otherwise — either way the charge equals what core's
// fullLookup would record. Every degraded path terminates here, so it
// also records the packet (outcome plus the reference delta since
// before, the counter reading at Process entry) to any attached
// telemetry.
//
//cluevet:hotpath
func (s *Snapshot) fullLookup(dest ip.Addr, cnt *mem.Counter, o core.Outcome, before int) core.Result {
	var r core.Result
	if s.flat {
		var l, v int32
		var ok bool
		if s.compressed {
			l, v, ok = s.clocal.lookupFrom(0, 0, dest, cnt)
		} else {
			l, v, ok = s.local.lookupFrom(0, 0, dest, cnt)
		}
		if ok {
			r = core.Result{Prefix: ip.PrefixFrom(dest, int(l)), Value: int(v), OK: true, Outcome: o}
		} else {
			r = core.Result{Outcome: o}
		}
	} else {
		p, v, ok := s.engine.Lookup(dest, cnt)
		r = core.Result{Prefix: p, Value: v, OK: ok, Outcome: o}
	}
	s.record(o, cnt, before)
	return r
}

// patch returns a copy of s with entry e recompiled in place (or added),
// sharing every length table except e's. It is the RCU writer's
// incremental path for learned clues and validity flips; anything that
// changes a trie goes through applyOps/Apply (incremental) or a full
// Compile.
func (s *Snapshot) patch(e core.ExportedEntry) *Snapshot {
	ns := *s
	ns.lens = append([]lenTable(nil), s.lens...)
	ns.resumes = append([]lookup.Resume(nil), s.resumes...)
	ns.reslot(e, newPatchSession(len(ns.lens)))
	return &ns
}

// patchSession tracks what a patch (single-entry or Apply batch) has
// already privatized, so each row's page table and each written slot
// page is cloned exactly once per publication.
type patchSession struct {
	rows  []bool   // row l's page table is private
	pages [][]bool // pages[l][p]: page p of row l is private
}

func newPatchSession(n int) *patchSession {
	return &patchSession{rows: make([]bool, n), pages: make([][]bool, n)}
}

// reslot recompiles entry e into ns, which must be a snapshot under
// construction whose lens/resumes backing has already been replaced.
// The write is copy-on-write: a small (flat) row is cloned whole on
// first touch; a big row clones its page table and then only the one
// 4KiB page holding e's slot (tracked by ps), every other page staying
// shared with the published snapshot. Rows never shrink, so the hash
// layout stays stable for every untouched entry (mirroring §3.4's
// "never remove clues" guidance) and only growth rehashes — a private
// rebuild of the whole row, amortized by the power-of-two sizing.
//
//cluevet:ctor - operates on the fresh copy before publication
func (ns *Snapshot) reslot(e core.ExportedEntry, ps *patchSession) {
	l := e.Clue.Len()
	lt := ns.lens[l]
	kh, kl := e.Clue.Addr().Halves()
	replacing := lt.probe(kh, kl)
	used := lt.used
	if !replacing {
		used++
	}
	if size := tableSize(used); size > lt.size {
		// Growth: rebuild the row privately with a rehash (this is also
		// where a row crosses flatRowMax and switches representation).
		nr := newRow(size)
		reinsert := func(sl *slot) {
			if sl.flags&slotUsed != 0 && !(sl.keyHi == kh && sl.keyLo == kl) {
				nr.insert(*sl)
			}
		}
		for j := range lt.flat {
			reinsert(&lt.flat[j])
		}
		for _, pg := range lt.pages {
			for j := range pg {
				reinsert(&pg[j])
			}
		}
		lt = nr
		ps.rows[l] = true
		if lt.pages != nil {
			ps.pages[l] = make([]bool, len(lt.pages))
			for j := range ps.pages[l] {
				ps.pages[l][j] = true
			}
		}
	}
	if !ps.rows[l] {
		ps.rows[l] = true
		if lt.flat != nil {
			lt.flat = append([]slot(nil), lt.flat...)
		} else {
			lt.pages = append([]*spage(nil), lt.pages...)
			ps.pages[l] = make([]bool, len(lt.pages))
		}
	}
	i := lt.locate(kh, kl)
	if lt.pages != nil {
		if pg := i >> spageShift; !ps.pages[l][pg] {
			cp := *lt.pages[pg]
			lt.pages[pg] = &cp
			ps.pages[l][pg] = true
		}
	}
	*lt.at(i) = ns.compileSlot(e)
	lt.used = used
	ns.lens[l] = lt
	if !replacing {
		ns.entries++
	}
}
