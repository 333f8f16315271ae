// Package fastpath compiles a clue table (core.Table) into an immutable,
// flat, cache-line-packed snapshot and processes packets against it with
// zero allocations — the wall-clock fast path the ROADMAP's "as fast as
// the hardware allows" goal asks for, layered on top of the paper's
// memory-reference cost model rather than replacing it.
//
// The compiled form is a clue-length-indexed jump table: for each clue
// length L in [0, W] an open-addressed hash table over the first L bits
// of the destination, laid out in 64-byte, cache-line-aligned buckets.
// A slot holds the clue key, the inlined FD field (as a prefix LENGTH —
// the FD prefix is always an ancestor of the clue, hence a prefix of the
// destination, so it is reconstructed from the packet in registers), the
// §3.4 validity mark, the Claim-1 finality bit, and the one trie handle
// the entry's packets need. An IPv4 slot is 16 bytes, four to a bucket;
// an IPv6 slot carries a 128-bit key and is 32 bytes, two to a bucket —
// the software analogue of the paper's §3.5 "two clue records per SDRAM
// line" packing. Rows are sized by fill, not to a power of two: a row
// big enough for its memory to matter is 75% full when compiled and a
// key's probe starts at the first slot of its home bucket, so nine
// probes in ten end in the line they start in. The Advance method's
// common case (a final entry, 95–99.5% of clues per §6) is one hash
// probe and zero pointer dereferences. On a table too big for the cache
// that probe is a miss, so ProcessBatch (batch.go) computes the bucket
// address of every packet in a lane group before it reads any of them:
// the probes of a batch are independent loads and their misses overlap.
// The walks that follow a probe on a compressed snapshot advance the
// same way, one node per pass across the group.
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
	"math"
	"math/bits"
	"unsafe"

	"repro/internal/core"
	"repro/internal/ip"
	"repro/internal/lookup"
	"repro/internal/mem"
	"repro/internal/telemetry"
)

// slot is one 16-byte cell of a bucket. In an IPv4 row a cell is a whole
// compiled clue entry: the 32-bit key and the payload a packet that
// found it needs. A 128-bit key cannot shrink, so an IPv6 entry takes
// two adjacent cells of one bucket, 32 bytes: the same entry cell, its
// key field holding address bits 0–31, then a tail cell whose key, value
// and aux words hold bits 32–127 (keyTail) and whose flags stay zero.
// Either way the payload has one shape, the key's first word is the
// cell's first word, and the families differ only in the key compare and
// in how many entries share a bucket (lenTable.stride).
//
// aux is the one trie handle the entry needs on the common path: the
// clue's vertex in the sender trie when Verify walks from it (the clue
// is a marked sender vertex), otherwise the restricted-search start of a
// non-final entry (a trie index, or in delegate mode an index into
// Snapshot.resumes). The few entries that need both — marked and
// non-final under Verify, 1.5% of the 1M-prefix table — keep them in
// Snapshot.pairs and set slotPair; aux then indexes that array.
type slot struct {
	key   uint32 // clue bits 0–31 (dest masked to the row's length): all of an IPv4 key
	value int32  // FD payload (next-hop ID) when fdLen != noFD
	aux   int32  // sender or resume handle, or with slotPair an index into Snapshot.pairs; -1 when the entry needs none
	fdLen uint8  // FD prefix length (0–128); noFD when the FD is "no match"
	flags uint8
	_     uint16
}

// noFD in slot.fdLen marks an entry whose FD is "no match".
const noFD = 0xFF

// slot flags.
const (
	slotUsed         uint8 = 1 << 0 // the cell holds an entry (open addressing)
	slotValid        uint8 = 1 << 1 // §3.4 validity mark
	slotFinal        uint8 = 1 << 2 // Ptr = Empty: the FD decides without a search
	slotSenderMarked uint8 = 1 << 3 // the clue is a marked sender vertex (Verify)
	slotPair         uint8 = 1 << 4 // aux indexes Snapshot.pairs
)

// auxPair is the side record of an entry that needs both trie handles.
type auxPair struct{ resume, sender int32 }

// entryCells returns how many cells an entry of family f takes: the
// stride of every row of a snapshot of that family.
func entryCells(f ip.Family) uint32 {
	if f == ip.IPv6 {
		return 2
	}
	return 1
}

// keyTail is the cell behind an IPv6 entry: address bits 32–127.
func keyTail(kh, kl uint64) slot {
	return slot{key: uint32(kh), value: int32(kl >> 32), aux: int32(kl)}
}

// bucket is the probe unit: one 64-byte cache line of four cells — four
// IPv4 entries or two IPv6 ones. A key's probe starts at the first cell
// of its home bucket, so the common lookup touches one line, and stage 1
// of ProcessBatch reads exactly that cell's first word.
//
//cluevet:padded
type bucket struct{ s [bucketSlots]slot }

const (
	bucketSlots = 4
	// The size and the offset stage 1 relies on, pinned at compile time.
	_ = uint(64 - unsafe.Sizeof(bucket{}))
	_ = uint(unsafe.Sizeof(bucket{}) - 64)
	_ = uint(0 - unsafe.Offsetof(slot{}.key))
)

// Bucket pages: the big-row copy-on-write unit, sized like the ctrie's
// node pages — 64 buckets = 4KiB. A patch clones only the pages it
// writes; at modern scale a length row holds hundreds of thousands of
// entries, and cloning it whole per Apply batch used to dominate update
// visibility. Rows of at most flatRowMax buckets stay one contiguous
// array: the whole-row clone is at most 64KiB there (cheap next to a
// page table walk), and the forwarding probe keeps the single-load
// indexing the ≥5× speedup gate is measured on.
const (
	bpageShift   = 6
	bpageBuckets = 1 << bpageShift
	flatRowMax   = 1 << 10
)

// bpage is one fixed-size bucket page; big rows hold pointers to these
// so the in-page index needs no bounds check and a COW clone is one
// struct copy.
type bpage [bpageBuckets]bucket

// Row fill, in entries per entry-sized slot. A row is compiled at
// fillCompile; a patch that would push it past fillGrowAt rebuilds it at
// fillGrowTo, so a row that keeps growing is rebuilt once per
// fillGrowAt/fillGrowTo = 1.25× of growth, not once per burst. All are
// below 1, which keeps a free cell in every row and so ends every probe.
//
// Chosen from the sweep recorded in EXPERIMENTS.md, "Slot diet". On the
// 1M-prefix IPv4 table 0.75 leaves 87% of entries in their home line
// and 5% more than one line away — shorter probes than the half-empty
// power-of-two rows before it had — at 21.6 slot bytes an entry, 36 for
// the whole snapshot; 0.875 saves 3 more and loses them in scans (80%
// home, 11% far), 0.65 costs 3 and is no faster. fillGrowTo is the
// lowest fill that keeps a freshly rebuilt IPv6 row under 48 bytes an
// entry (TestSlotBudget).
//
// A row small enough to stay contiguous gets fillSmall of each fill —
// half full when compiled. Under 64KiB there is no memory to win, and
// below 0.6 the single-packet Process of a cache-resident table, which
// the ≥5× gate measures, costs what it did on half-empty rows (16.7
// ns); at 0.75 the one probe in eight that leaves its home line, mostly
// mispredicted, adds 2.3 ns.
const (
	fillCompile = 0.75
	fillGrowAt  = 0.85
	fillGrowTo  = 0.68
	fillSmall   = 2.0 / 3
)

// lenTable is the jump-table row for one clue length: an open-addressed
// array of nb buckets (0 when the table holds no clue of this length — a
// guaranteed miss). An entry lives in the first free stride-aligned cell
// at or after the start of its home bucket, wrapping from the last
// bucket to the first; rows never delete (§3.4), so a probe that reaches
// a free cell has seen every place the key could be. nb is whatever the
// fill asks for, not a power of two. Small rows (nb ≤ flatRowMax) live
// in flat; larger rows are chunked into 4KiB pages, `b>>bpageShift`
// picking the page, and are a whole number of pages. Exactly one of
// flat/pages is non-nil for a non-empty row. Readers address buckets;
// the writer addresses cells, cell i being s[i%bucketSlots] of bucket
// i/bucketSlots.
type lenTable struct {
	flat   []bucket
	pages  []*bpage
	nb     uint32 // buckets
	stride uint32 // cells per entry: 1 for IPv4, 2 for IPv6
	used   int    // entries
}

// rowBuckets returns the buckets of a row that holds n entries of stride
// cells each at the given fill: at fillSmall of it while that keeps the
// row contiguous, else at the fill itself and in whole pages.
func rowBuckets(n int, stride uint32, fill float64) uint32 {
	perBucket := float64(bucketSlots/stride) * fill
	if nb := uint32(math.Ceil(float64(n) / (perBucket * fillSmall))); nb <= flatRowMax {
		return nb
	}
	nb := uint32(math.Ceil(float64(n) / perBucket))
	if nb <= flatRowMax {
		return flatRowMax
	}
	return (nb + bpageBuckets - 1) &^ (bpageBuckets - 1)
}

// newRow allocates a row of nb buckets: contiguous up to flatRowMax,
// paged over one contiguous backing array above it (compile-time
// locality); patches re-point individual pages at private copies. The
// allocator's size classes put both on 64-byte boundaries, so a bucket
// is a cache line (TestRowProperties checks).
func newRow(nb, stride uint32) lenTable {
	lt := lenTable{nb: nb, stride: stride}
	switch backing := make([]bucket, nb); {
	case nb == 0:
	case nb <= flatRowMax:
		lt.flat = backing
	default:
		lt.pages = make([]*bpage, nb>>bpageShift)
		for i := range lt.pages {
			lt.pages[i] = (*bpage)(backing[i<<bpageShift:])
		}
	}
	return lt
}

// cells returns the row's size in cells.
func (lt *lenTable) cells() uint32 { return lt.nb * bucketSlots }

// bucket returns bucket b.
func (lt *lenTable) bucket(b uint32) *bucket {
	if lt.flat != nil {
		return &lt.flat[b]
	}
	return &lt.pages[b>>bpageShift][b%bpageBuckets]
}

// at returns cell i.
func (lt *lenTable) at(i uint32) *slot {
	return &lt.bucket(i / bucketSlots).s[i%bucketSlots]
}

// home returns key (kh, kl)'s home bucket, where its probe starts: the
// hash scaled onto the row (multiply-shift: the high word of hash × nb,
// no power of two needed). The row must not be empty.
func (lt *lenTable) home(kh, kl uint64) uint32 {
	b, _ := bits.Mul64(hashKey(kh, kl), uint64(lt.nb))
	return uint32(b)
}

// b2u is a comparison as 0 or 1; it compiles to a flag set, not a branch.
func b2u(b bool) uint32 {
	var r uint32
	if b {
		r = 1
	}
	return r
}

// find is the packet path's probe: it walks the chain from b, the key's
// home bucket, and returns the cell holding key (kh, kl), or a free cell
// of the bucket that ends the chain. (An IPv6 row, two entries to a
// bucket, takes the writer's loop.)
//
// A bucket is compared whole and without branching: m gets a bit per
// cell whose key is k. Which of a line's cells holds the key is a coin
// the branch predictor loses, and one lost toss costs more than the four
// compares; whether the key is in its home line at all is a bet it wins
// nine times in ten. The lowest bit of m is the key's cell: more than
// one is set only when k is zero, which every free cell "holds" too, and
// the lowest is then the entry if the bucket has it (entries fill a
// bucket in order, free cells last) and otherwise a free cell, which
// ends the probe either way.
func (lt *lenTable) find(b uint32, kh, kl uint64) *slot {
	if lt.stride != 1 {
		return lt.at(lt.scan(b, kh, kl))
	}
	for k := uint32(kh >> 32); ; {
		bk := lt.bucket(b)
		if m := b2u(bk.s[0].key == k) + b2u(bk.s[1].key == k)*2 + b2u(bk.s[2].key == k)*4 + b2u(bk.s[3].key == k)*8; m != 0 {
			return &bk.s[bits.TrailingZeros32(m)%bucketSlots]
		}
		if last := &bk.s[bucketSlots-1]; last.flags&slotUsed == 0 {
			return last
		}
		if b++; b == lt.nb {
			b = 0
		}
	}
}

// locate returns the index of the cell holding key (kh, kl), or of the
// first free cell of its chain, where it belongs.
func (lt *lenTable) locate(kh, kl uint64) uint32 { return lt.scan(lt.home(kh, kl), kh, kl) }

// scan is locate from b, the key's home bucket: the writer's probe, one
// cell at a time.
func (lt *lenTable) scan(b uint32, kh, kl uint64) uint32 {
	k, t := uint32(kh>>32), keyTail(kh, kl)
	for i := b * bucketSlots; ; {
		sl := lt.at(i)
		if sl.flags&slotUsed == 0 || (sl.key == k && (lt.stride == 1 || *lt.at(i + 1) == t)) {
			return i
		}
		if i += lt.stride; i == lt.cells() {
			i = 0
		}
	}
}

// put writes entry sl, whose key is (kh, kl), at cell i and in an IPv6
// row the key's tail behind it. The cells must be privately owned:
// compile and growth rebuilds own the whole row, the patch path
// privatizes the page holding i first.
func (lt *lenTable) put(i uint32, sl slot, kh, kl uint64) {
	*lt.at(i) = sl
	if lt.stride == 2 {
		*lt.at(i + 1) = keyTail(kh, kl)
	}
}

// keyAt returns the key of the entry at cell i.
func (lt *lenTable) keyAt(i uint32) (kh, kl uint64) {
	kh = uint64(lt.at(i).key) << 32
	if lt.stride == 2 {
		t := lt.at(i + 1)
		kh |= uint64(t.key)
		kl = uint64(uint32(t.value))<<32 | uint64(uint32(t.aux))
	}
	return kh, kl
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

// hashKey mixes the two key words: the murmur3 finalizer over a golden-
// ratio fold, less its last xor-shift, which only feeds the low bits —
// lenTable.home scales the hash onto the row by its high word.
func hashKey(hi, lo uint64) uint64 {
	x := hi ^ (lo * 0x9E3779B97F4A7C15)
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 29
	x *= 0xC4CEB9FE1A85EC53
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
	// pairs holds both trie handles of the entries that need both
	// (slotPair). It is append-only and its backing is shared down a
	// chain of patched snapshots: a patch writes only past the length
	// every published snapshot reads, and an entry whose handles did not
	// change keeps its pair. pairsDead counts the records no slot points
	// at any more, for the compaction trigger.
	pairs     []auxPair
	pairsDead int
	entries   int
	tel       *telemetry.PacketMetrics // inherited from the master table at Compile
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
		lt := newRow(rowBuckets(len(es), entryCells(s.fam), fillCompile), entryCells(s.fam))
		for _, e := range es {
			kh, kl := e.Clue.Addr().Halves()
			lt.put(lt.locate(kh, kl), s.compileSlot(e, slot{}), kh, kl)
		}
		lt.used = len(es)
		s.lens[l] = lt
		s.entries += len(es)
	}
	return s
}

// compileSlot flattens one exported entry, appending to s.resumes in
// delegate mode and to s.pairs when the entry needs both trie handles.
// old is the cell the entry replaces (zero when it is new): an entry
// whose handles did not change keeps old's pair, so flipping one entry's
// validity any number of times grows nothing. It runs only on snapshots
// still under construction (Compile builds them, patch calls it on the
// fresh copy), never on a published one.
//
//cluevet:ctor
func (s *Snapshot) compileSlot(e core.ExportedEntry, old slot) slot {
	kh, _ := e.Clue.Addr().Halves()
	sl := slot{key: uint32(kh >> 32), aux: -1, fdLen: noFD, flags: slotUsed}
	if e.Valid {
		sl.flags |= slotValid
	}
	if e.FDOK {
		sl.fdLen = uint8(e.FDPrefix.Len())
		sl.value = int32(e.FDValue)
	}
	resume := int32(-1)
	switch {
	case e.Resume == nil:
	case s.flat:
		// The Regular engine resumes at the clue vertex of the live trie;
		// the flat walk starts at the same vertex of the compiled copy.
		// A vertex that is gone leaves nothing below the clue to search.
		if s.compressed {
			resume = s.clocal.find(e.Clue)
		} else {
			resume = s.local.find(e.Clue)
		}
	default:
		resume = int32(len(s.resumes))
		s.resumes = append(s.resumes, e.Resume)
	}
	if resume < 0 {
		sl.flags |= slotFinal
	}
	sender := int32(-1)
	if s.verify {
		marked := false
		if s.compressed {
			sender = s.csender.find(e.Clue)
			marked = s.csender.markedOf(sender, e.Clue)
		} else if sender = s.sender.find(e.Clue); sender >= 0 {
			marked = s.sender.node(uint32(sender)).meta&fMarked != 0
		}
		if marked {
			sl.flags |= slotSenderMarked
		} else {
			sender = -1 // an unmarked clue is refuted before any walk
		}
	}
	switch {
	case resume < 0:
		sl.aux = sender
	case sender < 0:
		sl.aux = resume
	default:
		sl.flags |= slotPair
		if pair := (auxPair{resume, sender}); old.flags&slotPair == 0 || s.pairs[old.aux] != pair {
			sl.aux = int32(len(s.pairs))
			s.pairs = append(s.pairs, pair)
			break
		}
		sl.aux = old.aux
		return sl
	}
	if old.flags&slotPair != 0 {
		s.pairsDead++ // old's record is abandoned
	}
	return sl
}

// resumeAt returns the restricted-search start of a non-final entry.
func (s *Snapshot) resumeAt(sl *slot) int32 {
	if sl.flags&slotPair != 0 {
		return s.pairs[sl.aux].resume
	}
	return sl.aux
}

// senderAt returns the sender-trie vertex of a marked clue's entry.
func (s *Snapshot) senderAt(sl *slot) int32 {
	if sl.flags&slotPair != 0 {
		return s.pairs[sl.aux].sender
	}
	return sl.aux
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
	SlotCapacity    int // entries the allocated buckets can hold (16 B each for IPv4, 32 B for IPv6); fill = Entries/SlotCapacity
	SlotBytes       int // clue slot tables: every row's buckets and page table, plus the handle-pair side array (live and dead)
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
	m.SlotBytes = len(s.pairs) * int(unsafe.Sizeof(auxPair{}))
	for _, lt := range s.lens {
		m.SlotCapacity += int(lt.cells() / entryCells(s.fam))
		m.SlotBytes += int(lt.nb)*int(unsafe.Sizeof(bucket{})) + len(lt.pages)*8 // buckets plus the page table
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
	if lt.nb == 0 {
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
		if sl.fdLen == noFD {
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
	if sl.fdLen == noFD {
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
			l, v, ok = s.clocal.lookupFrom(uint32(s.resumeAt(sl)), clueLen, dest, cnt)
		} else {
			l, v, ok = s.local.lookupFrom(uint32(s.resumeAt(sl)), clueLen, dest, cnt)
		}
		return sl.searched(dest, l, v, ok)
	}
	if p, v, ok := s.resumes[s.resumeAt(sl)].Lookup(dest, cnt); ok {
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
		l, _, ok = s.csender.lookupFrom(uint32(s.senderAt(sl)), clueLen, dest, cnt)
	} else {
		l, _, ok = s.sender.lookupFrom(uint32(s.senderAt(sl)), clueLen, dest, cnt)
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
// 4KiB page holding e's cells (tracked by ps), every other page staying
// shared with the published snapshot. Rows never shrink, so the hash
// layout stays stable for every untouched entry (mirroring §3.4's
// "never remove clues" guidance) and only growth rehashes — a private
// rebuild of the whole row, amortized by the fillGrowAt/fillGrowTo gap.
//
//cluevet:ctor - operates on the fresh copy before publication
func (ns *Snapshot) reslot(e core.ExportedEntry, ps *patchSession) {
	l := e.Clue.Len()
	lt := ns.lens[l]
	kh, kl := e.Clue.Addr().Halves()
	stride := entryCells(ns.fam)
	var i uint32
	var old slot
	if lt.nb != 0 {
		i = lt.locate(kh, kl)
		old = *lt.at(i)
	}
	replacing := old.flags&slotUsed != 0
	used := lt.used
	if !replacing {
		used++
	}
	if rowBuckets(used, stride, fillGrowAt) > lt.nb {
		// Growth: rebuild the row privately with a rehash (this is also
		// where a row crosses flatRowMax and switches representation).
		nr := newRow(rowBuckets(used, stride, fillGrowTo), stride)
		for j := uint32(0); j < lt.cells(); j += lt.stride {
			if sl := lt.at(j); sl.flags&slotUsed != 0 {
				okh, okl := lt.keyAt(j)
				nr.put(nr.locate(okh, okl), *sl, okh, okl)
			}
		}
		lt, i = nr, nr.locate(kh, kl)
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
			lt.flat = append([]bucket(nil), lt.flat...)
		} else {
			lt.pages = append([]*bpage(nil), lt.pages...)
			ps.pages[l] = make([]bool, len(lt.pages))
		}
	}
	if lt.pages != nil {
		if pg := i / bucketSlots >> bpageShift; !ps.pages[l][pg] {
			cp := *lt.pages[pg]
			lt.pages[pg] = &cp
			ps.pages[l][pg] = true
		}
	}
	lt.put(i, ns.compileSlot(e, old), kh, kl)
	lt.used = used
	ns.lens[l] = lt
	if !replacing {
		ns.entries++
	}
}
