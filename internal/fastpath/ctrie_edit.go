package fastpath

import (
	"math/bits"

	"repro/internal/ip"
)

// ctrieEdit applies route-shaped edits to a ctrie copy-on-write, the
// compressed counterpart of flatEdit: the page-table backing is replaced
// up front, each 4 KiB node page is cloned at most once (the first time
// a write lands on it), and pages never written stay shared with the
// published snapshot. Edits mirror trie.Insert / trie.Delete vertex for
// vertex — every path vertex created, every unmarked childless vertex
// pruned — which the packed layout expresses arithmetically: internal
// vertices (relative depths 1..5) exist exactly when subtreeNonempty
// says so, so keeping the bitmaps exact keeps the patched ctrie
// walk-identical (hence charge-identical) to recompiling the mutated
// pointer trie.
//
// Three packed-layout structures need surgery a flat edit never does:
//
//   - Child runs: a node's children are popcount-indexed and contiguous,
//     so adding or removing a middle child relocates the siblings to a
//     fresh run at the node tail. Every vertex of a moved node is
//     reported in reloc so the RCU writer re-slots the clue entries
//     whose cached handles named it.
//   - Value runs: a node's values are a contiguous popcount-indexed run
//     too, and the backing arrays are shared with the published
//     snapshot, so any value change rewrites the node's whole run at the
//     values tail (runs are a handful of entries; the old run becomes
//     vdead slots for the compaction trigger).
//   - The next-hop dictionary: new values append copy-on-write (the
//     published snapshot's length never covers them). A batch that would
//     push the dictionary past 16-bit indices sets full and the session
//     aborts — the caller discards the half-edited copy and degrades to
//     a recompile, which re-decides the wide layout.
//
// Dual storage is preserved: a boundary vertex that is both marked and
// owns a subtree keeps its value in the parent's marksHi run AND as the
// child's root value, so marking or unmarking such a vertex edits both
// runs, and folding either representation away keeps the other.
//
// Shared-backing safety: all writes to live node slots go through mut
// (page clones); values/dict/wide only ever append past the published
// snapshot's length, which no published reader indexes. An aborted
// session therefore leaves nothing but unreachable tail garbage, which
// the next session overwrites.
type ctrieEdit struct {
	ct    *ctrie
	owned []bool      // pages cloned (or freshly grown) this session
	reloc []ip.Prefix // prefixes of vertices whose find handles went stale
	work  int         // node slots written or relocated (the batch budget)
	full  bool        // 16-bit dictionary overflow: session must degrade

	dictIdx map[int32]uint16 // lazy value→index map over ct.dict
}

// cedit opens a copy-on-write session on ct, which must belong to a
// snapshot still under construction, never to the published copy.
func cedit(ct *ctrie) *ctrieEdit {
	ct.pages = append([]*cpage(nil), ct.pages...)
	return &ctrieEdit{ct: ct, owned: make([]bool, len(ct.pages))}
}

// mut returns a writable pointer to node i, cloning its page on the
// first touch.
func (ed *ctrieEdit) mut(i uint32) *cnode {
	pi := int(i >> cpageShift)
	if !ed.owned[pi] {
		cp := *ed.ct.pages[pi]
		ed.ct.pages[pi] = &cp
		ed.owned[pi] = true
	}
	return &ed.ct.pages[pi][i&cpageMask]
}

// grow appends k node slots; pages created by the growth are fresh,
// hence owned. Slots that land in the shared tail page are cloned by
// mut before anything is written, and callers assign grown slots whole.
func (ed *ctrieEdit) grow(k int) uint32 {
	base := ed.ct.grow(k)
	for len(ed.owned) < len(ed.ct.pages) {
		ed.owned = append(ed.owned, true)
	}
	return base
}

// encode returns the dictionary index for v, appending it copy-on-write
// on first use. False means the dictionary cannot fit another value and
// the session must degrade.
func (ed *ctrieEdit) encode(v int32) (uint16, bool) {
	if ed.full {
		return 0, false
	}
	ct := ed.ct
	if ed.dictIdx == nil {
		ed.dictIdx = make(map[int32]uint16, len(ct.dict)+8)
		for i, dv := range ct.dict {
			ed.dictIdx[dv] = uint16(i)
		}
	}
	if i, ok := ed.dictIdx[v]; ok {
		return i, true
	}
	if len(ct.dict) >= 1<<16 {
		ed.full = true
		return 0, false
	}
	i := uint16(len(ct.dict))
	ct.dict = append(ct.dict, v)
	ed.dictIdx[v] = i
	return i, true
}

// runLen is the node's value-run length: root value plus one per
// internal and boundary mark.
func runLen(n *cnode) int {
	return int(n.marksLo>>63) + bits.OnesCount64(n.marksLo&cHeapMask) + bits.OnesCount64(n.marksHi)
}

// splice rewrites m's value run as old[:rank] + (v when ins) +
// old[rank+drop:], appending the new run at the values tail and
// abandoning the old one. oldLen and rank are computed against the run
// BEFORE any mark bits changed. False means dictionary overflow.
func (ed *ctrieEdit) splice(m *cnode, rank, oldLen, drop int, ins bool, v int32) bool {
	ct := ed.ct
	ob := m.valueBase
	if ct.wide != nil {
		nb := uint32(len(ct.wide))
		ct.wide = append(ct.wide, ct.wide[ob:ob+uint32(rank)]...)
		if ins {
			ct.wide = append(ct.wide, v)
		}
		ct.wide = append(ct.wide, ct.wide[ob+uint32(rank+drop):ob+uint32(oldLen)]...)
		m.valueBase = nb
	} else {
		var iv uint16
		if ins {
			var ok bool
			if iv, ok = ed.encode(v); !ok {
				return false
			}
		}
		nb := uint32(len(ct.values))
		ct.values = append(ct.values, ct.values[ob:ob+uint32(rank)]...)
		if ins {
			ct.values = append(ct.values, iv)
		}
		ct.values = append(ct.values, ct.values[ob+uint32(rank+drop):ob+uint32(oldLen)]...)
		m.valueBase = nb
	}
	ct.vdead += oldLen
	return true
}

// extendPrefix extends base by the low j bits of v — the prefix of the
// vertex reached from base's vertex along that path.
func extendPrefix(base ip.Prefix, v uint32, j int) ip.Prefix {
	a := base.Addr()
	d := base.Len()
	for k := 0; k < j; k++ {
		a = a.WithBit(d+k, byte(v>>uint(j-1-k)&1))
	}
	return ip.PrefixFrom(a, d+j)
}

// relocNode reports every vertex whose find handle names node ni — its
// root, every existing internal vertex, and its leaf-pushed boundary
// marks (boundary vertices with a subtree resolve to the child node's
// index instead, which did not move). base is ni's root prefix.
func (ed *ctrieEdit) relocNode(ni uint32, base ip.Prefix) {
	ct := ed.ct
	n := ct.node(ni)
	d := base.Len()
	span := minInt(6, ct.width-d)
	ed.reloc = append(ed.reloc, base)
	top := minInt(span, 5)
	for j := 1; j <= top; j++ {
		for p := uint32(0); p < 1<<uint(j); p++ {
			if subtreeNonempty(n, p, j, span) {
				ed.reloc = append(ed.reloc, extendPrefix(base, p, j))
			}
		}
	}
	if span == 6 {
		for lp := n.marksHi &^ n.subs; lp != 0; lp &= lp - 1 {
			ed.reloc = append(ed.reloc, extendPrefix(base, uint32(bits.TrailingZeros64(lp)), 6))
		}
	}
}

// insert mirrors trie.Insert: create every missing vertex along p's
// path, mark the endpoint and set its payload (overwriting if already
// present). False means the session hit the dictionary limit and must
// degrade; the half-edited copy is discarded by the caller, so no
// cleanup happens here.
func (ed *ctrieEdit) insert(p ip.Prefix, v int32) bool {
	ct := ed.ct
	if ed.full {
		return false
	}
	if ct.n == 0 {
		*ed.mut(ed.grow(1)) = cnode{} // the root node: unmarked, childless
	}
	hi, lo := p.Addr().Halves()
	L := p.Len()
	ni := uint32(0)
	D := 0
	for {
		rem := L - D
		span := minInt(6, ct.width-D)
		if rem == 0 {
			// Only the trie root reaches here (L == 0): deeper node roots
			// are handled as their parent's boundary chunk below.
			return ed.setRoot(ni, v)
		}
		if rem < 6 || span < 6 {
			return ed.setLo(ni, heapBit(rem, extract(hi, lo, D, rem)), v)
		}
		c := extract(hi, lo, D, 6)
		if rem == 6 {
			return ed.setHi(ni, c, v)
		}
		n := *ct.node(ni) // copy: mut below may clone the page under it
		if n.subs&(uint64(1)<<c) == 0 {
			ni = ed.addChild(ni, c, ip.PrefixFrom(p.Addr(), D))
			if ed.full {
				return false
			}
		} else {
			ni = n.child(c)
		}
		D += 6
	}
}

// setRoot marks node ni's root vertex with value v.
func (ed *ctrieEdit) setRoot(ni uint32, v int32) bool {
	n := *ed.ct.node(ni)
	if n.marksLo&cRootMark != 0 {
		if ed.ct.val(n.valueBase) == v {
			return true
		}
		return ed.splice(ed.mut(ni), 0, runLen(&n), 1, true, v)
	}
	m := ed.mut(ni)
	m.marksLo |= cRootMark
	ed.ct.marks++
	ed.work++
	return ed.splice(m, 0, runLen(&n), 0, true, v)
}

// setLo marks the internal vertex at marksLo bit hb of node ni.
func (ed *ctrieEdit) setLo(ni uint32, hb uint, v int32) bool {
	n := *ed.ct.node(ni)
	rank := rankLo(&n, hb)
	if n.marksLo&(uint64(1)<<hb) != 0 {
		if ed.ct.val(n.valueBase+uint32(rank)) == v {
			return true
		}
		return ed.splice(ed.mut(ni), rank, runLen(&n), 1, true, v)
	}
	m := ed.mut(ni)
	m.marksLo |= uint64(1) << hb
	ed.ct.marks++
	ed.work++
	return ed.splice(m, rank, runLen(&n), 0, true, v)
}

// setHi marks the boundary vertex below chunk value c of node ni,
// keeping the dual-stored child root value in sync when the boundary
// owns a subtree.
func (ed *ctrieEdit) setHi(ni uint32, c uint32, v int32) bool {
	ct := ed.ct
	n := *ct.node(ni)
	bit := uint64(1) << c
	rank := rankHi(&n, c)
	if n.marksHi&bit != 0 {
		if ct.val(n.valueBase+uint32(rank)) != v {
			if !ed.splice(ed.mut(ni), rank, runLen(&n), 1, true, v) {
				return false
			}
		}
		if n.subs&bit != 0 {
			ci := n.child(c)
			cn := *ct.node(ci)
			if ct.val(cn.valueBase) != v {
				return ed.splice(ed.mut(ci), 0, runLen(&cn), 1, true, v)
			}
		}
		return true
	}
	m := ed.mut(ni)
	m.marksHi |= bit
	ct.marks++
	ed.work++
	if !ed.splice(m, rank, runLen(&n), 0, true, v) {
		return false
	}
	if n.subs&bit != 0 {
		// Newly marked boundary that already owns a subtree: dual-store
		// the mark as the child's root so either walk direction sees it.
		ci := n.child(c)
		cn := *ct.node(ci)
		mc := ed.mut(ci)
		mc.marksLo |= cRootMark
		return ed.splice(mc, 0, runLen(&cn), 0, true, v)
	}
	return true
}

// addChild gives node ni a child below chunk value c and returns the
// child's index. The sibling run relocates to a fresh contiguous run at
// the node tail (children are popcount-indexed), which renumbers every
// vertex of every existing child — all reported via relocNode. A marked
// boundary gaining a subtree also changes handle form (leaf-pushed →
// child index) and dual-stores its value as the new child's root.
// base is ni's root prefix.
func (ed *ctrieEdit) addChild(ni uint32, c uint32, base ip.Prefix) uint32 {
	ct := ed.ct
	n := *ct.node(ni)
	k := bits.OnesCount64(n.subs)
	r := bits.OnesCount64(n.subs & (uint64(1)<<c - 1))
	nb := ed.grow(k + 1)
	for i := 0; i < k; i++ {
		j := i
		if i >= r {
			j = i + 1
		}
		*ed.mut(nb + uint32(j)) = *ct.node(n.childBase + uint32(i))
	}
	ci := nb + uint32(r)
	*ed.mut(ci) = cnode{}
	if n.marksHi&(uint64(1)<<c) != 0 {
		v := ct.val(n.valueBase + uint32(rankHi(&n, c)))
		mc := ed.mut(ci)
		mc.marksLo = cRootMark
		ed.splice(mc, 0, 0, 0, true, v)
		ed.reloc = append(ed.reloc, extendPrefix(base, c, 6))
	}
	m := ed.mut(ni)
	m.childBase = nb
	m.subs |= uint64(1) << c
	ct.dead += k
	ed.work += k + 1
	for i, j, s := 0, 0, n.subs; s != 0; i++ {
		cc := uint32(bits.TrailingZeros64(s))
		s &= s - 1
		if i >= r {
			j = i + 1
		} else {
			j = i
		}
		ed.relocNode(nb+uint32(j), extendPrefix(base, cc, 6))
	}
	return ci
}

// remove mirrors trie.Delete: unmark p's vertex and fold away every
// node left without content strictly below its root, bottom-up along
// the descent — a bare dual-stored root mark folds into the parent's
// marksHi run, which already holds it. It reports whether p was
// present.
func (ed *ctrieEdit) remove(p ip.Prefix) bool {
	ct := ed.ct
	if ed.full || ct.n == 0 {
		return false
	}
	hi, lo := p.Addr().Halves()
	L := p.Len()
	var nis, cs [22]uint32 // descent path: width 128 → at most 22 levels
	depth := 0
	ni := uint32(0)
	D := 0
descend:
	for {
		rem := L - D
		span := minInt(6, ct.width-D)
		n := *ct.node(ni)
		switch {
		case rem == 0: // only the trie root (L == 0)
			if n.marksLo&cRootMark == 0 {
				return false
			}
			m := ed.mut(ni)
			m.marksLo &^= cRootMark
			ed.splice(m, 0, runLen(&n), 1, false, 0)
			ed.work++
			break descend
		case rem < 6 || span < 6:
			hb := heapBit(rem, extract(hi, lo, D, rem))
			if n.marksLo&(uint64(1)<<hb) == 0 {
				return false
			}
			m := ed.mut(ni)
			m.marksLo &^= uint64(1) << hb
			ed.splice(m, rankLo(&n, hb), runLen(&n), 1, false, 0)
			ed.work++
			break descend
		}
		c := extract(hi, lo, D, 6)
		if rem == 6 {
			if n.marksHi&(uint64(1)<<c) == 0 {
				return false
			}
			ed.clearHi(ni, c, ip.PrefixFrom(p.Addr(), D))
			break descend
		}
		if n.subs&(uint64(1)<<c) == 0 {
			return false
		}
		nis[depth] = ni
		cs[depth] = c
		depth++
		ni = n.child(c)
		D += 6
	}
	ct.marks--
	// Prune bottom-up along the descent, exactly where trie.Delete
	// prunes unmarked childless vertices: a node with nothing strictly
	// below its root folds away (its root vertex either vanishes with
	// it or survives leaf-pushed in the parent, where dual storage
	// already keeps the mark and value).
	for {
		n := *ct.node(ni)
		if (n.marksLo&cHeapMask)|n.marksHi|n.subs != 0 {
			break
		}
		if depth == 0 {
			if n.marksLo == 0 {
				// The root node emptied: drop the whole trie, like
				// trie.Delete nilling its root.
				ct.pages, ed.owned, ct.n, ct.dead = nil, nil, 0, 0
				ct.values, ct.wide, ct.vdead = nil, nil, 0
			}
			break
		}
		depth--
		ct.dead++
		ct.vdead += runLen(&n) // at most the dual-stored root value
		ed.removeChild(nis[depth], cs[depth], ip.PrefixFrom(p.Addr(), depth*6))
		ni = nis[depth]
	}
	return true
}

// clearHi unmarks the boundary vertex below chunk value c of node ni
// (base: ni's root prefix), removing the dual-stored child root value
// too; a child left empty by that folds away immediately (it is one
// level below the caller's bottom-up prune path).
func (ed *ctrieEdit) clearHi(ni uint32, c uint32, base ip.Prefix) {
	ct := ed.ct
	n := *ct.node(ni)
	bit := uint64(1) << c
	m := ed.mut(ni)
	m.marksHi &^= bit
	ed.splice(m, rankHi(&n, c), runLen(&n), 1, false, 0)
	ed.work++
	if n.subs&bit == 0 {
		return
	}
	ci := n.child(c)
	cn := *ct.node(ci)
	mc := ed.mut(ci)
	mc.marksLo &^= cRootMark
	ed.splice(mc, 0, runLen(&cn), 1, false, 0)
	if (cn.marksLo&cHeapMask)|cn.marksHi|cn.subs == 0 {
		ct.dead++
		ed.removeChild(ni, c, base)
	}
}

// removeChild detaches the (now empty) child below chunk value c from
// node ni, keeping the sibling run contiguous: edge ranks shrink in
// place, a middle rank relocates the survivors to a fresh run (every
// vertex of every survivor renumbers — reported via relocNode). When
// the boundary vertex stays marked its handle flips back to the
// leaf-pushed form, which is reported too. base is ni's root prefix.
func (ed *ctrieEdit) removeChild(ni uint32, c uint32, base ip.Prefix) {
	ct := ed.ct
	n := *ct.node(ni)
	k := bits.OnesCount64(n.subs)
	r := bits.OnesCount64(n.subs & (uint64(1)<<c - 1))
	m := ed.mut(ni)
	m.subs &^= uint64(1) << c
	ed.work++
	switch {
	case k == 1:
		// Only child: the run vanishes; childBase is never read again.
	case r == 0:
		// The survivors keep their slots; the base advances past the
		// hole so popcount ranks land on them.
		m.childBase++
		ct.dead++
	case r == k-1:
		// The run shrinks from the top in place; the top slot dies.
		ct.dead++
	default:
		nb := ed.grow(k - 1)
		for i, j := 0, 0; i < k; i++ {
			if i == r {
				continue
			}
			*ed.mut(nb + uint32(j)) = *ct.node(n.childBase + uint32(i))
			j++
		}
		m.childBase = nb
		ct.dead += k - 1
		ed.work += k - 1
		for i, j, s := 0, 0, n.subs; s != 0; i++ {
			cc := uint32(bits.TrailingZeros64(s))
			s &= s - 1
			if i == r {
				continue
			}
			ed.relocNode(nb+uint32(j), extendPrefix(base, cc, 6))
			j++
		}
	}
	if m.marksHi&(uint64(1)<<c) != 0 {
		ed.reloc = append(ed.reloc, extendPrefix(base, c, 6))
	}
}

// wantCompact reports whether dead node or value slots have outgrown
// the live data — the edit path's garbage is due for a fold-away
// recompile.
func (ct *ctrie) wantCompact() bool {
	return 2*ct.dead > ct.n-ct.dead ||
		2*ct.vdead > len(ct.values)+len(ct.wide)-ct.vdead
}
