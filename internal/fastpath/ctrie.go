package fastpath

import (
	"math/bits"

	"repro/internal/ip"
	"repro/internal/mem"
	"repro/internal/trie"
)

// ctrie is the entropy-compressed compilation of a binary prefix trie,
// built for modern-scale tables (~1M IPv4 prefixes) where the flatTrie's
// 12-bytes-per-binary-vertex layout blows the last-level cache. It is a
// level-compressed multibit trie with stride 6: one packed node covers a
// full 6-level binary subtree (62 internal vertices plus 64 boundary
// vertices), so the million-route case needs hundreds of thousands of
// nodes instead of millions of binary vertices. The techniques are the
// ones from the FIB-compression literature (arXiv:1402.1194): leaf
// pushing (a marked boundary vertex with no subtree is folded into its
// parent's bitmap instead of costing a node), popcount-indexed child and
// value arrays (no per-child pointers), and a next-hop dictionary
// (values stored as 16-bit indices into the table's small set of
// distinct next hops whenever that set fits).
//
// Both IPv4 (width 32 = 6·5+2) and IPv6 (width 128 = 6·21+2) are ≡ 2
// (mod 6), so the deepest node layer spans only two relative levels; the
// same bitmaps simply stay mostly empty there.
//
// The contract inherited from flatTrie is exact charge identity with the
// binary walk: a lookup that starts at depth d0 and would terminate at
// binary depth e charges e−d0+1 references — one per binary vertex on
// the path, including the start vertex — even though the compressed walk
// touches only ⌈(e−d0)/6⌉+1 nodes. The termination depth is recomputed
// arithmetically from the node bitmaps (see deepestVertexOnPath), which
// encode exactly which binary vertices exist. An empty ctrie reports no
// match at zero charge, like an empty flatTrie.
//
// Within a node, binary vertices at relative depths 1..5 are addressed
// heap-style in marksLo: the vertex reached by the j-bit path value p
// (relative depth j) is bit (1<<j)−2+p, so depth 1 occupies bits 0–1,
// depth 2 bits 2–5, … depth 5 bits 30–61. Bit 63 marks the node's own
// root vertex (relative depth 0). marksHi has one bit per 6-bit chunk
// value c: the boundary vertex at relative depth 6 below path c is
// marked. subs has the same indexing and records which boundary
// vertices own a child node (a real subtree below the boundary); a
// vertex may have both bits set, in which case its value is stored
// twice — once in this node's run and once as the child's root value —
// so neither walk direction needs the other's node.
type ctrie struct {
	pages  []*cpage
	n      int      // node slots allocated (append order; includes dead slots)
	dead   int      // abandoned node slots: relocated child runs and pruned nodes
	vdead  int      // abandoned value slots: relocated value runs
	values []uint16 // per-mark dictionary indices, in node/value-run order
	dict   []int32  // distinct next-hop values, first-occurrence order
	wide   []int32  // direct values when >65536 distinct next hops
	width  int      // address width in bits (32 or 128)
	marks  int      // marked binary vertices (== prefix count)
}

// Page geometry: 128 nodes × 32 B = 4 KiB per page. Pages are the
// copy-on-write unit of the incremental edit path (ctrieEdit), exactly
// like flatTrie's: an Apply batch clones only the pages it writes,
// leaving the rest shared with the published snapshot. The inner index
// is masked, so a walk pays one bounds check per node (the page table).
const (
	cpageShift = 7
	cpageSize  = 1 << cpageShift
	cpageMask  = cpageSize - 1
)

// cpage is one copy-on-write unit of packed nodes.
type cpage [cpageSize]cnode

// node returns the packed node at index i.
//
//cluevet:hotpath
func (ct *ctrie) node(i uint32) *cnode {
	return &ct.pages[i>>cpageShift][i&cpageMask]
}

// grow appends k node slots (adding pages as needed) and returns the
// index of the first.
func (ct *ctrie) grow(k int) uint32 {
	base := ct.n
	ct.n += k
	for ct.n > len(ct.pages)*cpageSize {
		ct.pages = append(ct.pages, new(cpage))
	}
	return uint32(base)
}

// cnode is one stride-6 node of the compressed trie: 32 bytes, two per
// 64-byte cache line, with the three bitmaps a lookup reads first
// co-located at the front of the struct. Children are stored
// contiguously starting at childBase (chunk-value order, popcount
// indexed); the node's value run starts at valueBase and holds, in
// order, the root value (if marked), the marksLo values in ascending
// bit order, then the marksHi values in ascending chunk order.
//
//cluevet:padded
type cnode struct {
	marksLo   uint64 // bit 63: root vertex marked; bits 0..61: heap-indexed marks, relative depths 1..5
	marksHi   uint64 // bit c: boundary vertex (relative depth 6) below chunk value c is marked
	subs      uint64 // bit c: boundary vertex below chunk value c has a child node
	childBase uint32 // index of first child in nodes
	valueBase uint32 // index of first value in values/wide
}

const (
	cnodeBytes = 32
	cRootMark  = uint64(1) << 63
	cHeapMask  = uint64(1)<<62 - 1

	// cBoundary flags a find() handle that names a leaf-pushed boundary
	// vertex: the low bits index the *parent* node and the vertex itself
	// exists only as a marksHi bit. Fits int32 alongside node indices.
	cBoundary = uint32(1) << 30
)

// extract returns the n-bit (n ≤ 6) chunk of the left-aligned address
// (hi, lo) starting at bit position d. Callers guarantee d+n ≤ 128.
func extract(hi, lo uint64, d, n int) uint32 {
	s := 128 - d - n
	var v uint64
	switch {
	case s >= 64:
		v = hi >> (s - 64)
	case s > 0:
		v = hi<<(64-s) | lo>>s
	default:
		v = lo
	}
	return uint32(v) & (1<<n - 1)
}

// heapBit returns the marksLo bit index of the internal vertex at
// relative depth j (1 ≤ j ≤ 5) reached by the j-bit path value p.
func heapBit(j int, p uint32) uint {
	return uint(1)<<j - 2 + uint(p)
}

// val decodes the i-th stored value.
func (ct *ctrie) val(i uint32) int32 {
	if ct.wide != nil {
		return ct.wide[i]
	}
	return ct.dict[ct.values[i]]
}

// rankLo is the position in n's value run of the internal mark at
// marksLo bit hb.
func rankLo(n *cnode, hb uint) int {
	return int(n.marksLo>>63) + bits.OnesCount64(n.marksLo&cHeapMask&(uint64(1)<<hb-1))
}

// rankHi is the position in n's value run of the boundary mark below
// chunk value c.
func rankHi(n *cnode, c uint32) int {
	return int(n.marksLo>>63) + bits.OnesCount64(n.marksLo&cHeapMask) +
		bits.OnesCount64(n.marksHi&(uint64(1)<<c-1))
}

// child returns the node index of the child below chunk value c; the
// caller has checked the subs bit.
func (n *cnode) child(c uint32) uint32 {
	return n.childBase + uint32(bits.OnesCount64(n.subs&(uint64(1)<<c-1)))
}

// subtreeNonempty reports whether the binary vertex at relative depth j
// (1 ≤ j ≤ 5), path value p, exists in node n: it is marked, or some
// deeper internal mark lies under it, or a boundary vertex (pushed mark
// or child subtree) lies under it. span is the node's chunk width
// (6, or width−D at the bottom of the address space).
func subtreeNonempty(n *cnode, p uint32, j, span int) bool {
	if n.marksLo&(uint64(1)<<heapBit(j, p)) != 0 {
		return true
	}
	top := span
	if top > 5 {
		top = 5
	}
	for j2 := j + 1; j2 <= top; j2++ {
		w := uint(j2 - j)
		m := (uint64(1)<<(1<<w) - 1) << heapBit(j2, p<<w)
		if n.marksLo&m != 0 {
			return true
		}
	}
	if span == 6 {
		w := uint(6 - j)
		m := (uint64(1)<<(1<<w) - 1) << (uint(p) << w)
		if (n.marksHi|n.subs)&m != 0 {
			return true
		}
	}
	return false
}

// deepestVertexOnPath returns the largest relative depth (0..span) at
// which a binary vertex exists along the span-bit path c through node
// n. Relative depth 0 (the node's own root vertex) always exists, so
// the result is ≥ 0 and the caller can charge depth arithmetic on it.
func deepestVertexOnPath(n *cnode, c uint32, span int) int {
	if span == 6 && (n.marksHi|n.subs)&(uint64(1)<<c) != 0 {
		return 6
	}
	top := span
	if top > 5 {
		top = 5
	}
	for j := top; j >= 1; j-- {
		if subtreeNonempty(n, c>>(span-j), j, span) {
			return j
		}
	}
	return 0
}

// deepestLoMark returns the deepest internal mark along path c at
// relative depths [minRel, maxRel] of node n, with its marksLo bit.
func deepestLoMark(n *cnode, c uint32, span, minRel, maxRel int) (int, uint, bool) {
	for j := maxRel; j >= minRel; j-- {
		hb := heapBit(j, c>>(span-j))
		if n.marksLo&(uint64(1)<<hb) != 0 {
			return j, hb, true
		}
	}
	return 0, 0, false
}

// compileCTrie lays t out as a compressed multibit trie. Nodes are
// emitted in BFS order over stride boundaries, so — like flatTrie — the
// top of the trie occupies one dense run of cache lines. Runs in O(N)
// over the binary vertices.
func compileCTrie(t *trie.Trie) ctrie {
	ct := ctrie{width: t.Family().Width()}
	root := t.Root()
	if root == nil {
		return ct
	}
	// First pass stores values directly; a dictionary is cut over at the
	// end if the distinct set fits 16-bit indices.
	var vals []int32
	type lv struct {
		n *trie.Node
		p uint32
	}
	var cur, next []lv
	queue := []*trie.Node{root}
	for qi := 0; qi < len(queue); qi++ {
		sn := queue[qi]
		D := sn.Prefix().Len()
		span := ct.width - D
		if span > 6 {
			span = 6
		}
		nd := cnode{valueBase: uint32(len(vals))}
		if sn.Marked() {
			nd.marksLo |= cRootMark
			vals = append(vals, int32(sn.Value()))
			if qi == 0 {
				// Deeper node roots were already counted as their
				// parent's marksHi bit; only the trie root is new.
				ct.marks++
			}
		}
		cur = append(cur[:0], lv{sn, 0})
		for j := 1; j <= span; j++ {
			next = next[:0]
			for _, e := range cur {
				for b := byte(0); b < 2; b++ {
					c := e.n.Child(b)
					if c == nil {
						continue
					}
					p := e.p<<1 | uint32(b)
					if j < 6 {
						if c.Marked() {
							nd.marksLo |= uint64(1) << heapBit(j, p)
							vals = append(vals, int32(c.Value()))
							ct.marks++
						}
						next = append(next, lv{c, p})
						continue
					}
					// Boundary level: marks are leaf-pushed into this
					// node; real subtrees become child nodes (below).
					if c.Marked() {
						nd.marksHi |= uint64(1) << p
						ct.marks++
					}
					next = append(next, lv{c, p})
				}
			}
			cur, next = next, cur
		}
		if span == 6 {
			// cur now holds the boundary vertices in ascending chunk
			// order; append marksHi values (after all marksLo values, as
			// the value-run order requires) and enqueue child subtrees.
			nd.childBase = uint32(len(queue))
			for _, e := range cur {
				if e.n.Marked() {
					vals = append(vals, int32(e.n.Value()))
				}
				if e.n.HasChildren() {
					nd.subs |= uint64(1) << e.p
					queue = append(queue, e.n)
				}
			}
		}
		*ct.node(ct.grow(1)) = nd // BFS order: node index == queue index qi
	}
	ct.wide = vals
	// Dictionary cutover: if the distinct next-hop set fits uint16,
	// store 2-byte indices plus a small dictionary instead of 4-byte
	// values. First-occurrence order keeps compilation deterministic.
	idx := make(map[int32]uint16, 64)
	for _, v := range vals {
		if _, ok := idx[v]; !ok {
			if len(idx) == 1<<16 {
				return ct
			}
			idx[v] = uint16(len(idx))
		}
	}
	ct.dict = make([]int32, len(idx))
	for v, i := range idx {
		ct.dict[i] = v
	}
	ct.values = make([]uint16, len(vals))
	for i, v := range vals {
		ct.values[i] = idx[v]
	}
	ct.wide = nil
	return ct
}

// find locates the binary vertex for prefix p and returns a handle
// usable as a lookupFrom start: the node index whose root is the
// vertex, or nodeIdx|cBoundary when the vertex is a leaf-pushed
// boundary mark of node nodeIdx, or −1 if the vertex does not exist.
// Mirrors flatTrie.find / trie.Find.
func (ct *ctrie) find(p ip.Prefix) int32 {
	if ct.n == 0 {
		return -1
	}
	hi, lo := p.Addr().Halves()
	L := p.Len()
	ni := uint32(0)
	D := 0
	for {
		n := ct.node(ni)
		rem := L - D
		if rem == 0 {
			return int32(ni)
		}
		if rem < 6 {
			if subtreeNonempty(n, extract(hi, lo, D, rem), rem, minInt(6, ct.width-D)) {
				return int32(ni)
			}
			return -1
		}
		c := extract(hi, lo, D, 6)
		if n.subs&(uint64(1)<<c) != 0 {
			ci := n.child(c)
			if rem == 6 {
				return int32(ci)
			}
			ni = ci
			D += 6
			continue
		}
		if rem == 6 && n.marksHi&(uint64(1)<<c) != 0 {
			return int32(ni) | int32(cBoundary)
		}
		return -1
	}
}

// markedOf reports whether the vertex named by a find handle h for
// prefix p is marked (mirrors trie.Node.Marked for compiled slots).
func (ct *ctrie) markedOf(h int32, p ip.Prefix) bool {
	if h < 0 {
		return false
	}
	hi, lo := p.Addr().Halves()
	if uint32(h)&cBoundary != 0 {
		n := ct.node(uint32(h) &^ cBoundary)
		return n.marksHi&(uint64(1)<<extract(hi, lo, p.Len()-6, 6)) != 0
	}
	n := ct.node(uint32(h))
	rel := p.Len() % 6
	if rel == 0 {
		return n.marksLo&cRootMark != 0
	}
	return n.marksLo&(uint64(1)<<heapBit(rel, extract(hi, lo, p.Len()-rel, rel))) != 0
}

// cwalk is one walk down a ctrie, held as data so that a batch can keep
// many of them in flight (Snapshot.ProcessBatch): fetch copies the node
// at next into nd — the walk's only read of trie memory, and the one a
// batch issues for every live walk before it lets any of them compute —
// and step consumes nd without touching memory again. lookupFrom is the
// same two calls in a loop.
type cwalk struct {
	nd       cnode  // the fetched node, consumed by the next step
	next     *cnode // node to fetch before the next step
	D        int32  // depth of next's root vertex
	frontier int32  // deepest vertex charged so far
	minRel   int32  // shallowest relative depth in next whose mark counts; 6 names a leaf-pushed boundary start
	best     int32  // longest match so far, −1 when none
	bestAt   uint32 // index of best's value cell, decoded by val once the walk is over
	refs     int32  // references charged so far
}

// start points w at the vertex named by handle (a find result ≥ 0, so
// the trie is not empty; d0 is that vertex's depth) and charges the
// start vertex, like flatTrie's first iteration. It reads no node.
func (ct *ctrie) start(w *cwalk, handle uint32, d0 int) {
	rel0 := d0 % 6
	if handle&cBoundary != 0 {
		// The vertex exists only as a marksHi bit of its parent node,
		// six levels up.
		handle &^= cBoundary
		rel0 = 6
	}
	w.next = ct.node(handle)
	w.D = int32(d0 - rel0)
	w.frontier = int32(d0)
	w.minRel = int32(rel0)
	w.best = -1
	w.refs = 1
}

// fetch loads the node the next step consumes.
func (w *cwalk) fetch() { w.nd = *w.next }

// step advances w through the fetched node along dest's path (hi, lo):
// it keeps the deepest mark the node holds on the path, charges one
// reference per binary vertex the path crosses — e−d0+1 in total for
// termination depth e, matching trie.LookupFrom and flatTrie.lookupFrom
// reference for reference — and either names the child to fetch next or
// reports the walk over (true). Values are not decoded here: bestAt
// remembers the cell, so a walk reads one value at most, and a Verify
// walk, which only wants the depth, reads none.
func (ct *ctrie) step(w *cwalk, hi, lo uint64) bool {
	n := &w.nd
	D := int(w.D)
	minRel := int(w.minRel)
	if minRel == 6 {
		// Leaf-pushed boundary vertex: marked and childless, so the
		// walk starts and terminates on it.
		if c := extract(hi, lo, D, 6); n.marksHi&(uint64(1)<<c) != 0 {
			w.best, w.bestAt = int32(D+6), n.valueBase+uint32(rankHi(n, c))
		}
		return true
	}
	span := ct.width - D
	if span > 6 {
		span = 6
	}
	c := extract(hi, lo, D, span)
	// The deepest mark on the path inside this node: the boundary
	// vertex, else an internal vertex, else (only where the walk starts
	// on it) the node's own root.
	top := span
	if top > 5 {
		top = 5
	}
	from := minRel // internal marks start at relative depth 1
	if from == 0 {
		from = 1
	}
	if span == 6 && n.marksHi&(uint64(1)<<c) != 0 {
		w.best, w.bestAt = int32(D+6), n.valueBase+uint32(rankHi(n, c))
	} else if j, hb, ok := deepestLoMark(n, c, span, from, top); ok {
		w.best, w.bestAt = int32(D+j), n.valueBase+uint32(rankLo(n, hb))
	} else if minRel == 0 && n.marksLo&cRootMark != 0 {
		w.best, w.bestAt = int32(D), n.valueBase
	}
	if span == 6 && n.subs&(uint64(1)<<c) != 0 {
		// The whole chunk exists on the path: charge through the
		// boundary and descend. The child's root is that boundary
		// vertex, already collected above, so its marks count from
		// relative depth 1.
		w.refs += int32(D+6) - w.frontier
		w.frontier = int32(D + 6)
		w.next = ct.node(n.child(c))
		w.D = int32(D + 6)
		w.minRel = 1
		return false
	}
	// Terminal node: the walk dies inside this span.
	w.refs += int32(D+deepestVertexOnPath(n, c, span)) - w.frontier
	return true
}

// lookupFrom walks dest's path from the vertex named by handle (a find
// result ≥ 0; depth d0 = that vertex's depth) to the deepest existing
// vertex, returning the longest-match depth, its value, and whether any
// mark at depth ≥ d0 lies on the path. Charges exactly one counter
// reference per binary vertex on the walk (see step). An empty ctrie
// reports no match at zero charge.
func (ct *ctrie) lookupFrom(handle uint32, d0 int, dest ip.Addr, cnt *mem.Counter) (int32, int32, bool) {
	if ct.n == 0 {
		return 0, 0, false
	}
	var w cwalk
	ct.start(&w, handle, d0)
	hi, lo := dest.Halves()
	for {
		w.fetch()
		if ct.step(&w, hi, lo) {
			break
		}
	}
	cnt.Add(int(w.refs))
	if w.best < 0 {
		return 0, 0, false
	}
	return w.best, ct.val(w.bestAt), true
}

// memBytes returns the node-page and value/dictionary footprints. Pages
// are counted whole (12 dead slots in a page still occupy its bytes),
// plus the page table itself.
func (ct *ctrie) memBytes() (nodeBytes, dictBytes int) {
	return len(ct.pages)*cpageSize*cnodeBytes + len(ct.pages)*8,
		len(ct.values)*2 + len(ct.dict)*4 + len(ct.wide)*4
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
