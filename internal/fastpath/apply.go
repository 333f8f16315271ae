package fastpath

import (
	"repro/internal/core"
	"repro/internal/ip"
	"repro/internal/lookup"
	"repro/internal/trie"
)

// This file is the incremental route-change path: RCU.Apply patches the
// published snapshot copy-on-write at subtree granularity — cloned
// trie pages (flat or packed-multibit) and recompiled slot rows only —
// instead of recompiling the whole table the way Mutate does. A batch
// of RouteOps flows
//
//	Enqueue (bounded, coalescing)  →  Apply  →  applyOps (master table)
//	                                        →  Snapshot.applyOps (COW patch)
//	                                        →  publish
//
// with explicit degrade points, each surfaced as a telemetry counter
// and each ending in a full recompile rather than unbounded staleness:
// a writer-queue overflow (Overflows), a batch whose affected entry set
// rivals the table (FallbacksBroad), a compressed batch that would
// overflow the 16-bit next-hop dictionary (FallbacksDict) or touch a
// table-rivaling share of packed nodes (FallbacksNodes), and
// accumulated dead slots from relocations/prunes or abandoned delegate
// resumes and handle pairs (Compactions).

// RouteOpKind discriminates RouteOp.
type RouteOpKind uint8

const (
	// OpAnnounce upserts Prefix→Value in the receiving router's own
	// (local) table — a BGP announce after best-path selection.
	OpAnnounce RouteOpKind = iota
	// OpWithdraw removes Prefix from the local table. Withdrawing an
	// absent prefix is a no-op, so replaying a stream is idempotent.
	OpWithdraw
	// OpSenderAnnounce upserts Prefix in the sending neighbor's trie
	// (Config.SenderTrie). Only meaningful for Advance tables; the
	// caller must keep any external Sender predicate in sync itself.
	OpSenderAnnounce
	// OpSenderWithdraw removes Prefix from the sending neighbor's trie.
	OpSenderWithdraw
	// OpInvalidate marks the clue entry for Prefix invalid (§3.4).
	OpInvalidate
	// OpRevalidate rebuilds and revalidates the clue entry for Prefix.
	OpRevalidate
)

// RouteOp is one route-shaped change. Value is the next-hop payload for
// announcements and ignored otherwise.
type RouteOp struct {
	Kind   RouteOpKind
	Prefix ip.Prefix
	Value  int
}

// EngineMaker rebuilds a compiled lookup engine from the (already
// mutated) local trie. The compiled engines (Patricia, Binary, 6-way,
// Log W, Multibit) snapshot the forwarding table at build time, so a
// local route change must swap in a fresh engine before entries are
// recomputed; the Regular engine shares the live trie and needs no
// maker. A nil maker leaves the engine untouched — correct for Regular,
// and for delegate engines it reproduces core's own behavior when the
// caller forgets SetEngine: full lookups keep answering from the
// pre-change table.
type EngineMaker func(*trie.Trie) lookup.ClueEngine

// coalesce merges ops that target the same (op-space, prefix) key,
// keeping the last op for each — sound because the master table is
// recomputed from the final trie state, so only the last write per
// prefix is observable after the batch. It returns the surviving ops
// (in first-occurrence order) and the number merged away.
func coalesce(ops []RouteOp) ([]RouteOp, int) {
	type key struct {
		space  uint8
		prefix ip.Prefix
	}
	spaceOf := func(k RouteOpKind) uint8 {
		switch k {
		case OpAnnounce, OpWithdraw:
			return 0
		case OpSenderAnnounce, OpSenderWithdraw:
			return 1
		}
		return 2
	}
	idx := make(map[key]int, len(ops))
	out := ops[:0:0] // fresh backing: the input may be aliased by a caller
	for _, op := range ops {
		k := key{spaceOf(op.Kind), op.Prefix}
		if i, ok := idx[k]; ok {
			out[i] = op
			continue
		}
		idx[k] = len(out)
		out = append(out, op)
	}
	return out, len(ops) - len(out)
}

// applyOps applies a coalesced batch to the master clue table: all trie
// edits first, one engine rebuild (when mk is set and a local edit
// happened), then one UpdateLocal/UpdateSender/validity flip per op.
// Batch-apply is entry-equivalent to applying the ops one at a time:
// a change of prefix p only affects entries comparable with p, so an
// entry recomputed against the final trie state reads the same answer
// it would have read after its own op. It returns the distinct clues
// whose entries were recomputed or flipped, in deterministic order.
func applyOps(t *core.Table, ops []RouteOp, mk EngineMaker) []ip.Prefix {
	cfg := t.Config()
	localChanged := false
	for _, op := range ops {
		switch op.Kind {
		case OpAnnounce:
			cfg.Local.Insert(op.Prefix, op.Value)
			localChanged = true
		case OpWithdraw:
			cfg.Local.Delete(op.Prefix)
			localChanged = true
		case OpSenderAnnounce:
			if cfg.SenderTrie != nil {
				cfg.SenderTrie.Insert(op.Prefix, op.Value)
			}
		case OpSenderWithdraw:
			if cfg.SenderTrie != nil {
				cfg.SenderTrie.Delete(op.Prefix)
			}
		}
	}
	if localChanged && mk != nil {
		t.SetEngine(mk(cfg.Local))
	}
	var touched []ip.Prefix
	seen := make(map[ip.Prefix]bool)
	add := func(cs ...ip.Prefix) {
		for _, c := range cs {
			if !seen[c] {
				seen[c] = true
				touched = append(touched, c)
			}
		}
	}
	for _, op := range ops {
		switch op.Kind {
		case OpAnnounce, OpWithdraw:
			add(t.Affected(op.Prefix)...)
			t.UpdateLocal(op.Prefix)
		case OpSenderAnnounce, OpSenderWithdraw:
			if cfg.Method == core.Advance {
				add(t.Affected(op.Prefix)...)
			}
			t.UpdateSender(op.Prefix)
		case OpInvalidate:
			if t.Invalidate(op.Prefix) {
				add(op.Prefix)
			}
		case OpRevalidate:
			if t.Revalidate(op.Prefix) {
				add(op.Prefix)
			}
		}
	}
	return touched
}

// applyFallback is Snapshot.applyOps's reason for refusing to patch a
// batch in place; the caller discards the half-edited copy and degrades
// to a counted recompile.
type applyFallback uint8

const (
	fbNone  applyFallback = iota
	fbDict                // compressed: batch would overflow the 16-bit next-hop dictionary
	fbNodes               // compressed: edit touched a table-rivaling share of packed nodes
)

// applyOps returns a copy of s with the batch patched in copy-on-write:
// trie edits replayed onto page-cloned tries (flatEdit for the flat
// layout, ctrieEdit for the compressed one), and every touched entry
// (exps: the recomputed/flipped set, plus the entries whose cached
// trie handles a relocation made stale) re-slotted into privately
// cloned rows. eng is the table's current engine (fresh when an
// EngineMaker ran). export resolves a relocated vertex's clue against
// the master table.
//
// The second result requests compaction: dead slots from relocations
// and prunes outnumber half the live vertices (node or value slots for
// the compressed layout), abandoned delegate resumes outnumber the
// entries, or abandoned handle pairs a quarter of them — time to fold
// the garbage away with a full recompile, off the patch lock. A
// non-fbNone third result means the batch could not be patched (the
// returned snapshot is nil and nothing published reads the abandoned
// edits).
//
//cluevet:ctor - builds the patched copy before publication
func (s *Snapshot) applyOps(ops []RouteOp, exps []core.ExportedEntry, eng lookup.Engine, export func(ip.Prefix) (core.ExportedEntry, bool)) (*Snapshot, bool, applyFallback) {
	ns := *s
	ns.lens = append([]lenTable(nil), s.lens...)
	ns.resumes = append([]lookup.Resume(nil), s.resumes...)
	ns.engine = eng
	var reloc []ip.Prefix
	compact := len(ns.resumes) > 2*ns.entries+64
	if ns.compressed {
		work := 0
		if ns.flat {
			ed := cedit(&ns.clocal)
			for _, op := range ops {
				switch op.Kind {
				case OpAnnounce:
					ed.insert(op.Prefix, int32(op.Value))
				case OpWithdraw:
					ed.remove(op.Prefix)
				}
			}
			if ed.full {
				return nil, false, fbDict
			}
			reloc = append(reloc, ed.reloc...)
			work += ed.work
		}
		if ns.verify {
			ed := cedit(&ns.csender)
			for _, op := range ops {
				switch op.Kind {
				case OpSenderAnnounce:
					ed.insert(op.Prefix, int32(op.Value))
				case OpSenderWithdraw:
					ed.remove(op.Prefix)
				}
			}
			if ed.full {
				return nil, false, fbDict
			}
			reloc = append(reloc, ed.reloc...)
			work += ed.work
		}
		live := ns.clocal.n - ns.clocal.dead + ns.csender.n - ns.csender.dead
		if 2*work >= live+64 {
			// The edit rewrote a table-rivaling share of packed nodes:
			// a recompile costs about the same and resets the garbage.
			return nil, false, fbNodes
		}
		compact = compact || ns.clocal.wantCompact() || ns.csender.wantCompact()
	} else {
		if ns.flat {
			ed := edit(&ns.local)
			for _, op := range ops {
				switch op.Kind {
				case OpAnnounce:
					ed.insert(op.Prefix, int32(op.Value))
				case OpWithdraw:
					ed.remove(op.Prefix)
				}
			}
			reloc = append(reloc, ed.reloc...)
		}
		if ns.verify {
			ed := edit(&ns.sender)
			for _, op := range ops {
				switch op.Kind {
				case OpSenderAnnounce:
					ed.insert(op.Prefix, int32(op.Value))
				case OpSenderWithdraw:
					ed.remove(op.Prefix)
				}
			}
			reloc = append(reloc, ed.reloc...)
		}
		compact = compact || 2*ns.local.dead > ns.local.n-ns.local.dead ||
			2*ns.sender.dead > ns.sender.n-ns.sender.dead
	}
	ps := newPatchSession(len(ns.lens))
	for _, e := range exps {
		ns.reslot(e, ps)
	}
	for _, c := range reloc {
		if e, ok := export(c); ok {
			ns.reslot(e, ps)
		}
	}
	compact = compact || 4*ns.pairsDead > ns.entries+256
	return &ns, compact, fbNone
}

// Apply applies a batch of route operations: the master table absorbs
// them under the patch lock, and the published snapshot is patched
// copy-on-write — affected slot rows and written trie pages only — in
// one publication for the whole batch, on either trie layout (flat
// pages via flatEdit, packed multibit nodes via ctrieEdit). Concurrent
// Learn/Invalidate patches and wait-free readers proceed as usual.
// Batches whose affected-entry set rivals the table, would overflow the
// compressed next-hop dictionary, or rewrite a table-rivaling share of
// packed nodes degrade to a full (off-lock) recompile, counted by
// Metrics.Fallbacks and its per-cause counters.
//
// Ops use ensure semantics (announce = present with value, withdraw =
// absent), so replaying a batch that is partially reflected in the
// master trie — e.g. when a netsim router already edited the shared
// live trie — converges instead of corrupting.
func (r *RCU) Apply(ops []RouteOp) {
	r.apply(ops, false, 0)
}

// apply is Apply plus the queue drain's bookkeeping: overflow forces the
// degrade-to-recompile path, premerged counts ops the queue already
// coalesced away.
func (r *RCU) apply(ops []RouteOp, overflow bool, premerged int) {
	ops, merged := coalesce(ops)
	if len(ops) == 0 {
		return
	}
	r.compileMu.Lock()
	defer r.compileMu.Unlock()
	r.mu.Lock()
	r.met.Coalesced.Add(uint64(merged + premerged))
	if overflow {
		r.met.Overflows.Inc()
	}
	touched := applyOps(r.tab, ops, r.mk)
	snap := r.snap.Load()
	// Degrade to a full recompile when the batch cannot be patched in
	// place: queue overflow, or an affected-entry set that rivals the
	// table (patching would recompile most slot rows anyway). Both
	// layouts patch incrementally otherwise — the compressed one since
	// ISSUE 10 (ctrie_edit.go); its two extra degrade causes surface
	// from Snapshot.applyOps below.
	if overflow || 4*len(touched) >= snap.Len()+16 {
		if !overflow {
			r.met.Fallbacks.Inc()
			r.met.FallbacksBroad.Inc()
		}
		r.mu.Unlock()
		r.rebuild(nil, r.met.Recompiles)
		return
	}
	exps := make([]core.ExportedEntry, 0, len(touched))
	for _, c := range touched {
		if e, ok := r.tab.ExportEntry(c); ok {
			exps = append(exps, e)
		}
	}
	ns, compact, fb := snap.applyOps(ops, exps, r.tab.Config().Engine, r.tab.ExportEntry)
	if fb != fbNone {
		r.met.Fallbacks.Inc()
		switch fb {
		case fbDict:
			r.met.FallbacksDict.Inc()
		case fbNodes:
			r.met.FallbacksNodes.Inc()
		}
		r.mu.Unlock()
		r.rebuild(nil, r.met.Recompiles)
		return
	}
	r.met.AppliedOps.Add(uint64(len(ops)))
	r.publish(ns, r.met.Applies)
	r.mu.Unlock()
	if compact {
		r.met.Compactions.Inc()
		r.rebuild(nil, r.met.Recompiles)
	}
}

// SetEngineMaker installs the engine rebuilder Apply uses after local
// trie edits. Tables on the Regular engine need none.
func (r *RCU) SetEngineMaker(mk EngineMaker) {
	r.compileMu.Lock()
	defer r.compileMu.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.mk = mk
}

// applyQueue is the bounded coalescing writer queue in front of Apply.
// Producers append under a small mutex and never block; the applier
// goroutine drains whole batches. When the pending buffer exceeds cap,
// Enqueue coalesces it in place; if distinct keys alone still exceed
// cap, the overflow flag makes the next drain degrade to one full
// recompile (cheaper than patching a table-sized batch) and
// Metrics.Overflows records it. Pending ops are never dropped — every
// queued key is real routing information — so staleness stays bounded
// by one drain cycle, and memory by the distinct-key count.
type applyQueue struct {
	buf     []RouteOp
	cap     int
	merged  int  // ops coalesced away while queued (flushed to Metrics at drain)
	over    bool // cap exceeded since the last drain
	running bool
	kick    chan struct{}
	quit    chan struct{}
	done    chan struct{}
}

// StartApplier launches the background writer: Enqueue hands batches to
// it instead of patching synchronously. queueCap bounds the pending
// buffer (minimum 16; 0 picks a default of 1024). Call StopApplier to
// drain and join.
func (r *RCU) StartApplier(queueCap int) {
	if queueCap <= 0 {
		queueCap = 1024
	}
	if queueCap < 16 {
		queueCap = 16
	}
	r.qmu.Lock()
	defer r.qmu.Unlock()
	if r.q.running {
		return
	}
	r.q = applyQueue{
		cap:     queueCap,
		running: true,
		kick:    make(chan struct{}, 1),
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	go r.applier()
}

// StopApplier drains outstanding ops, stops the applier goroutine and
// waits for it to exit. No-op when the applier is not running.
func (r *RCU) StopApplier() {
	r.qmu.Lock()
	if !r.q.running {
		r.qmu.Unlock()
		return
	}
	r.q.running = false
	quit, done := r.q.quit, r.q.done
	r.qmu.Unlock()
	close(quit)
	<-done
}

// Enqueue appends ops to the writer queue. With no applier running it
// degenerates to a synchronous Apply, so callers can treat Enqueue as
// the one update entry point and choose batching by whether they
// started the applier.
func (r *RCU) Enqueue(ops ...RouteOp) {
	r.qmu.Lock()
	if !r.q.running {
		r.qmu.Unlock()
		r.Apply(ops)
		return
	}
	r.q.buf = append(r.q.buf, ops...)
	if len(r.q.buf) > r.q.cap {
		var merged int
		r.q.buf, merged = coalesce(r.q.buf)
		r.q.merged += merged
		if len(r.q.buf) > r.q.cap {
			r.q.over = true
		}
	}
	kick := r.q.kick
	r.qmu.Unlock()
	select {
	case kick <- struct{}{}:
	default:
	}
}

// QueueDepth returns the number of ops currently pending in the writer
// queue (0 when the applier is not running).
func (r *RCU) QueueDepth() int {
	r.qmu.Lock()
	defer r.qmu.Unlock()
	return len(r.q.buf)
}

// applier is the writer-queue goroutine: drain on every kick, final
// drain on quit. Exit is joined by StopApplier via the done channel.
func (r *RCU) applier() {
	defer close(r.q.done)
	for {
		select {
		case <-r.q.kick:
			r.drainQueue()
		case <-r.q.quit:
			r.drainQueue()
			return
		}
	}
}

// drainQueue repeatedly swaps out the pending buffer and applies it,
// so producers never wait on an in-flight patch.
func (r *RCU) drainQueue() {
	for {
		r.qmu.Lock()
		batch, over, merged := r.q.buf, r.q.over, r.q.merged
		r.q.buf, r.q.over, r.q.merged = nil, false, 0
		r.qmu.Unlock()
		if len(batch) == 0 {
			return
		}
		r.apply(batch, over, merged)
	}
}
