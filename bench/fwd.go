package main

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/fastpath"
	"repro/internal/header"
	"repro/internal/ip"
	"repro/internal/mem"
	"repro/internal/trie"
)

// The in-process forwarding loop. It does to a packet what a clued
// interior hop does between its receive and its send: peek the 24-byte
// IPv4 header (checksum verified), route the batch through the compiled
// fast path, rewrite clue, TTL and checksum in place. One goroutine,
// closed loop: the next batch starts when the previous one is done.

const (
	batchSize = 64 // packets per ProcessBatch, clued's drain size
	hdrLen    = 24 // IPv4 header with the plain 3-byte clue option
	// latCap bounds the per-pass batch-latency samples (8 MiB of uint32).
	// A pass is about a second and a batch never takes under a
	// microsecond, so the buffer holds every batch of a pass.
	latCap = 1 << 21
)

// packetSet is a workload's traffic: pristine headers the loop copies
// from (the copy stands in for the NIC's write into a receive buffer,
// and keeps TTLs from running out), plus the decoded fields and, per
// packet, the full longest-prefix match on the receiver's trie taken
// when the packet was generated — the oracle's answer on a static table.
type packetSet struct {
	hdrs  []byte // len(dests) × hdrLen
	dests []ip.Addr
	clues []int
	want  []answer
}

// answer is a forwarding decision: matched prefix and next hop.
type answer struct {
	p ip.Prefix
	v int
}

// buildPackets marshals one clue-carrying header per destination; the
// clue is the sender's best matching prefix, as the upstream hop would
// have written it.
func buildPackets(dests []ip.Addr, clues []int, want []answer) (*packetSet, error) {
	ps := &packetSet{hdrs: make([]byte, 0, len(dests)*hdrLen), dests: dests, clues: clues, want: want}
	src := ip.AddrFrom4(10, 0, 0, 1)
	for i, d := range dests {
		h := header.IPv4{TTL: 64, Protocol: 17, Src: src, Dst: d, Clue: &header.ClueOption{Len: clues[i]}}
		b, err := h.Marshal(0)
		if err != nil {
			return nil, fmt.Errorf("marshal packet %d: %w", i, err)
		}
		if len(b) != hdrLen {
			return nil, fmt.Errorf("packet %d: header is %d bytes, want %d", i, len(b), hdrLen)
		}
		ps.hdrs = append(ps.hdrs, b...)
	}
	return ps, nil
}

// probeSlot is the batch position that carries a visibility probe while
// one is outstanding (churn-modern only).
const probeSlot = batchSize - 1

// forwarder is the loop's state. Everything it touches per packet is
// preallocated; a pass allocates nothing.
type forwarder struct {
	clk clock
	rcu *fastpath.RCU
	set *packetSet
	pos int // next packet of the set

	buf   [batchSize * hdrLen]byte
	dests [batchSize]ip.Addr
	clues [batchSize]int
	out   [batchSize]core.Result
	refs  mem.Counter

	batches  uint32
	peekFail int64 // headers PeekIPv4 rejected (none are malformed: a failure)
	noRoute  int64 // packets with no matching prefix (legitimate under churn)
	badWrite int64 // RewriteClueIPv4 refusals (a failure)

	tr    *tracer    // nil on untraced passes
	feed  *probeFeed // nil except on churn-modern
	lat   []uint32   // per-batch latency of the current pass, ns
	probe struct {   // the probe riding in this batch, if any
		on bool
		k  int64
	}
}

func newForwarder(clk clock, rcu *fastpath.RCU, set *packetSet) *forwarder {
	return &forwarder{clk: clk, rcu: rcu, set: set, lat: make([]uint32, 0, latCap)}
}

// passStats is what one timed pass of the loop measured.
type passStats struct {
	pkts int64
	ns   int64
	// p50, p90, p99, p999 of per-batch latency in ns; zero when the pass
	// is too short to support the percentile.
	p50, p90, p99, p999 float64
}

func (p passStats) pps() float64 { return float64(p.pkts) / (float64(p.ns) / 1e9) }

// pass runs the loop for dur and reports packets, time and batch
// latency. With f.tr set, each batch records a root span and one child
// span per layer call. Consecutive batches share a boundary stamp, so
// batch spans tile the pass and everything the loop does outside a
// layer call — the header copy, the stamps, the span writes — lands in
// the root span's self time.
func (f *forwarder) pass(dur time.Duration) passStats {
	f.lat = f.lat[:0]
	n := len(f.set.dests)
	hdrs := f.set.hdrs
	start := f.clk.now()
	deadline := start + int64(dur)
	var pkts int64
	var t1, t2, t3 int64
	t0 := start
	for {
		for i := 0; i < batchSize; i++ {
			copy(f.buf[i*hdrLen:(i+1)*hdrLen], hdrs[f.pos*hdrLen:])
			f.pos++
			if f.pos == n {
				f.pos = 0
			}
		}
		if f.feed != nil {
			f.loadProbe()
		}
		if f.tr != nil {
			t1 = f.clk.now()
		}
		for i := 0; i < batchSize; i++ {
			d, _, c, _, ok := header.PeekIPv4(f.buf[i*hdrLen : (i+1)*hdrLen])
			if !ok {
				f.peekFail++
			}
			f.dests[i], f.clues[i] = d, c
		}
		if f.tr != nil {
			t2 = f.clk.now()
		}
		f.rcu.ProcessBatch(f.dests[:], f.clues[:], f.out[:], &f.refs)
		if f.tr != nil {
			t3 = f.clk.now()
		}
		for i := 0; i < batchSize; i++ {
			r := &f.out[i]
			if !r.OK {
				f.noRoute++
				continue
			}
			if !header.RewriteClueIPv4(f.buf[i*hdrLen:(i+1)*hdrLen], hdrLen, r.Prefix.Clue()) {
				f.badWrite++
			}
		}
		t4 := f.clk.now()
		if len(f.lat) < cap(f.lat) {
			f.lat = append(f.lat, uint32(t4-t0))
		}
		if f.tr != nil {
			root := f.tr.add(layerBatch, -1, f.batches, t0, t4, batchSize)
			f.tr.add(layerPeek, root, f.batches, t1, t2, batchSize)
			f.tr.add(layerProcess, root, f.batches, t2, t3, batchSize)
			f.tr.add(layerRewrite, root, f.batches, t3, t4, batchSize)
		}
		if f.probe.on {
			f.checkProbe(t4)
		}
		f.batches++
		pkts += batchSize
		t0 = t4
		if t4 >= deadline {
			break
		}
	}
	ps := passStats{pkts: pkts, ns: t0 - start}
	slices.Sort(f.lat)
	q := func(p float64) float64 { v, _ := quantile(f.lat, p); return float64(v) }
	ps.p50, ps.p90, ps.p99, ps.p999 = q(0.5), q(0.9), q(0.99), q(0.999)
	return ps
}

// oracleCheck routes every packet of the set through the snapshot and
// compares (matched, prefix, next hop) with the full longest-prefix
// match: the answers stored with the set when local is nil (static
// table), else a fresh lookup on local. It returns the number of
// mismatches. Run before timing it also warms the tables; run after, it
// shows the timed passes left the tables answering correctly.
func oracleCheck(snap *fastpath.Snapshot, set *packetSet, local *trie.Trie) int64 {
	var bad int64
	for i, d := range set.dests {
		r := snap.Process(d, set.clues[i], nil)
		ok, want := true, set.want[i]
		if local != nil {
			want.p, want.v, ok = local.Lookup(d, nil)
		}
		if r.OK != ok || (ok && (r.Prefix != want.p || r.Value != want.v)) {
			bad++
		}
	}
	return bad
}
