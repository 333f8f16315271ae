// Command clued is an end-to-end wire demo of distributed IP lookup: it
// starts a chain of in-process "routers", each listening on its own UDP
// socket on the loopback interface, and forwards real packets between them.
// Every packet carries a marshaled IPv4 header (internal/header) whose
// options field holds the 5-bit clue; each router parses the header,
// resolves the next hop through its clue table (internal/core), rewrites
// the clue option with its own best matching prefix, decrements the TTL,
// re-checksums, and sends the datagram to the next router's socket.
//
// The demo prints the per-router memory-reference totals, showing the
// paper's effect on a running network stack rather than in a simulator.
// All accounting flows through one internal/telemetry registry: the final
// statistics tables are views over it, and -metrics serves the very same
// registry as a Prometheus /metrics endpoint plus a /trace tail of the
// most recent per-packet hop events while the daemon runs.
//
// The daemon is hardened the way a long-running process must be:
// event-driven shutdown that unblocks every socket reader, graceful
// drain with final statistics, malformed-datagram and no-route counters
// instead of silent drops, and bounded non-blocking retry with per-peer
// backoff windows on UDP send errors (a failing peer sheds its own
// traffic; it never stalls the worker loop or other peers' sends). With
// -faults it feeds its own wire through the internal/fault injector —
// corrupted clues and mangled datagrams — and must still deliver every
// packet that survives the wire, routed exactly as a full lookup would.
//
// With -workers N each router runs N socket readers feeding N pipeline
// workers over SPSC rings (internal/pipeline), so one busy router spreads
// its datagram processing across cores instead of serializing on one
// goroutine. Per-worker packet and error counters join the registry.
//
// Usage:
//
//	clued [-routers 6] [-packets 100] [-timeout 10s] [-faults 0.2] [-faultseed 1]
//	      [-metrics localhost:9090] [-linger 30s] [-seq] [-v] [-v6] [-fastpath]
//	      [-workers 4]
//
// Exit status is nonzero when packets the wire did not eat are undelivered
// at the timeout, or when interrupted before completion.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // -pprof: profiling endpoints on an opt-in listener
	"os"
	"os/signal"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/batchio"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fastpath"
	"repro/internal/fault"
	"repro/internal/fib"
	"repro/internal/header"
	"repro/internal/ip"
	"repro/internal/lookup"
	"repro/internal/mem"
	"repro/internal/pipeline"
	"repro/internal/routing"
	"repro/internal/telemetry"
)

// sendRetries bounds immediate, non-sleeping resubmission of a failing
// batch. Past the bound the remaining frames are dropped and counted
// and the peer enters a backoff window — sends to it are dropped on
// sight until the window expires, so a dead peer costs the worker loop
// nothing (the old inline time.Sleep backoff head-of-line-blocked every
// other peer sharing the worker). Windows start at sendBackoff and
// quadruple per consecutive failing batch, capped at maxSendBackoff.
const (
	sendRetries    = 3
	sendBackoff    = time.Millisecond
	maxSendBackoff = 64 * time.Millisecond
)

// egressBatch bounds frames buffered per peer before an auto-flush;
// readBatch and workerBatch size the ingress side. A worker drains at
// most workerBatch datagrams from its ring, then flushes its egress —
// with mmsg batching, one drained batch costs one syscall per distinct
// next hop instead of one per packet.
const (
	egressBatch = 64
	readBatch   = 64
	workerBatch = 64
)

// traceCapacity is how many recent hop events the daemon's /trace endpoint
// can replay.
const traceCapacity = 2048

// clueForwarder is the read-side surface the data path needs; it is
// satisfied by both clue-table representations — the interpreted
// core.ConcurrentTable (RWMutex) and the compiled fastpath.RCU
// (snapshot swap, selected with -fastpath).
type clueForwarder interface {
	Process(dest ip.Addr, clueLen int, cnt *mem.Counter) core.Result
	ProcessNoClue(dest ip.Addr, cnt *mem.Counter) core.Result
	Len() int
	Learned() int
}

// routerTel is one router's slice of the daemon registry. The per-packet
// bundle (outcomes, refs/packet) is recorded by the clue table itself;
// the error counters are the daemon's own failure taxonomy.
type routerTel struct {
	pm        *telemetry.PacketMetrics
	malformed *telemetry.Counter
	noRoute   *telemetry.Counter
	expired   *telemetry.Counter
	sendFail  *telemetry.Counter
	sendRetry *telemetry.Counter
	sendDrop  *telemetry.Counter
	delivered *telemetry.Counter
	// Per-pipeline-worker accounting, populated only in -workers mode:
	// datagrams drained and datagrams the data path rejected, per worker.
	workerPkts []*telemetry.Counter
	workerErrs []*telemetry.Counter
}

func newRouterTel(reg *telemetry.Registry, router string, workers int) *routerTel {
	lbl := telemetry.L("router", router)
	errc := func(kind string) *telemetry.Counter {
		return reg.NewCounter("clued_errors_total",
			"per-router error events, by kind", lbl, telemetry.L("kind", kind))
	}
	t := &routerTel{
		pm:        telemetry.NewPacketMetrics(reg, "clued", core.OutcomeLabels(), lbl),
		malformed: errc("malformed"),
		noRoute:   errc("no-route"),
		expired:   errc("expired"),
		sendFail:  errc("send-fail"),
		sendRetry: errc("send-retry"),
		sendDrop:  errc("send-drop"),
		delivered: reg.NewCounter("clued_delivered_total",
			"packets delivered locally at this router", lbl),
	}
	for w := 0; w < workers; w++ {
		wl := telemetry.L("worker", fmt.Sprint(w))
		t.workerPkts = append(t.workerPkts, reg.NewCounter("clued_worker_packets_total",
			"datagrams drained by each pipeline worker", lbl, wl))
		t.workerErrs = append(t.workerErrs, reg.NewCounter("clued_worker_errors_total",
			"datagrams the data path rejected, per pipeline worker", lbl, wl))
	}
	return t
}

// peerLink is one next hop's send state: the socket address plus the
// non-blocking failure backoff. suppressUntil is a wall-clock nanosecond
// deadline; while it lies in the future the peer is in a backoff window
// and frames to it are dropped and counted instead of attempted.
// failStreak counts consecutive failing batches and grows the window.
// Both are only ever accessed atomically; addr and name are immutable.
type peerLink struct {
	name          string
	addr          *net.UDPAddr
	suppressUntil atomic.Int64
	failStreak    atomic.Int32
}

// egress is the per-worker frame batcher: frames group by next hop and
// flush as one batched write per peer per drained ring batch.
type egress = pipeline.Egress[*peerLink, []byte]

// udpRouter is one chain hop: a UDP socket plus a clue-routing engine.
type udpRouter struct {
	name    string
	conn    *net.UDPConn
	bconn   *batchio.Conn // wraps conn for batched I/O (toggle: -batchio)
	table   *fib.Table
	clues   clueForwarder
	fast    *fastpath.RCU        // non-nil in -fastpath mode: misses learn through it
	peers   map[string]*peerLink // next-hop name -> link state
	sink    *peerLink            // node mode: delivered packets forward here raw
	inj     *fault.Injector      // nil when -faults is 0
	verbose bool
	workers int            // pipeline workers per router; <= 1 is the serial loop
	done    chan<- ip.Addr // delivery notifications; nil in node mode
	tel     *routerTel
	tracer  *telemetry.HopTracer
	// sendHook, when non-nil, replaces the physical batched write — the
	// test seam for forcing per-peer send failures.
	sendHook func(p *peerLink, frames [][]byte) (int, error)
}

// newEgress builds one worker's egress, bound to its batchio Writer.
func (r *udpRouter) newEgress(w *batchio.Writer) *egress {
	return pipeline.NewEgress(egressBatch, func(p *peerLink, frames [][]byte) {
		r.sendBatch(w, p, frames)
	})
}

// unblock releases every goroutine parked in a read on this router's
// socket: an immediate deadline makes pending and future reads return a
// timeout at once. Called at shutdown, after the serve context is
// canceled — the loops observe the canceled context and exit instead of
// polling a 200 ms deadline awake. A failed deadline set (fd already in
// teardown) falls back to closing the socket, and is logged rather than
// swallowed.
func (r *udpRouter) unblock() {
	if err := r.conn.SetReadDeadline(time.Now()); err != nil {
		log.Printf("%s: shutdown unblock: %v (closing socket)", r.name, err)
		r.conn.Close()
	}
}

// serve reads datagrams until the context is canceled or the socket is
// closed. Readers block in the kernel with no deadline churn; shutdown
// cancels the context and calls unblock. With -workers it instead fans
// the socket out to a per-router pipeline.
func (r *udpRouter) serve(ctx context.Context) {
	if r.workers > 1 {
		r.servePipelined(ctx)
		return
	}
	// Single-worker fast path: same batched I/O discipline as the
	// pipeline — receive up to readBatch datagrams per wakeup (one
	// recvmmsg when batching is on) and flush the egress once per
	// received batch, not once per packet. Each datagram gets its own
	// buffer because emitted frames alias the input in place; the flush
	// before the next Recv keeps that sound.
	eg := r.newEgress(r.bconn.NewWriter())
	rd := r.bconn.NewReader()
	bufs := make([][]byte, readBatch)
	sizes := make([]int, readBatch)
	for i := range bufs {
		bufs[i] = make([]byte, 2048)
	}
	for {
		k, err := rd.Recv(bufs, sizes)
		if ctx.Err() != nil {
			return
		}
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue // stray deadline from before this serve; not shutdown
			}
			return // socket closed: shut down
		}
		for i := 0; i < k; i++ {
			_ = r.handle(bufs[i][:sizes[i]], eg) // drops are accounted in the error taxonomy counters
		}
		eg.Flush()
	}
}

// dgram is one received datagram, sized for the ring: a fixed buffer so
// the reader → worker handoff never allocates.
type dgram struct {
	n   int
	buf [2048]byte
}

// servePipelined is the -workers data path: N socket readers, each the
// single producer of its own SPSC ring, feeding N workers that run the
// normal handle path. The clue tables (ConcurrentTable or RCU) and all
// telemetry are already safe under concurrent handle calls, so workers
// need no shared state beyond them. Readers receive up to readBatch
// datagrams per wakeup (one recvmmsg when batching is on) and workers
// drain their rings in batches, flushing one batched write per next hop
// per drained batch. On shutdown the readers exit first (context
// cancellation plus unblock, or socket close), then the rings are
// closed and every worker drains what remains before returning — a
// graceful drain, no datagram accepted from the socket is dropped by
// the pipeline itself.
func (r *udpRouter) servePipelined(ctx context.Context) {
	rings := make([]*pipeline.Ring[dgram], r.workers)
	for i := range rings {
		rings[i] = pipeline.NewRing[dgram](256)
	}
	var workWG sync.WaitGroup
	for i := range rings {
		workWG.Add(1)
		go func(w int) {
			defer workWG.Done()
			ring := rings[w]
			eg := r.newEgress(r.bconn.NewWriter())
			batch := make([]dgram, workerBatch)
			for {
				n := ring.PopBatch(batch)
				if n == 0 {
					if ring.Drained() {
						eg.Flush()
						return
					}
					runtime.Gosched()
					continue
				}
				for i := 0; i < n; i++ {
					if err := r.handle(batch[i].buf[:batch[i].n], eg); err != nil {
						r.tel.workerErrs[w].Inc()
					}
					r.tel.workerPkts[w].Inc()
				}
				eg.Flush() // frames reference ring buffers; flush before the next drain
			}
		}(i)
	}
	var readWG sync.WaitGroup
	for i := range rings {
		readWG.Add(1)
		go func(w int) {
			defer readWG.Done()
			ring := rings[w]
			rd := r.bconn.NewReader()
			ds := make([]dgram, readBatch)
			bufs := make([][]byte, readBatch)
			sizes := make([]int, readBatch)
			for i := range ds {
				bufs[i] = ds[i].buf[:]
			}
			for {
				k, err := rd.Recv(bufs, sizes)
				if ctx.Err() != nil {
					return
				}
				if err != nil {
					var ne net.Error
					if errors.As(err, &ne) && ne.Timeout() {
						continue // stray deadline; shutdown cancels ctx first
					}
					return
				}
				for i := 0; i < k; i++ {
					ds[i].n = sizes[i]
					if !ring.Push(ds[i]) {
						return // ring closed underneath us: shutting down
					}
				}
			}
		}(i)
	}
	readWG.Wait()
	for _, ring := range rings {
		ring.Close()
	}
	workWG.Wait()
}

// trace appends one hop event to the daemon's ring buffer.
func (r *udpRouter) trace(dest ip.Addr, clueIn int, res core.Result, refs int) {
	bmpLen := -1
	if res.OK {
		bmpLen = res.Prefix.Len()
	}
	r.tracer.Record(telemetry.HopEvent{
		Router:  r.name,
		Dest:    dest,
		ClueIn:  clueIn,
		BMPLen:  bmpLen,
		Refs:    refs,
		Outcome: res.Outcome.String(),
	})
}

// handle runs the data path on one datagram, buffering output frames on
// eg (the caller flushes once per drained batch). The returned error
// reports why a packet died (malformed, expired, no route, re-marshal
// failure, unknown hop); the specific taxonomy counters are still
// incremented here, the error return feeds the per-worker counters in
// -workers mode.
func (r *udpRouter) handle(pkt []byte, eg *egress) error {
	if len(pkt) > 0 && pkt[0]>>4 == 6 {
		return r.handleV6(pkt, eg)
	}
	// Zero-alloc peek for the two hot wire shapes; the allocating parse
	// both serves the cold shapes and diagnoses malformed packets. h
	// stays nil on the fast path until (and unless) a re-marshal needs
	// the full header.
	dst, ttl, clueIn, payloadOff, fast := header.PeekIPv4(pkt)
	var h *header.IPv4
	if !fast {
		var err error
		h, payloadOff, err = header.ParseIPv4(pkt)
		if err != nil {
			r.tel.malformed.Inc()
			if r.verbose {
				log.Printf("%s: dropping bad packet: %v", r.name, err)
			}
			return fmt.Errorf("malformed: %w", err)
		}
		dst, ttl = h.Dst, h.TTL
		clueIn = header.NoClue
		if h.Clue != nil {
			clueIn = h.Clue.Len
		}
	}
	if ttl == 0 {
		r.tel.expired.Inc()
		return fmt.Errorf("ttl expired for %v", dst)
	}
	var cnt mem.Counter
	var res core.Result
	if clueIn >= 0 {
		res = r.clues.Process(dst, clueIn, &cnt)
		if r.fast != nil && res.Outcome == core.OutcomeMiss {
			r.fast.Learn(dst, clueIn) // snapshots learn off the read path
		}
	} else {
		res = r.clues.ProcessNoClue(dst, &cnt)
	}
	r.trace(dst, clueIn, res, cnt.Count())
	if !res.OK {
		r.tel.noRoute.Inc()
		log.Printf("%s: no route for %v", r.name, dst)
		return fmt.Errorf("no route for %v", dst)
	}
	if r.verbose {
		log.Printf("%s: %v clue=%d -> %v via %s (%d refs, %v)",
			r.name, dst, clueIn, res.Prefix, r.table.HopName(res.Value), cnt.Count(), res.Outcome)
	}
	next := r.table.HopName(res.Value)
	if next == routing.LocalHop {
		r.deliver(pkt, dst, eg)
		return nil
	}
	peer, ok := r.peers[next]
	if !ok {
		log.Printf("%s: unknown next hop %q", r.name, next)
		return fmt.Errorf("unknown next hop %q", next)
	}
	// Rewrite the clue with this router's BMP and decrement TTL — in
	// place when the packet already carries the plain clue option (the
	// interior-hop common case; no allocation, no payload copy),
	// otherwise the parse → re-marshal path.
	clue := r.egressClue(res.Prefix.Clue())
	if clue != nil && !clue.HasIndex && header.RewriteClueIPv4(pkt, payloadOff, clue.Len) {
		r.emit(pkt, peer, eg)
		return nil
	}
	if h == nil {
		// Shape change (a head adding the first clue, an injector
		// stripping or indexing one): fall back to the full parse — it
		// cannot fail on a shape the peek accepted.
		var err error
		if h, _, err = header.ParseIPv4(pkt); err != nil {
			r.tel.malformed.Inc()
			return fmt.Errorf("malformed: %w", err)
		}
	}
	h.TTL--
	h.Clue = clue
	out, err := h.Marshal(len(pkt) - payloadOff)
	if err != nil {
		log.Printf("%s: re-marshal: %v", r.name, err)
		return fmt.Errorf("re-marshal: %w", err)
	}
	out = append(out, pkt[payloadOff:]...)
	r.emit(out, peer, eg)
	return nil
}

// deliver accounts a locally-delivered packet and, in node mode,
// forwards the arrived bytes unchanged to the collector sink (the
// packet is not re-routed: the copy is the delivery notification the
// generator computes end-to-end latency from).
func (r *udpRouter) deliver(pkt []byte, dst ip.Addr, eg *egress) {
	r.tel.delivered.Inc()
	if r.sink != nil {
		// pkt aliases the worker's ring buffer, which lives until the
		// next drain — after the flush this egress sees at batch end.
		eg.Add(r.sink, pkt)
	}
	if r.done != nil {
		r.done <- dst
	}
}

// handleV6 is the IPv6 data path: same clue logic, 7-bit clue in a
// hop-by-hop option.
func (r *udpRouter) handleV6(pkt []byte, eg *egress) error {
	h, payloadOff, err := header.ParseIPv6(pkt)
	if err != nil {
		r.tel.malformed.Inc()
		if r.verbose {
			log.Printf("%s: dropping bad v6 packet: %v", r.name, err)
		}
		return fmt.Errorf("malformed v6: %w", err)
	}
	if h.HopLimit == 0 {
		r.tel.expired.Inc()
		return fmt.Errorf("hop limit expired for %v", h.Dst)
	}
	var cnt mem.Counter
	var res core.Result
	clueIn := -1
	if h.Clue != nil {
		clueIn = h.Clue.Len
		res = r.clues.Process(h.Dst, h.Clue.Len, &cnt)
		if r.fast != nil && res.Outcome == core.OutcomeMiss {
			r.fast.Learn(h.Dst, h.Clue.Len)
		}
	} else {
		res = r.clues.ProcessNoClue(h.Dst, &cnt)
	}
	r.trace(h.Dst, clueIn, res, cnt.Count())
	if !res.OK {
		r.tel.noRoute.Inc()
		log.Printf("%s: no route for %v", r.name, h.Dst)
		return fmt.Errorf("no route for %v", h.Dst)
	}
	next := r.table.HopName(res.Value)
	if next == routing.LocalHop {
		r.deliver(pkt, h.Dst, eg)
		return nil
	}
	peer, ok := r.peers[next]
	if !ok {
		log.Printf("%s: unknown next hop %q", r.name, next)
		return fmt.Errorf("unknown next hop %q", next)
	}
	h.HopLimit--
	h.Clue = r.egressClue(res.Prefix.Clue())
	out, err := h.Marshal(len(pkt) - payloadOff)
	if err != nil {
		log.Printf("%s: v6 re-marshal: %v", r.name, err)
		return fmt.Errorf("v6 re-marshal: %w", err)
	}
	out = append(out, pkt[payloadOff:]...)
	r.emit(out, peer, eg)
	return nil
}

// egressClue builds the outgoing clue option, feeding it through the
// injector's clue classes when faults are on. Only classes that produce a
// marshalable clue (in [0, W], or stripped) are configured — bit-level
// corruption of the field is exercised by the datagram classes, whose
// damage the receiver's checksum turns into a malformed count.
func (r *udpRouter) egressClue(clueLen int) *header.ClueOption {
	if r.inj != nil {
		clueLen, _ = r.inj.PerturbClue(clueLen)
	}
	if clueLen == fault.NoClue {
		return nil
	}
	return &header.ClueOption{Len: clueLen}
}

// emit buffers a datagram for peer on the worker's egress (via the
// injector's transport classes when faults are on). The physical write
// happens at the egress flush, batched per peer.
func (r *udpRouter) emit(out []byte, peer *peerLink, eg *egress) {
	if r.inj == nil {
		eg.Add(peer, out)
		return
	}
	frames, _ := r.inj.Transport(out)
	for _, f := range frames {
		eg.Add(peer, f)
	}
}

// sendBatch writes one peer's frames. Failure handling never sleeps in
// the worker loop: a failing batch is resubmitted immediately up to
// sendRetries times; past the bound the rest of the batch is dropped
// and counted and the peer enters a growing backoff window, during
// which further batches to it are dropped on sight. A single success
// resets the peer. Live peers sharing the worker are unaffected either
// way — the regression test pins that a dead peer does not reduce their
// goodput.
func (r *udpRouter) sendBatch(w *batchio.Writer, p *peerLink, frames [][]byte) {
	if time.Now().UnixNano() < p.suppressUntil.Load() {
		r.tel.sendDrop.Add(uint64(len(frames)))
		return
	}
	write := r.sendHook
	if write == nil {
		write = func(p *peerLink, frames [][]byte) (int, error) {
			return w.Send(frames, p.addr)
		}
	}
	off := 0
	var lastErr error
	for attempt := 0; attempt <= sendRetries; attempt++ {
		n, err := write(p, frames[off:])
		off += n
		if off == len(frames) && err == nil {
			p.failStreak.Store(0)
			return
		}
		if err != nil {
			lastErr = err
			if attempt < sendRetries {
				r.tel.sendRetry.Inc()
			}
		}
	}
	dropped := len(frames) - off
	r.tel.sendFail.Add(uint64(dropped))
	streak := p.failStreak.Add(1)
	window := sendBackoff
	for i := int32(1); i < streak && window < maxSendBackoff; i++ {
		window *= 4
	}
	if window > maxSendBackoff {
		window = maxSendBackoff
	}
	p.suppressUntil.Store(time.Now().Add(window).UnixNano())
	log.Printf("%s: send to %s (%s): %d frame(s) dropped after %d retries, backing off %v: %v",
		r.name, p.name, p.addr, dropped, sendRetries, window, lastErr)
}

// registerFastpathMetrics attaches one router's RCU writer counters and
// snapshot memory gauges to the registry — shared by the all-in-one
// chain and by cluster node mode, so both export the identical series.
func registerFastpathMetrics(reg *telemetry.Registry, router string, fp *fastpath.RCU) {
	lbl := telemetry.L("router", router)
	fp.SetMetrics(fastpath.Metrics{
		Swaps: reg.NewCounter("clued_rcu_swaps_total",
			"RCU snapshot publications", lbl),
		Patches: reg.NewCounter("clued_rcu_patches_total",
			"RCU single-entry snapshot patches", lbl),
		Recompiles: reg.NewCounter("clued_rcu_recompiles_total",
			"RCU full snapshot recompiles", lbl),
		Learns: reg.NewCounter("clued_rcu_learns_total",
			"clues learned through the RCU writer", lbl),
		Applies: reg.NewCounter("clued_rcu_applies_total",
			"incremental Apply batches published", lbl),
		AppliedOps: reg.NewCounter("clued_rcu_applied_ops_total",
			"route ops folded into published Apply batches", lbl),
		Coalesced: reg.NewCounter("clued_rcu_coalesced_total",
			"route ops merged away by batching", lbl),
		Overflows: reg.NewCounter("clued_rcu_overflows_total",
			"writer-queue overflows degraded to a recompile", lbl),
		Fallbacks: reg.NewCounter("clued_rcu_fallbacks_total",
			"Apply batches unpatchable in place (all causes)", lbl),
		Compactions: reg.NewCounter("clued_rcu_compactions_total",
			"snapshot compactions reclaiming dead slots", lbl),
		Defensive: reg.NewCounter("clued_rcu_defensive_total",
			"defensive rebuilds: entry vanished under a patch", lbl),
		FallbacksBroad: reg.NewCounter("clued_rcu_fallbacks_broad_total",
			"Apply fallbacks: affected-entry set rivaled the table", lbl),
		FallbacksDict: reg.NewCounter("clued_rcu_fallbacks_dict_total",
			"Apply fallbacks: compressed next-hop dictionary would overflow", lbl),
		FallbacksNodes: reg.NewCounter("clued_rcu_fallbacks_nodes_total",
			"Apply fallbacks: compressed edit rewrote a table-rivaling node share", lbl),
	})
	// Snapshot memory accounting: gauges read the live snapshot
	// at scrape time, so a recompile that flips the layout (or a
	// compaction that shrinks the slot tables) shows up without
	// any instrumentation on the write path.
	for _, g := range []struct {
		name, help string
		read       func(fastpath.MemStats) uint64
	}{
		{"clued_fastpath_slot_bytes", "fastpath snapshot clue slot-table bytes",
			func(m fastpath.MemStats) uint64 { return uint64(m.SlotBytes) }},
		{"clued_fastpath_slot_fill_permille", "fastpath snapshot clue slot-table fill: entries per 1000 allocated slots",
			func(m fastpath.MemStats) uint64 {
				if m.SlotCapacity == 0 {
					return 0
				}
				return uint64(1000 * m.Entries / m.SlotCapacity)
			}},
		{"clued_fastpath_trie_index_bytes", "fastpath snapshot trie index bytes (tries + value dictionaries)",
			func(m fastpath.MemStats) uint64 { return uint64(m.TrieIndexBytes()) }},
		{"clued_fastpath_resume_bytes", "fastpath snapshot delegate resume-handle bytes",
			func(m fastpath.MemStats) uint64 { return uint64(m.ResumeBytes) }},
		{"clued_fastpath_compressed", "1 when the live snapshot uses the entropy-compressed trie layout",
			func(m fastpath.MemStats) uint64 {
				if m.Compressed {
					return 1
				}
				return 0
			}},
	} {
		read := g.read
		reg.NewGauge(g.name, g.help,
			func() uint64 { return read(fp.Snapshot().MemStats()) }, lbl)
	}
}

// config is one clued run, fully specified (main fills it from flags; the
// tests construct it directly).
type config struct {
	routers   int
	packets   int
	timeout   time.Duration
	faultRate float64
	faultSeed int64
	verbose   bool
	useV6     bool
	useFast   bool
	// sequential sends each packet only after the previous one was
	// delivered — deterministic learning order, used by the parity tests.
	sequential bool
	// workers > 1 runs each router's data path as a sharded pipeline:
	// that many socket readers and ring-fed workers per router.
	workers int
	// batchio batches socket I/O through sendmmsg/recvmmsg where the
	// platform supports it; false forces the one-datagram-per-syscall
	// fallback (the mode the cluster benchmark compares against).
	batchio bool
	// metricsAddr serves /metrics (Prometheus) and /trace on this address
	// while the daemon runs; empty disables. onMetricsReady, when set, is
	// called with the bound address (metricsAddr may use port 0).
	metricsAddr    string
	onMetricsReady func(addr string)
	// linger keeps the metrics endpoint up this long after the run
	// completes, so a scraper can collect the final counters.
	linger time.Duration
}

// routerReport is one router's final numbers — read from the telemetry
// registry, the same store the /metrics endpoint serves, so the shutdown
// table and a last scrape agree exactly.
type routerReport struct {
	name     string
	packets  uint64
	refs     uint64
	outcomes [core.NumOutcomes]uint64
	malformed, noRoute, expired,
	sendFail, sendRetry, sendDrop uint64
	entries int
	learned int
}

// result is what a completed run reports back.
type result struct {
	delivered   int
	interrupted bool
	routers     []routerReport
	faultCounts string // empty when injection was off
	// Sums of the per-worker pipeline counters across all routers;
	// zero when -workers was 1.
	workerPackets uint64
	workerErrors  uint64
}

// run builds the chain, pushes cfg.packets through it, and reports. It
// returns cleanly on context cancellation (result.interrupted).
func run(ctx context.Context, cfg config) (*result, error) {
	reg := telemetry.NewRegistry()
	tracer := telemetry.NewHopTracer(traceCapacity)

	// Optional metrics endpoint, up before the first packet.
	var srv *http.Server
	var srvErr = make(chan error, 1)
	if cfg.metricsAddr != "" {
		ln, err := net.Listen("tcp", cfg.metricsAddr)
		if err != nil {
			return nil, fmt.Errorf("metrics listener: %w", err)
		}
		mux := http.NewServeMux()
		mux.Handle("/metrics", reg.Handler())
		mux.HandleFunc("/trace", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			_ = tracer.WriteTail(w, 200)
		})
		srv = &http.Server{Handler: mux}
		//cluevet:ignore - joined externally: the deferred srv.Close unblocks Serve, and srvErr is read below
		go func() { srvErr <- srv.Serve(ln) }()
		defer srv.Close()
		if cfg.onMetricsReady != nil {
			cfg.onMetricsReady(ln.Addr().String())
		}
	}

	// Build the chain topology and its forwarding tables.
	top := routing.NewTopology()
	names := routing.Chain(top, "r", cfg.routers)
	host := ip.MustParseAddr("204.17.33.40")
	lengths := []int{8, 16, 24}
	width := 32
	if cfg.useV6 {
		host = ip.MustParseAddr("2001:db8:17:33::40")
		lengths = []int{32, 48, 64}
		width = 128
	}
	if err := routing.NestedOrigination(top, names[cfg.routers-1], host,
		lengths, []int{-1, cfg.routers / 2, 2}); err != nil {
		return nil, err
	}
	for i, name := range names {
		for k := 0; k < 10; k++ {
			var p ip.Prefix
			if cfg.useV6 {
				base := ip.AddrFrom128(uint64(0x2002+i*3+k)<<48, 0)
				p = ip.PrefixFrom(base, 32+(k*3)%9)
			} else {
				base := ip.AddrFrom32(uint32(20+i*3+k) << 24)
				p = ip.PrefixFrom(base, 8+(k*3)%9)
			}
			if err := top.Originate(name, p); err != nil {
				return nil, err
			}
		}
	}
	tables := top.ComputeTables()

	// One shared injector: the wire is one medium, so the reorder holdback
	// and the stale-clue memory span all links, as they would on a bus.
	var inj *fault.Injector
	if cfg.faultRate > 0 {
		rates := map[fault.Class]float64{
			fault.ClassAdversarial: cfg.faultRate,
			fault.ClassStrip:       cfg.faultRate,
			fault.ClassStale:       cfg.faultRate,
		}
		for _, c := range fault.TransportClasses {
			rates[c] = cfg.faultRate
		}
		inj = fault.New(fault.Config{Seed: cfg.faultSeed, Width: width, Rates: rates})
	}

	// Start one UDP socket per router.
	done := make(chan ip.Addr, cfg.packets*2)
	routers := make(map[string]*udpRouter, len(names))
	addrs := make(map[string]*net.UDPAddr, len(names))
	for _, name := range names {
		conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			return nil, fmt.Errorf("listen: %w", err)
		}
		defer conn.Close()
		_ = conn.SetReadBuffer(4 << 20) // absorb bursts; kernel clamps to rmem_max
		addrs[name] = conn.LocalAddr().(*net.UDPAddr)
		tab := tables[name]
		tr := tab.Trie()
		ct := core.MustNewTable(core.Config{
			Method: core.Simple, // sound for any clue a wire can carry
			Engine: lookup.NewPatricia(tr),
			Local:  tr,
			Learn:  true,
			// Every learned clue is kept forever (§3.4); the cap keeps
			// an adversarial wire from growing the table without bound.
			LearnLimit: 1 << 12,
		})
		bc := batchio.New(conn)
		bc.SetBatching(cfg.batchio)
		r := &udpRouter{
			name:    name,
			conn:    conn,
			bconn:   bc,
			table:   tab,
			inj:     inj,
			verbose: cfg.verbose,
			workers: cfg.workers,
			done:    done,
			tel:     newRouterTel(reg, name, cfg.workers),
			tracer:  tracer,
		}
		ct.SetTelemetry(r.tel.pm) // Process records outcomes and refs/packet
		if cfg.useFast {
			r.fast = fastpath.NewRCU(ct)
			registerFastpathMetrics(reg, name, r.fast)
			r.clues = r.fast
		} else {
			r.clues = core.NewConcurrentTable(ct)
		}
		fwd := r.clues
		reg.NewGauge("clued_table_entries",
			"current clue-table entries", func() uint64 { return uint64(fwd.Len()) },
			telemetry.L("router", name))
		reg.NewGauge("clued_learned_entries",
			"clue-table entries learned on the fly", func() uint64 { return uint64(fwd.Learned()) },
			telemetry.L("router", name))
		routers[name] = r
	}
	var serveWG sync.WaitGroup
	serveCtx, cancelServe := context.WithCancel(ctx)
	// stopServe is the event-driven shutdown: cancel the context, then
	// unblock every reader parked in a kernel read — no poll interval,
	// so shutdown latency is the cost of a deadline set, not up to 200 ms
	// of deadline polling (the shutdown-latency test pins this).
	stopServe := func() {
		cancelServe()
		for _, r := range routers {
			r.unblock()
		}
	}
	defer stopServe()
	for _, r := range routers {
		r.peers = make(map[string]*peerLink)
		for name, a := range addrs {
			r.peers[name] = &peerLink{name: name, addr: a}
		}
		serveWG.Add(1)
		go func(r *udpRouter) { defer serveWG.Done(); r.serve(serveCtx) }(r)
	}
	fmt.Printf("chain of %d UDP routers on 127.0.0.1 (%s .. %s)\n",
		cfg.routers, addrs[names[0]], addrs[names[cfg.routers-1]])

	// Inject packets at the head of the chain.
	src, err := net.DialUDP("udp4", nil, addrs[names[0]])
	if err != nil {
		return nil, err
	}
	defer src.Close()
	delivered := 0
	interrupted := false
	deadline := time.After(cfg.timeout)
	marshal := func(i int) ([]byte, error) {
		if cfg.useV6 {
			dest := host.WithBit(120+i%8, byte(i>>3)&1)
			h := &header.IPv6{
				HopLimit: 32, NextHeader: 17,
				Src: ip.MustParseAddr("2001:db8::1"), Dst: dest,
			}
			return h.Marshal(4)
		}
		dest := ip.AddrFrom32(host.Uint32()&^uint32(0xFF) | uint32(i%64))
		h := &header.IPv4{
			TTL: 32, Protocol: 17, ID: uint16(i),
			Src: ip.MustParseAddr("10.0.0.1"), Dst: dest,
		}
		return h.Marshal(4)
	}
send:
	for i := 0; i < cfg.packets; i++ {
		b, err := marshal(i)
		if err != nil {
			return nil, err
		}
		b = append(b, "ping"...)
		if _, err := src.Write(b); err != nil {
			return nil, err
		}
		if cfg.sequential {
			// Lock-step: the next packet leaves only after this one lands,
			// so learning happens in a deterministic order.
			select {
			case <-done:
				delivered++
			case <-ctx.Done():
				interrupted = true
				break send
			case <-deadline:
				break send
			}
		}
	}

	// Wait for deliveries. Without faults, every packet must arrive before
	// the timeout. With faults, the wire legitimately eats packets (drop,
	// truncation, garbage), so the run ends at quiescence: no delivery for
	// a grace period, or the timeout, whichever is first.
	quiet := 1500 * time.Millisecond
wait:
	for !interrupted && delivered < cfg.packets {
		if cfg.sequential {
			break // sequential mode already accounted every delivery
		}
		idle := time.After(quiet)
		select {
		case <-done:
			delivered++
		case <-ctx.Done():
			log.Print("interrupted; shutting down")
			interrupted = true
			break wait
		case <-deadline:
			break wait
		case <-idle:
			if inj != nil {
				break wait // fault mode: the wire has gone quiet
			}
		}
	}
	// Quiesce the routers before reading the registry: once serve loops
	// exit, every counter is final, so the shutdown tables and any /metrics
	// scrape during the linger window see identical numbers.
	stopServe()
	serveWG.Wait()

	res := &result{delivered: delivered, interrupted: interrupted}
	for _, name := range names {
		r := routers[name]
		rep := routerReport{
			name:      name,
			packets:   r.tel.pm.Packets(),
			refs:      r.tel.pm.Refs(),
			malformed: r.tel.malformed.Value(),
			noRoute:   r.tel.noRoute.Value(),
			expired:   r.tel.expired.Value(),
			sendFail:  r.tel.sendFail.Value(),
			sendRetry: r.tel.sendRetry.Value(),
			sendDrop:  r.tel.sendDrop.Value(),
			entries:   r.clues.Len(),
			learned:   r.clues.Learned(),
		}
		for i := 0; i < core.NumOutcomes; i++ {
			rep.outcomes[i] = r.tel.pm.OutcomeCount(i)
		}
		res.routers = append(res.routers, rep)
		for _, c := range r.tel.workerPkts {
			res.workerPackets += c.Value()
		}
		for _, c := range r.tel.workerErrs {
			res.workerErrors += c.Value()
		}
	}
	if inj != nil {
		res.faultCounts = fmt.Sprint(inj.Counts())
	}

	if srv != nil && cfg.linger > 0 && !interrupted {
		fmt.Printf("lingering %v for a final /metrics scrape\n", cfg.linger)
		select {
		case <-time.After(cfg.linger):
		case <-ctx.Done():
			res.interrupted = true
		case err := <-srvErr:
			return nil, fmt.Errorf("metrics server: %w", err)
		}
	}
	return res, nil
}

// report prints the final statistics tables from a run's registry views.
func report(w io.Writer, cfg config, res *result) {
	fmt.Fprintf(w, "delivered %d/%d packets end to end\n\n", res.delivered, cfg.packets)
	tab := mem.NewTable("Router", "Packets", "Refs", "Refs/packet",
		"Malformed", "No-route", "Expired", "Send-fail", "Send-retry", "Send-drop", "Entries", "Learned")
	for _, s := range res.routers {
		perPkt := 0.0
		if s.packets > 0 {
			perPkt = float64(s.refs) / float64(s.packets)
		}
		tab.AddRow(s.name, fmt.Sprint(s.packets), fmt.Sprint(s.refs),
			fmt.Sprintf("%.2f", perPkt), fmt.Sprint(s.malformed),
			fmt.Sprint(s.noRoute), fmt.Sprint(s.expired),
			fmt.Sprint(s.sendFail), fmt.Sprint(s.sendRetry), fmt.Sprint(s.sendDrop),
			fmt.Sprint(s.entries), fmt.Sprint(s.learned))
	}
	fmt.Fprintln(w, tab.String())

	labels := core.OutcomeLabels()
	otab := mem.NewTable(append([]string{"Router"}, labels...)...)
	for _, s := range res.routers {
		row := make([]string, 0, len(labels)+1)
		row = append(row, s.name)
		for i := range labels {
			row = append(row, fmt.Sprint(s.outcomes[i]))
		}
		otab.AddRow(row...)
	}
	fmt.Fprintln(w, otab.String())

	if res.faultCounts != "" {
		fmt.Fprintf(w, "injected faults: %v (undelivered: %d dropped/mangled on the wire)\n",
			res.faultCounts, cfg.packets-res.delivered)
	} else {
		fmt.Fprintln(w, "(the first router sees clue-less packets; downstream routers resolve")
		fmt.Fprintln(w, " learned clues in about one reference each — the paper's effect, on UDP)")
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("clued: ")
	var (
		nRouters    = flag.Int("routers", 6, "routers in the chain (>= 2)")
		packets     = flag.Int("packets", 100, "packets to send through the chain")
		timeout     = flag.Duration("timeout", 10*time.Second, "delivery deadline")
		faultRate   = flag.Float64("faults", 0, "per-packet fault probability per class (0 disables injection)")
		faultSeed   = flag.Int64("faultseed", 1, "fault injector seed")
		verbose     = flag.Bool("v", false, "log every hop")
		useV6       = flag.Bool("v6", false, "use IPv6 headers (7-bit clue in a hop-by-hop option)")
		useFast     = flag.Bool("fastpath", false, "route through compiled fastpath snapshots (internal/fastpath) instead of interpreted clue tables")
		sequential  = flag.Bool("seq", false, "send each packet only after the previous one was delivered (deterministic learning order)")
		workers     = flag.Int("workers", 1, "pipeline workers (and socket readers) per router; 1 is the serial loop")
		useBatchIO  = flag.Bool("batchio", true, "batch socket I/O with sendmmsg/recvmmsg where supported; false forces one datagram per syscall")
		pprofAddr   = flag.String("pprof", "", "listen address for net/http/pprof, e.g. localhost:6060 (empty disables)")
		metricsAddr = flag.String("metrics", "", "listen address for /metrics (Prometheus) and /trace, e.g. localhost:9090 (empty disables)")
		linger      = flag.Duration("linger", 0, "keep the -metrics endpoint up this long after the run, for a final scrape")

		// Cluster node mode (see node.go and internal/cluster): -node
		// turns the process into one hop of a multi-daemon topology.
		nodeName    = flag.String("node", "", "cluster node mode: run as this single node of a -shape topology")
		shape       = flag.String("shape", "chain", "cluster topology: chain or mesh (node mode)")
		nodes       = flag.Int("nodes", 3, "cluster node count (node mode)")
		prefixes    = flag.Int("prefixes", 2000, "cluster universe prefix count (node mode)")
		clusterSeed = flag.Int64("clusterseed", 1, "cluster universe/topology seed (node mode)")
		method      = flag.String("method", "simple", "clue method of non-head chain nodes: simple or advance (node mode)")
		layout      = flag.String("layout", "auto", "fastpath trie layout: auto, flat or compressed (node mode)")
	)
	flag.Parse()
	if *workers < 1 {
		log.Fatal("-workers must be at least 1")
	}
	if *nodeName != "" {
		m, err := cluster.ParseMethod(*method)
		if err != nil {
			log.Fatal(err)
		}
		l, err := cluster.ParseLayout(*layout)
		if err != nil {
			log.Fatal(err)
		}
		addr := *metricsAddr
		if addr == "" {
			addr = "127.0.0.1:0"
		}
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		os.Exit(runNode(ctx, nodeConfig{
			name: *nodeName,
			spec: cluster.Spec{
				Shape:    cluster.Shape(*shape),
				Nodes:    *nodes,
				Prefixes: *prefixes,
				Seed:     *clusterSeed,
				Method:   m,
				Layout:   l,
				Workers:  *workers,
				BatchIO:  *useBatchIO,
			},
			metricsAddr: addr,
			verbose:     *verbose,
		}))
	}
	if *nRouters < 2 {
		log.Fatal("-routers must be at least 2")
	}
	if *pprofAddr != "" {
		// Opt-in profiling: the blank net/http/pprof import registers the
		// /debug/pprof/ handlers on the default mux.
		//cluevet:ignore - process-lifetime debug listener by design; it dies with the daemon
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("pprof listener: %v", err)
			}
		}()
		fmt.Printf("pprof listening on http://%s/debug/pprof/\n", *pprofAddr)
	}

	// Graceful shutdown on SIGINT/SIGTERM: stop serving, print the final
	// statistics, exit nonzero if the run was cut short.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := config{
		routers:    *nRouters,
		packets:    *packets,
		timeout:    *timeout,
		faultRate:  *faultRate,
		faultSeed:  *faultSeed,
		verbose:    *verbose,
		useV6:      *useV6,
		useFast:    *useFast,
		sequential: *sequential,
		workers:    *workers,
		batchio:    *useBatchIO,
		linger:     *linger,
	}
	if *metricsAddr != "" {
		cfg.metricsAddr = *metricsAddr
		cfg.onMetricsReady = func(addr string) {
			fmt.Printf("metrics on http://%s/metrics, hop trace on http://%s/trace\n", addr, addr)
		}
	}
	res, err := run(ctx, cfg)
	if err != nil {
		log.Fatal(err)
	}
	report(os.Stdout, cfg, res)

	switch {
	case res.interrupted:
		os.Exit(1)
	case res.delivered < cfg.packets && cfg.faultRate == 0:
		log.Printf("timeout: only %d of %d packets delivered", res.delivered, cfg.packets)
		os.Exit(1)
	case cfg.faultRate > 0 && res.delivered == 0:
		log.Print("fault run delivered nothing — the chain is broken, not degraded")
		os.Exit(1)
	}
}
