package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/batchio"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fastpath"
	"repro/internal/header"
	"repro/internal/ip"
)

// wire-chain3: three real clued processes in a chain over loopback UDP,
// driven by the benchmark's own generator — one sender goroutine, one
// collector goroutine, one socket each. The head (c0) receives
// clue-less packets and adds the first clue, c1 is the interior hop
// that rewrites the clue in place, c2 delivers to the sink socket the
// collector reads.

const (
	wireNodes  = 3
	wireBurst  = 64 // closed-loop send batch
	openBurst  = 16 // open-loop bursts never exceed this
	drainLimit = 2 * time.Second
	// wireLatCap bounds latency samples per pass (4 MiB of uint32).
	wireLatCap = 1 << 20
)

// wirePhase tells the collector where to file the latency of a packet:
// samples are grouped into passes by the time stamped in the packet.
// Published once and never written again; while none is published
// (warm-up, closed loop, drains) nothing is recorded.
type wirePhase struct {
	start, passNs int64
}

// wireGen is the generator: the sender side's state is touched only by
// the goroutine calling the send methods, the collector's only by
// collect; they share the atomics.
type wireGen struct {
	clk   clock
	flows int
	dests []ip.Addr
	tmpl  [][]byte // per flow: 20-byte clue-less IPv4 header
	magic []byte   // the stamp's leading bytes, to validate deliveries

	src *net.UDPConn
	sw  *batchio.Writer
	rd  *batchio.Reader

	// sender
	seq     []uint32
	frames  [][]byte
	scratch [][]byte
	sent    uint64
	short   int64   // Send calls that took fewer frames than offered
	lateNs  []int64 // open loop: actual send − due, per burst
	sendTr  *tracer

	// shared
	received atomic.Uint64
	phase    atomic.Pointer[wirePhase]
	tracing  atomic.Bool

	// collector
	lat       [][]uint32 // open-loop latency samples, per pass; allocated before the phase is published
	lastSeq   []int64
	reordered int64
	bad       int64 // deliveries with a wrong stamp or destination
	recvTr    *tracer
}

func newWireGen(clk clock, c *cluster.Cluster, seed int64, flows int) (*wireGen, error) {
	g := &wireGen{clk: clk, flows: flows, magic: cluster.AppendStamp(nil, 0, 0, 0)[:4]}
	sampler := c.Spec.Universe().DestSampler(seed+1, 1.2)
	src := ip.AddrFrom4(10, 0, 0, 1)
	for f := 0; f < flows; f++ {
		d := sampler.Next()
		h := header.IPv4{TTL: 64, Protocol: 17, Src: src, Dst: d}
		b, err := h.Marshal(cluster.StampLen)
		if err != nil {
			return nil, fmt.Errorf("wire: marshal flow %d: %w", f, err)
		}
		g.dests = append(g.dests, d)
		g.tmpl = append(g.tmpl, b)
	}
	conn, err := net.DialUDP("udp4", nil, c.Head().Addr)
	if err != nil {
		return nil, fmt.Errorf("wire: dial head: %w", err)
	}
	g.src = conn
	bs := batchio.New(conn)
	bs.SetBatching(true)
	g.sw = bs.NewWriter()
	bsink := batchio.New(c.Sink)
	bsink.SetBatching(true)
	g.rd = bsink.NewReader()

	g.seq = make([]uint32, flows)
	g.lastSeq = make([]int64, flows)
	for i := range g.lastSeq {
		g.lastSeq[i] = -1
	}
	g.frames = make([][]byte, 0, wireBurst)
	g.scratch = make([][]byte, wireBurst)
	for i := range g.scratch {
		g.scratch[i] = make([]byte, 0, len(g.tmpl[0])+cluster.StampLen)
	}
	return g, nil
}

// collect reads the sink until its read deadline is popped. Every
// delivery is checked: the stamp must be ours and the destination must
// be the one its flow was sent to.
func (g *wireGen) collect() {
	bufs := make([][]byte, wireBurst)
	sizes := make([]int, wireBurst)
	for i := range bufs {
		bufs[i] = make([]byte, 2048)
	}
	var calls uint32
	for {
		var t0 int64
		tracing := g.tracing.Load()
		if tracing {
			t0 = g.clk.now()
		}
		k, err := g.rd.Recv(bufs, sizes)
		if err != nil {
			return
		}
		now := g.clk.now()
		if tracing {
			// The span covers the wait for readiness too; the per-packet
			// cost below is read from busy collectors, where there is none.
			g.recvTr.add(layerRecv, -1, calls, t0, now, k)
		}
		calls++
		ph := g.phase.Load()
		for i := 0; i < k; i++ {
			pkt := bufs[i][:sizes[i]]
			dst, _, _, hl, ok := header.PeekIPv4(pkt)
			if !ok || len(pkt)-hl < cluster.StampLen || !bytes.Equal(pkt[hl:hl+4], g.magic) {
				g.bad++
				continue
			}
			p := pkt[hl:]
			flow := binary.BigEndian.Uint32(p[4:])
			seq := binary.BigEndian.Uint32(p[8:])
			stamp := int64(binary.BigEndian.Uint64(p[12:]))
			if int(flow) >= g.flows || dst != g.dests[flow] {
				g.bad++
				continue
			}
			if int64(seq) <= g.lastSeq[flow] {
				g.reordered++
			} else {
				g.lastSeq[flow] = int64(seq)
			}
			if ph != nil && stamp >= ph.start {
				if pass := int((stamp - ph.start) / ph.passNs); pass < len(g.lat) && len(g.lat[pass]) < wireLatCap {
					g.lat[pass] = append(g.lat[pass], uint32(min(now-stamp, int64(^uint32(0)))))
				}
			}
		}
		g.received.Add(uint64(k))
	}
}

// push appends flow's next packet, stamped with ns, to the pending
// batch.
func (g *wireGen) push(flow int, ns int64) {
	buf := append(g.scratch[len(g.frames)][:0], g.tmpl[flow]...)
	g.frames = append(g.frames, cluster.AppendStamp(buf, uint32(flow), g.seq[flow], ns))
	g.seq[flow]++
}

// flush sends the pending batch.
func (g *wireGen) flush() error {
	for off := 0; off < len(g.frames); {
		var t0 int64
		if g.sendTr != nil {
			t0 = g.clk.now()
		}
		n, err := g.sw.Send(g.frames[off:], nil)
		if g.sendTr != nil {
			g.sendTr.add(layerSend, -1, uint32(g.sent), t0, g.clk.now(), n)
		}
		if n < len(g.frames)-off {
			g.short++
		}
		off += n
		g.sent += uint64(n)
		if err != nil {
			return fmt.Errorf("wire: send: %w", err)
		}
	}
	g.frames = g.frames[:0]
	return nil
}

// drain waits until everything sent has been collected, or the wire has
// been quiet too long; it returns how many packets are missing.
func (g *wireGen) drain() uint64 {
	deadline := time.Now().Add(drainLimit)
	for g.received.Load() < g.sent && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	return g.sent - g.received.Load()
}

// warm sends every flow once, a window at a time, so c1 and c2 learn
// each flow's clue before anything is timed.
func (g *wireGen) warm(window int) error {
	for f := 0; f < g.flows; f++ {
		g.push(f, 0)
		if len(g.frames) == wireBurst || f == g.flows-1 {
			if err := g.flush(); err != nil {
				return err
			}
			for g.sent-g.received.Load() >= uint64(window) {
				time.Sleep(50 * time.Microsecond)
			}
		}
	}
	if lost := g.drain(); lost != 0 {
		return fmt.Errorf("wire: %d of %d warm-up packets were not delivered", lost, g.flows)
	}
	return nil
}

// closedLoop keeps at most window packets in flight for passes × passDur
// and returns delivered packets per second for each pass. Backpressure
// instead of overrun: this is the chain's zero-loss rate.
func (g *wireGen) closedLoop(passes int, passDur time.Duration, window int) ([]float64, error) {
	pps := make([]float64, 0, passes)
	flow := 0
	for p := 0; p < passes; p++ {
		start := g.clk.now()
		r0 := g.received.Load()
		for g.clk.now()-start < int64(passDur) {
			if g.sent-g.received.Load() >= uint64(window) {
				time.Sleep(50 * time.Microsecond)
				continue
			}
			now := g.clk.now()
			for i := 0; i < wireBurst; i++ {
				g.push(flow, now)
				if flow++; flow == g.flows {
					flow = 0
				}
			}
			if err := g.flush(); err != nil {
				return nil, err
			}
		}
		pps = append(pps, float64(g.received.Load()-r0)/(float64(g.clk.now()-start)/1e9))
	}
	return pps, nil
}

// openLoop sends at a fixed rate for passes × passDur, each packet
// stamped with the time it was due, not the time it left: a generator
// or a chain that falls behind charges the delay to every packet
// queued behind the stall.
func (g *wireGen) openLoop(ph *wirePhase, passes int, rate float64) error {
	sched := newSchedule(ph.start, rate)
	end := ph.start + int64(passes)*ph.passNs
	var i int64
	flow := 0
	for {
		now := g.clk.now()
		if sched.due(i) >= end {
			return nil
		}
		n := sched.dueBy(now) - i
		if n <= 0 {
			time.Sleep(time.Duration(sched.due(i) - now))
			continue
		}
		n = min(n, openBurst)
		g.lateNs = append(g.lateNs, now-sched.due(i))
		for ; n > 0 && sched.due(i) < end; n-- {
			g.push(flow, sched.due(i))
			i++
			if flow++; flow == g.flows {
				flow = 0
			}
		}
		if err := g.flush(); err != nil {
			return err
		}
	}
}

// hopCounters is one scrape of one clued's /metrics, reduced to what
// the benchmark reads.
type hopCounters struct {
	packets, refs, fd                       uint64
	malformed, noRoute, sendDrop, sendRetry uint64
	bytes, entries                          uint64 // snapshot footprint and clue-entry gauges
}

func scrapeHop(n *cluster.Node) (hopCounters, error) {
	m, err := n.ScrapeMetrics()
	if err != nil {
		return hopCounters{}, fmt.Errorf("wire: scrape %s: %w", n.Name, err)
	}
	e := func(kind string) uint64 { return m.Value("clued_errors_total", "router", n.Name, "kind", kind) }
	return hopCounters{
		packets:   m.Value("clued_refs_per_packet_count", "router", n.Name),
		refs:      m.Value("clued_refs_per_packet_sum", "router", n.Name),
		fd:        m.Value("clued_packets_total", "router", n.Name, "outcome", core.OutcomeFD.String()),
		malformed: e("malformed"), noRoute: e("no-route"), sendDrop: e("send-drop"), sendRetry: e("send-retry"),
		entries: m.Value("clued_table_entries", "router", n.Name),
		bytes: m.Value("clued_fastpath_slot_bytes", "router", n.Name) +
			m.Value("clued_fastpath_trie_index_bytes", "router", n.Name) +
			m.Value("clued_fastpath_resume_bytes", "router", n.Name),
	}, nil
}

// wireRig is one launched chain with its generator attached.
type wireRig struct {
	c    *cluster.Cluster
	g    *wireGen
	pids map[string]int
	wg   sync.WaitGroup
}

// close stops the collector, then the daemons, and waits for both.
func (r *wireRig) close() error {
	if r.g != nil {
		r.c.Sink.SetReadDeadline(time.Now())
		r.wg.Wait()
		r.g.src.Close()
	}
	return r.c.Close()
}

// launchWire starts the chain, attaches the generator and warms the
// learned clue tables, attributing the time to parts.
func launchWire(ctx context.Context, bin string, cfg runConfig, clk clock, sw *stopwatch) (*wireRig, error) {
	sz := cfg.sizes
	spec := cluster.Spec{
		Shape: cluster.ShapeChain, Nodes: wireNodes, Prefixes: sz.wirePrefixes, Seed: cfg.seed,
		Method: core.Advance, Layout: fastpath.LayoutAuto, Workers: 1, BatchIO: true,
	}
	c, err := cluster.Launch(ctx, bin, spec)
	if err != nil {
		return nil, err
	}
	rig := &wireRig{c: c}
	sw.lap("cluster.launch_s")
	if rig.pids, err = childNodes(); err == nil && len(rig.pids) != wireNodes {
		err = fmt.Errorf("wire: found %d clued children in /proc, want %d", len(rig.pids), wireNodes)
	}
	if err == nil {
		rig.g, err = newWireGen(clk, c, cfg.seed, sz.wireFlows)
	}
	if err != nil {
		rig.close()
		return nil, err
	}
	sw.lap("synth.dests_s")
	rig.wg.Add(1)
	go func() { defer rig.wg.Done(); rig.g.collect() }()
	if err := rig.g.warm(sz.wireWindow); err != nil {
		rig.close()
		return nil, err
	}
	sw.lap("cluster.warm_s")
	return rig, nil
}

// putHops reports each hop from outside: /metrics deltas over the
// measured phases (m0 → m1) and /proc CPU time over the closed loop
// (cpu0 → cpu1), where the chain is saturated.
func putHops(res *result, nodes []string, m0, m1 map[string]hopCounters, cpu0, cpu1 map[string]procCPU, closedPkts, closedWall float64) error {
	var refs, fdShare, bpp []float64
	var maxBusy, user, sys float64
	var errs hopCounters
	for i, name := range nodes {
		d0, d1 := m0[name], m1[name]
		pk := float64(d1.packets - d0.packets)
		if pk == 0 {
			return fmt.Errorf("wire: %s processed no packets", name)
		}
		r := float64(d1.refs-d0.refs) / pk
		if i == 0 {
			res.put("clued.c0_refs_per_pkt", single(r))
		} else {
			refs = append(refs, r)
			fdShare = append(fdShare, float64(d1.fd-d0.fd)/pk)
			if d1.entries == 0 {
				return fmt.Errorf("wire: %s learned no clue entries", name)
			}
			bpp = append(bpp, float64(d1.bytes)/float64(d1.entries))
		}
		cpu := cpu1[name].sub(cpu0[name])
		res.put(fmt.Sprintf("clued.c%d_cpu_us_per_pkt", i), single(cpu.total()*1e6/closedPkts))
		maxBusy = max(maxBusy, cpu.total()/closedWall)
		user += cpu.user
		sys += cpu.sys
		// Error counters are read since launch: a drop during warm-up is
		// a failure too.
		errs.malformed += d1.malformed
		errs.noRoute += d1.noRoute
		errs.sendDrop += d1.sendDrop
		errs.sendRetry += d1.sendRetry
	}
	res.fail(int64(errs.malformed), "datagrams a hop found malformed")
	res.fail(int64(errs.noRoute), "packets a hop had no route for")
	res.fail(int64(errs.sendDrop), "frames a hop dropped on send")
	res.put("clued.malformed", single(float64(errs.malformed)))
	res.put("clued.no_route", single(float64(errs.noRoute)))
	res.put("clued.send_drop", single(float64(errs.sendDrop)))
	res.put("clued.send_retry", single(float64(errs.sendRetry)))
	mean := func(v []float64) float64 {
		var s float64
		for _, x := range v {
			s += x
		}
		return s / float64(len(v))
	}
	res.put("refs_per_pkt", single(mean(refs)))
	res.put("clued.claim1_hit_share", single(mean(fdShare)))
	res.put("bytes_per_prefix", single(mean(bpp)))
	res.put("clued.max_cpu_busy_share", single(maxBusy))
	if user+sys > 0 {
		res.put("clued.sys_share", single(sys/(user+sys)))
	}
	return nil
}

// runWire measures wire-chain3.
func runWire(ctx context.Context, cfg runConfig) (res *result, err error) {
	sz := cfg.sizes
	clk := clock{epoch: time.Now()}

	// Set-up: build clued once, then launch + warm sz.setups times and
	// keep the last chain; setup_s is the build plus the median launch.
	build := setupParts{}
	sw := stopwatch{last: cfg.procStart, parts: build}
	if err := os.MkdirAll(cfg.buildDir, 0o755); err != nil {
		return nil, err
	}
	bin, err := cluster.BuildDaemon(cfg.buildDir)
	if err != nil {
		return nil, err
	}
	sw.lap("cluster.build_s")

	var rig *wireRig
	var launches []setupParts
	for i := 0; i < sz.wireSetups; i++ {
		if rig != nil {
			if err := rig.close(); err != nil {
				return nil, err
			}
		}
		parts := setupParts{}
		sw.parts = parts
		sw.last = time.Now()
		if rig, err = launchWire(ctx, bin, cfg, clk, &sw); err != nil {
			return nil, err
		}
		launches = append(launches, parts)
	}
	defer func() {
		if cerr := rig.close(); cerr != nil && err == nil {
			res, err = nil, cerr
		}
	}()
	sort.Slice(launches, func(i, j int) bool { return launches[i].total() < launches[j].total() })
	parts := launches[len(launches)/2]
	for k, v := range build {
		parts[k] += v
	}
	res = newResult()
	res.putSetup(parts)

	g, c := rig.g, rig.c
	scrapeAll := func() (map[string]hopCounters, error) {
		out := map[string]hopCounters{}
		for _, n := range c.Nodes {
			h, err := scrapeHop(n)
			if err != nil {
				return nil, err
			}
			out[n.Name] = h
		}
		return out, nil
	}
	cpuAll := func() (map[string]procCPU, error) {
		out := map[string]procCPU{}
		for name, pid := range rig.pids {
			_, cpu, err := procStat(pid)
			if err != nil {
				return nil, fmt.Errorf("wire: cpu of %s: %w", name, err)
			}
			out[name] = cpu
		}
		return out, nil
	}

	// The window is split evenly between the two phases, each cut into
	// sz.wirePasses passes. A traced run hands half of the closed-loop
	// passes to a second, traced closed loop.
	closedUn, closedTr, open := sz.wirePasses, 0, sz.wirePasses
	if cfg.trace {
		closedUn, closedTr = (sz.wirePasses+1)/2, sz.wirePasses/2
		g.recvTr = newTracer("collector")
	}
	sendTr := newTracer("sender")
	passDur := sz.window / time.Duration(2*sz.wirePasses)

	m0, err := scrapeAll()
	if err != nil {
		return nil, err
	}
	cpu0, err := cpuAll()
	if err != nil {
		return nil, err
	}
	self0, wall0, recv0 := selfCPU(), time.Now(), g.received.Load()

	unPPS, err := g.closedLoop(closedUn, passDur, sz.wireWindow)
	if err != nil {
		return nil, err
	}
	var trPPS []float64
	if closedTr > 0 {
		g.sendTr = sendTr
		g.tracing.Store(true)
		trPPS, err = g.closedLoop(closedTr, passDur, sz.wireWindow)
		g.tracing.Store(false)
		g.sendTr = nil
		if err != nil {
			return nil, err
		}
	}
	cpu1, err := cpuAll()
	if err != nil {
		return nil, err
	}
	closedWall := time.Since(wall0).Seconds()
	lost := g.drain()
	closedPkts := g.received.Load() - recv0

	g.lat = make([][]uint32, open)
	for i := range g.lat {
		g.lat[i] = make([]uint32, 0, wireLatCap)
	}
	ph := &wirePhase{start: clk.now(), passNs: int64(passDur)}
	g.phase.Store(ph)
	if err := g.openLoop(ph, open, sz.wireRate); err != nil {
		return nil, err
	}
	lost += g.drain()
	g.phase.Store(nil)
	self1, wallS := selfCPU(), time.Since(wall0).Seconds()
	m1, err := scrapeAll()
	if err != nil {
		return nil, err
	}
	// The collector is parked in Recv with nothing left to read; stop it
	// so its counters can be read.
	c.Sink.SetReadDeadline(time.Now())
	rig.wg.Wait()
	c.Sink.SetReadDeadline(time.Time{})

	res.attempted = int64(g.sent)
	res.passes = closedUn
	res.fail(int64(lost), "packets sent but never collected")
	res.fail(g.bad, "deliveries with a wrong stamp or destination")

	res.put("bench.fwd_pps", summarize(unPPS))
	for _, l := range g.lat {
		slices.Sort(l)
	}
	latCol := func(q float64) []float64 {
		out := make([]float64, 0, len(g.lat))
		for _, l := range g.lat {
			v, _ := quantile(l, q)
			out = append(out, float64(v)/1e3)
		}
		return out
	}
	res.put("bench.lat_p50_us", summarize(latCol(0.5)))
	res.put("bench.lat_p90_us", summarize(latCol(0.9)))
	res.put("bench.lat_p99_us", summarize(latCol(0.99)))
	res.put("bench.lat_p999_us", summarize(latCol(0.999)))
	slices.Sort(g.lateNs)
	late, _ := quantile(g.lateNs, 0.99)
	res.put("bench.gen_late_us_p99", summary{Median: float64(late) / 1e3, Samples: len(g.lateNs)})
	res.put("bench.gen_cpu_busy_share", single(self1.sub(self0).total()/wallS))
	res.put("cluster.reordered", single(float64(g.reordered)))
	res.put("batchio.send_short", single(float64(g.short)))

	if err := putHops(res, c.Spec.NodeNames(), m0, m1, cpu0, cpu1, float64(closedPkts), closedWall); err != nil {
		return nil, err
	}

	if cfg.trace {
		un, tr := summarize(unPPS), summarize(trPPS)
		res.put("bench.traced_fwd_pps", tr)
		res.put("bench.trace_overhead_share", single(1-tr.Median/un.Median))
		perPkt := func(t *tracer, l layer) (nsPerPkt, batchMean float64) {
			pk, calls := float64(t.pkts[l]), float64(t.count[l])
			if pk == 0 || calls == 0 {
				return 0, 0
			}
			return float64(t.sumNs[l]) / pk, pk / calls
		}
		ns, bm := perPkt(sendTr, layerSend)
		res.put("batchio.send_ns_per_pkt", single(ns))
		res.put("batchio.send_batch_mean", single(bm))
		ns, bm = perPkt(g.recvTr, layerRecv)
		res.put("batchio.recv_ns_per_pkt", single(ns))
		res.put("batchio.recv_batch_mean", single(bm))
		if cfg.traceOut != "" {
			if err := writeSpans(cfg.traceOut, sendTr, g.recvTr); err != nil {
				return nil, err
			}
		}
	}

	var rss float64
	for name, pid := range rig.pids {
		v, err := peakRSSMB(pid)
		if err != nil {
			return nil, fmt.Errorf("wire: rss of %s: %w", name, err)
		}
		rss += v
	}
	res.put("peak_rss_mb", single(rss))
	return res, nil
}
