package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// Spans are recorded from the benchmark's own goroutines, around each
// call into a layer; nothing inside internal/ is instrumented. A span
// names the layer, the batch (or burst) it served and the span that
// caused it, so a layer's self time is its span minus its children.

// layer identifies what a span timed. The names are the module whose
// exported function the span brackets.
type layer uint8

const (
	layerBatch   layer = iota // one pass of the forwarding loop over a batch (root)
	layerPeek                 // header.PeekIPv4 over the batch
	layerProcess              // fastpath.RCU.ProcessBatch
	layerRewrite              // header.RewriteClueIPv4 over the batch
	layerApply                // fastpath.RCU.Apply of one burst (root, writer goroutine)
	layerSend                 // batchio.Writer.Send (root, sender goroutine)
	layerRecv                 // batchio.Reader.Recv (root, collector goroutine)
	numLayers
)

var layerNames = [numLayers]string{
	"bench.batch", "header.peek", "fastpath.process", "header.rewrite",
	"fastpath.apply", "batchio.send", "batchio.recv",
}

// span is one timed call. seq is its index in recording order on its
// goroutine's tracer; parent is the seq of the enclosing span, or -1.
type span struct {
	start, end int64 // ns on the run clock
	parent     int64
	batch      uint32
	layer      layer
}

// traceRing is how many spans a tracer keeps: the last 2^20. The
// per-layer sums cover every span ever recorded, so the layer budget
// does not depend on the ring.
const traceRing = 1 << 20

// tracer is one goroutine's span recorder: a preallocated ring written
// without locks or allocation, plus running per-layer totals. Each
// recording goroutine owns its own tracer.
type tracer struct {
	name  string
	ring  []span
	n     int64 // spans recorded so far; next seq
	sumNs [numLayers]int64
	count [numLayers]int64 // spans
	pkts  [numLayers]int64 // packets (or route ops) those spans served
}

func newTracer(name string) *tracer {
	return &tracer{name: name, ring: make([]span, traceRing)}
}

// add records one finished span that served pkts packets, and returns
// its seq.
func (t *tracer) add(l layer, parent int64, batch uint32, start, end int64, pkts int) int64 {
	seq := t.n
	t.ring[seq&(traceRing-1)] = span{start: start, end: end, parent: parent, batch: batch, layer: l}
	t.n++
	t.sumNs[l] += end - start
	t.count[l]++
	t.pkts[l] += int64(pkts)
	return seq
}

// writeSpans writes the retained spans of every tracer as tab-separated
// lines: goroutine, seq, parent seq, layer, batch, start ns, end ns.
// Rows are in recording order: a root span, then its children.
func writeSpans(path string, tracers ...*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace-out: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "goroutine\tseq\tparent\tlayer\tbatch\tstart_ns\tend_ns")
	for _, t := range tracers {
		if t == nil {
			continue
		}
		for seq := max(t.n-traceRing, 0); seq < t.n; seq++ {
			s := &t.ring[seq&(traceRing-1)]
			fmt.Fprintf(w, "%s\t%d\t%d\t%s\t%d\t%d\t%d\n",
				t.name, seq, s.parent, layerNames[s.layer], s.batch, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace-out: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace-out: %w", err)
	}
	return nil
}

// clock is the run's monotonic clock: nanoseconds since the process
// started measuring. time.Since on a monotonic epoch is a single clock
// read, cheaper than time.Now, which matters at five stamps per batch.
type clock struct{ epoch time.Time }

func (c clock) now() int64 { return int64(time.Since(c.epoch)) }
