package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fastpath"
	"repro/internal/ip"
	"repro/internal/lookup"
	"repro/internal/mem"
	"repro/internal/synth"
)

// scaleRecord is one cell of the modern-scale sweep written by
// -scalebench: a prefix count × {flat, compressed} layout, measured on
// modern-shaped tables (internal/synth ModernUniverse). The two numbers
// the acceptance gates read are BytesPerPrefix — the trie index only,
// per route of the two tries — and NsPerOp; TotalBytesPerPrefix beside
// it is the whole snapshot, slot tables included, per clue entry: what
// the router pays for each prefix its neighbour may send as a clue, and
// the figure the repository benchmark gates as bytes_per_prefix.
type scaleRecord struct {
	Name     string `json:"name"`
	Family   string `json:"family"`
	Layout   string `json:"layout"` // "flat" or "compressed"
	Prefixes int    `json:"prefixes"`

	Entries        int     `json:"entries"`
	LocalNodes     int     `json:"local_nodes"`
	SenderNodes    int     `json:"sender_nodes"`
	TrieIndexBytes int     `json:"trie_index_bytes"`
	BytesPerPrefix float64 `json:"bytes_per_prefix"`
	SlotBytes      int     `json:"slot_bytes"`
	DictBytes      int     `json:"dict_bytes"`
	ResumeBytes    int     `json:"resume_bytes"`
	TotalBytes     int     `json:"total_bytes"`

	TotalBytesPerPrefix float64 `json:"total_bytes_per_prefix"`

	BuildMs       float64 `json:"build_ms"`
	NsPerOp       float64 `json:"ns_per_op"`
	PacketsPerSec float64 `json:"packets_per_sec"`
	RefsPerPacket float64 `json:"refs_per_packet"`
}

func (r scaleRecord) sanitize() scaleRecord {
	r.BytesPerPrefix = finite(r.BytesPerPrefix)
	r.TotalBytesPerPrefix = finite(r.TotalBytesPerPrefix)
	r.BuildMs = finite(r.BuildMs)
	r.NsPerOp = finite(r.NsPerOp)
	r.PacketsPerSec = finite(r.PacketsPerSec)
	r.RefsPerPacket = finite(r.RefsPerPacket)
	return r
}

// parseCountList parses a comma-separated list of prefix counts; an
// empty string is an empty sweep, not an error (the IPv6 axis is
// optional).
func parseCountList(flagName, s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("%s: %q is not a prefix count >= 1", flagName, f)
		}
		out = append(out, n)
	}
	return out, nil
}

// scaleLayouts are the two snapshot representations every sweep point
// measures against each other.
var scaleLayouts = []struct {
	name   string
	layout fastpath.Layout
}{
	{"flat", fastpath.LayoutFlat},
	{"compressed", fastpath.LayoutCompressed},
}

// runScaleBench sweeps modern-shaped tables over the given per-family
// prefix counts, measuring each under both snapshot layouts, and writes
// the matrix to path. Everything is deterministic in seed; the committed
// BENCH_scale.json is regenerated with the default seed.
func runScaleBench(path string, seed int64, v4Counts, v6Counts []int) error {
	var records []scaleRecord
	sweep := func(family string, fam ip.Family, counts []int) {
		for _, count := range counts {
			cells := scaleCells(family, fam, count, seed)
			records = append(records, cells...)
			// Each cell holds two full tries plus the core table; drop
			// them before the next, larger point.
			runtime.GC()
		}
	}
	sweep("IPv4", ip.IPv4, v4Counts)
	sweep("IPv6", ip.IPv6, v6Counts)

	printScaleGates(records)

	buf, err := encodeScaleRecords(records)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %d records to %s\n", len(records), path)
	return nil
}

// scaleCells measures one sweep point under both layouts. The table,
// core preprocessing and workload are built once so the flat and
// compressed rows answer for exactly the same routes and packets — the
// refs/packet column must come out identical between them (the charge
// identity the differential tests pin).
func scaleCells(family string, fam ip.Family, count int, seed int64) []scaleRecord {
	// Universe slightly larger than the routers drawn from it, so two
	// views at divergence 0.02 both reach full size.
	u := synth.NewModernUniverse(seed, fam, count+count/16+64)
	sender := u.Router("scale-sender", count, 0.02)
	receiver := u.Router("scale-receiver", count, 0.02)
	st, rt := sender.Trie(), receiver.Trie()
	tab := core.MustNewTable(core.Config{
		Method: core.Advance, Engine: lookup.NewRegular(rt),
		Local: rt, Sender: st.Contains, Verify: true, SenderTrie: st,
	})
	tab.Preprocess(sender.Prefixes())

	// Warm all-hit workload, as in the wall-clock matrix.
	w := synth.NewWorkload(seed, sender)
	var dests []ip.Addr
	var clues []int
	for len(dests) < 4096 {
		d := w.Next()
		if bmp, _, ok := st.Lookup(d, nil); ok {
			dests = append(dests, d)
			clues = append(clues, bmp.Clue())
		}
	}
	routes := sender.Len() + receiver.Len()

	var out []scaleRecord
	for _, lt := range scaleLayouts {
		start := time.Now()
		snap := fastpath.CompileLayout(tab, lt.layout)
		buildMs := float64(time.Since(start).Microseconds()) / 1e3

		var refs mem.Counter
		for i := range dests {
			snap.Process(dests[i], clues[i], &refs)
		}
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				j := i % len(dests)
				snap.Process(dests[j], clues[j], nil)
			}
		})
		ns := float64(res.NsPerOp())

		ms := snap.MemStats()
		rec := scaleRecord{
			Name:     fmt.Sprintf("%s/%d/%s", family, count, lt.name),
			Family:   family,
			Layout:   lt.name,
			Prefixes: count,

			Entries:        ms.Entries,
			LocalNodes:     ms.LocalNodes,
			SenderNodes:    ms.SenderNodes,
			TrieIndexBytes: ms.TrieIndexBytes(),
			BytesPerPrefix: float64(ms.TrieIndexBytes()) / float64(routes),
			SlotBytes:      ms.SlotBytes,
			DictBytes:      ms.DictBytes,
			ResumeBytes:    ms.ResumeBytes,
			TotalBytes:     ms.TotalBytes(),

			TotalBytesPerPrefix: float64(ms.TotalBytes()) / float64(ms.Entries),

			BuildMs:       buildMs,
			NsPerOp:       ns,
			PacketsPerSec: 1e9 / ns,
			RefsPerPacket: float64(refs.Count()) / float64(len(dests)),
		}
		out = append(out, rec)
		fmt.Printf("%-24s %9d routes %9d nodes %7.2f B/route trie index %7.2f B/prefix in all %9.0f ms build %8.1f ns/op %7.2f refs/pkt\n",
			rec.Name, routes, ms.LocalNodes+ms.SenderNodes, rec.BytesPerPrefix, rec.TotalBytesPerPrefix,
			rec.BuildMs, rec.NsPerOp, rec.RefsPerPacket)
	}
	return out
}

// printScaleGates restates the two acceptance gates from the sweep's own
// rows: compressed bytes/prefix at the largest IPv4 point, and the
// lookup-time ratio between the largest and smallest compressed IPv4
// points. The committed BENCH_scale.json carries the same numbers.
func printScaleGates(records []scaleRecord) {
	var smallest, largest *scaleRecord
	for i := range records {
		r := &records[i]
		if r.Family != "IPv4" || r.Layout != "compressed" {
			continue
		}
		if smallest == nil || r.Prefixes < smallest.Prefixes {
			smallest = r
		}
		if largest == nil || r.Prefixes > largest.Prefixes {
			largest = r
		}
	}
	if largest == nil {
		return
	}
	fmt.Printf("gate: compressed IPv4 trie index at %d prefixes = %.2f B/route (target <= 8); whole snapshot %.2f B/prefix\n",
		largest.Prefixes, largest.BytesPerPrefix, largest.TotalBytesPerPrefix)
	if smallest != largest && smallest.NsPerOp > 0 {
		fmt.Printf("gate: lookup %d -> %d prefixes = %.2fx ns/op (target <= 1.5x)\n",
			smallest.Prefixes, largest.Prefixes, largest.NsPerOp/smallest.NsPerOp)
	}
}

// encodeScaleRecords sanitizes and marshals the sweep like the other
// cluebench artifacts.
func encodeScaleRecords(records []scaleRecord) ([]byte, error) {
	clean := make([]scaleRecord, len(records))
	for i, r := range records {
		clean[i] = r.sanitize()
	}
	buf, err := json.MarshalIndent(clean, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}
