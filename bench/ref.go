package main

import (
	"encoding/binary"
	"time"
)

// The reference data plane. This host is a slice of a shared machine:
// the same forwarding loop over the same tables runs anywhere between
// 8 M and 17 M packets per second from one minute to the next, as the
// neighbours' load on the shared core and caches comes and goes. A rate
// in packets per second therefore says more about the minute it was
// taken in than about the program.
//
// So every timed pass of the forwarding loop is followed by a short
// pass of this loop — the least a router could do with the same
// packets: verify the header checksum, index one direct-mapped table
// with the destination (the ideal of the paper: one memory reference,
// no search), rewrite TTL, clue byte and checksum. It is frozen: it
// calls nothing in internal/ and no later change should touch it. The
// end-to-end metric fwd_vs_ref is the forwarding loop's rate as a
// share of this loop's rate in the same quarter second, which cancels
// most of what the host does to both (README.md has the measurements).
// The raw rates are reported beside it as bench.fwd_pps and
// bench.ref_pps.
type refPlane struct {
	hdrs []byte   // the workload's pristine headers
	n    int      // packets in hdrs
	pos  int      // next packet
	tab  []uint32 // direct-mapped "next hop" table, power-of-two sized
	// lookups is how many independent table entries a packet reads: one
	// beside the cache-resident workload, several beside the memory-bound
	// ones, whose packets also keep several memory references in flight.
	lookups int
	buf     [batchSize * hdrLen]byte

	badSum int64  // headers whose checksum did not verify (none should)
	sink   uint32 // keeps the lookups live
}

// newRefPlane sizes the table to 2^bits entries: small enough to stay in
// cache beside a cache-resident workload, or far larger than the last
// level cache beside a memory-bound one, so the reference meets the same
// part of the machine as the loop it is compared with.
func newRefPlane(set *packetSet, bits, lookups int) *refPlane {
	r := &refPlane{hdrs: set.hdrs, n: len(set.dests), tab: make([]uint32, 1<<bits), lookups: lookups}
	x := uint32(2463534242)
	for i := range r.tab {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		r.tab[i] = x
	}
	return r
}

// pass runs the reference loop for about dur and returns the packets it
// handled and the nanoseconds that took.
func (r *refPlane) pass(dur time.Duration) (pkts, ns int64) {
	start := time.Now()
	mask := uint32(len(r.tab) - 1)
	for {
		for i := 0; i < batchSize; i++ {
			copy(r.buf[i*hdrLen:(i+1)*hdrLen], r.hdrs[r.pos*hdrLen:])
			r.pos++
			if r.pos == r.n {
				r.pos = 0
			}
		}
		for i := 0; i < batchSize; i++ {
			h := r.buf[i*hdrLen : (i+1)*hdrLen]
			var s uint32
			for j := 0; j < hdrLen; j += 2 {
				s += uint32(binary.BigEndian.Uint16(h[j:]))
			}
			s = (s & 0xffff) + (s >> 16)
			s = (s & 0xffff) + (s >> 16)
			if s != 0xffff {
				r.badSum++
			}
			dst := binary.BigEndian.Uint32(h[16:])
			var v uint32
			for k := 0; k < r.lookups; k++ {
				v += r.tab[((dst+uint32(k)*0x9e3779b9)*2654435761)>>7&mask]
			}
			h[8]--          // TTL
			h[22] = byte(v) // clue
			c := uint32(binary.BigEndian.Uint16(h[10:])) + 0x100 + (v & 0xff)
			c = (c & 0xffff) + (c >> 16)
			binary.BigEndian.PutUint16(h[10:], uint16(c))
			r.sink += v
		}
		pkts += batchSize
		if pkts&1023 == 0 {
			if ns = int64(time.Since(start)); ns >= int64(dur) {
				return pkts, ns
			}
		}
	}
}
