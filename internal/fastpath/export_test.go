package fastpath

import "repro/internal/ip"

// BatchLanes exposes the lockstep width so the batch tests can straddle
// it.
const BatchLanes = batchLanes

// BoundaryStart reports whether the packet's slot starts a compressed
// walk — Verify's, or the restricted search — on a leaf-pushed boundary
// vertex (a cBoundary handle), the one start the walk cursor treats
// apart.
func (s *Snapshot) BoundaryStart(dest ip.Addr, clueLen int) bool {
	if !s.compressed || clueLen < 0 || clueLen > s.width || s.lens[clueLen].nb == 0 {
		return false
	}
	lt := &s.lens[clueLen]
	kh, kl := clueKey(dest, clueLen)
	sl := lt.find(lt.home(kh, kl), kh, kl)
	if sl.flags&slotUsed == 0 {
		return false
	}
	return (sl.flags&slotSenderMarked != 0 && uint32(s.senderAt(sl))&cBoundary != 0) ||
		(s.flat && sl.flags&slotFinal == 0 && uint32(s.resumeAt(sl))&cBoundary != 0)
}

// PairStats returns how many entries keep both trie handles in the side
// array — marked sender vertices with a restricted search behind them —
// and how many records the array holds, live and abandoned.
func (s *Snapshot) PairStats() (entries, records int) {
	for l := range s.lens {
		lt := &s.lens[l]
		for i := uint32(0); i < lt.cells(); i += lt.stride {
			if sl := lt.at(i); sl.flags&(slotUsed|slotPair) == slotUsed|slotPair {
				entries++
			}
		}
	}
	return entries, len(s.pairs)
}

// The fill band of a row big enough to be paged; TestSlotBudget holds
// whole tables to it.
const (
	FillGrowTo = fillGrowTo
	FillGrowAt = fillGrowAt
)
