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
	if !s.compressed || clueLen < 0 || clueLen > s.width || s.lens[clueLen].size == 0 {
		return false
	}
	lt := &s.lens[clueLen]
	kh, kl := clueKey(dest, clueLen)
	sl := lt.find(lt.home(kh, kl), kh, kl)
	if sl.flags&slotUsed == 0 {
		return false
	}
	return (s.verify && sl.sender >= 0 && uint32(sl.sender)&cBoundary != 0) ||
		(s.flat && sl.flags&slotFinal == 0 && uint32(sl.resume)&cBoundary != 0)
}
