package redn

import (
	"repro/internal/hopscotch"
	"repro/internal/sim"
)

// The fabric delete path and the extent lifecycle behind it.
//
// A Service delete is a write whose value is "absent": it fans out to
// the key's replica owners, claims each owner's bucket with the NIC
// delete chain (core.DeleteOffload — CAS tombstone, conditional unlink
// of the value extent onto the owner's to-free ring, conditional ack),
// and acknowledges at the same W-of-N quorum as sets — through the same
// coordinator and owner paths (writeAsync, ownerWrite). Owners that are
// down receive a tombstone HINT: it lives in the same per-key slot and
// sequence order as value hints, so it supersedes any older value hint
// — and a drain at recovery replays the delete, never resurrecting the
// key. Spilled residents the NIC cannot address, and claims refused by
// a racing relocation, roll forward on the host CPU at the modeled RPC
// cost, mirroring sets.
//
// Retired extents return to the shard's arena two ways: host-path
// deletes free directly (the CPU holds the pointer), fabric deletes go
// through the to-free ring, drained by the client on each ack and by
// the compaction tick. The background compactor closes the loop:
// segments whose live fraction fell below the threshold are evacuated
// — each survivor's bytes copied to a fresh (right-sized) extent and
// its bucket repointed — at modeled host copy cost. Compaction skips
// any key with an in-flight write or delete (the per-key write slot
// and the unsettled count are the safety interlocks), so a chain armed
// against a pre-compaction bucket view can never orphan a moved value.

// HostDeleteLat models a delete that must involve the owner's CPU: a
// two-sided RPC plus the neighborhood scan and tombstone — the same
// cost shape as HostSetLat.
const HostDeleteLat = HostSetLat

// CompactExtentLat models evacuating one live extent during a
// compaction pass: a host memcpy plus the bucket repoint.
const CompactExtentLat = 500 * sim.Nanosecond

// DeleteAsync removes key from its replica owners through the fabric
// and returns immediately; cb runs when the W-of-N quorum has
// tombstoned it (err == nil) or can no longer be reached (err is a
// *QuorumError). Deletes have real modeled latency — a NIC tombstone
// chain per owner — and pipeline like sets; call Flush after posting a
// batch. The client-side hot-value cache entry is invalidated and the
// key's write epoch bumped at issue time, so no reader of this
// coordinator can see the deleted value from the cache afterward, and
// no in-flight get can re-admit it.
func (s *Service) DeleteAsync(key uint64, cb func(lat Duration, err error)) {
	s.writeAsync(OpDelete, key, nil, cb)
}

// Delete removes key from its replica owners through the fabric delete
// path, blocking until the W-of-N quorum acknowledges — the
// convenience wrapper mirroring Set. It reports whether the key was
// present on some owner AND the quorum acknowledged the delete; a
// quorum failure (the key may survive on live owners) returns false,
// never success.
func (s *Service) Delete(key uint64) bool {
	key &= hopscotch.KeyMask
	existed := false
	for _, id := range s.owners(key) {
		if _, _, ok := s.shards[id].table.table.Lookup(key); ok {
			existed = true
			break
		}
	}
	var derr error
	done := false
	s.DeleteAsync(key, func(_ Duration, err error) { derr, done = err, true })
	s.Flush()
	s.tb.stepUntil(&done)
	return existed && derr == nil
}

// ---- background compaction ----

// armCompaction schedules one compaction tick CompactEvery from now,
// unless one is already pending. Ticks are armed by write and delete
// activity rather than free-running, so an idle service leaves the
// simulation engine drainable (a self-rescheduling tick would keep
// Engine.Run spinning forever); under sustained churn the effect is
// the same periodic background pass.
func (s *Service) armCompaction(sh *serviceShard) {
	if s.cfg.CompactEvery <= 0 || sh.compactArmed {
		return
	}
	sh.compactArmed = true
	s.tb.clu.Eng.After(s.cfg.CompactEvery, func() {
		sh.compactArmed = false
		s.compactShard(sh)
	})
}

// compactShard runs one compaction pass on sh's arena: drain straggler
// to-free ring entries, then evacuate every sealed segment below the
// liveness threshold. Each relocation copies the live bytes into a
// fresh right-sized extent and repoints the key's bucket; the pass is
// charged CompactExtentLat per moved extent by pushing the next tick
// out, modeling the host CPU time it burned. Keys with any write or
// delete in flight are skipped — the per-key write slot and the
// unsettled count are the interlocks that keep compaction from racing
// a chain armed against the pre-move bucket.
func (s *Service) compactShard(sh *serviceShard) {
	if sh.hostDown {
		// No CPU to run the pass; the next write after recovery re-arms.
		return
	}
	for _, cli := range sh.clients {
		cli.DrainFreed()
	}
	sh.ctr.CompactPasses++
	t := sh.table.table
	m := sh.srv.node.Mem
	moved := 0
	sh.arena.CompactBelow(s.cfg.CompactThreshold,
		func(cookie, addr, size uint64) bool {
			key := cookie
			if key == 0 {
				// Untagged extent. Key 0 cannot be table-resident (its
				// control word is the empty-bucket marker and the fabric
				// entrypoints reject it), so a zero cookie only ever
				// marks arena allocations made without an owner.
				sh.ctr.CompactSkips++
				return false
			}
			if _, busy := sh.inflightSet[key]; busy {
				sh.ctr.CompactSkips++
				return false
			}
			if s.unsettled[key] > 0 {
				sh.ctr.CompactSkips++
				return false
			}
			va, vl, ok := t.Lookup(key)
			if !ok || va != addr {
				// The record went stale (a wedged set's staging, or a
				// straggler's husk): unreferenced, but not provably
				// dead — leave it.
				sh.ctr.CompactSkips++
				return false
			}
			bytes, err := m.Read(va, vl)
			if err != nil {
				sh.ctr.CompactSkips++
				return false
			}
			newAddr := sh.arena.Alloc(vl, key)
			if err := m.Write(newAddr, bytes); err != nil {
				sh.arena.Free(newAddr)
				sh.ctr.CompactSkips++
				return false
			}
			if err := t.Insert(key, newAddr, vl); err != nil {
				sh.arena.Free(newAddr)
				sh.ctr.CompactSkips++
				return false
			}
			// Moved — but decline the arena's immediate release: a
			// lookup chain that probed the bucket pre-repoint may still
			// hold the old pointer, so the extent cools for the read
			// grace before returning. The next pass skips the stale
			// record (va != addr) until the deferred free lands.
			sh.ctr.CompactMoves++
			sh.ctr.CompactBytes += size
			sh.retireExtent(addr)
			moved++
			return false
		})
	// The pass burned host CPU proportional to what it moved; the next
	// tick (armed by subsequent write activity) slips by that much.
	if moved > 0 {
		s.tb.clu.Eng.After(Duration(moved)*CompactExtentLat, func() {
			s.armCompaction(sh)
		})
	}
}
