package redn

import (
	"errors"
	"fmt"
	"maps"
	"slices"

	"repro/internal/core"
	"repro/internal/hopscotch"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// The fabric write path.
//
// A Service set fans out to the key's LookupN replica owners. On each
// owner the coordinator computes a bucket claim from its view of that
// owner's table — overwrite in place when the key already sits at a
// candidate bucket, claim the first empty candidate otherwise — and
// issues it through the owner's Client.SetAsync pipeline, where the
// NIC's CAS-claim chain (core.SetOffload) installs the key and
// repoints the bucket at the staged value. Keys that need cuckoo-kick
// relocation (both candidates taken) or that live in spilled
// neighborhood slots fall back to the host CPU at a modeled two-sided
// RPC cost; a claim refused by the CAS (a racing writer won the
// bucket) rolls forward on the host the same way.
//
// The write acknowledges to the caller once W = WriteQuorum owners
// have applied it. Owners that fail — frozen NIC, host down, suspected
// dead — receive a handoff hint instead: the newest value that owner
// is missing, keyed by the write's per-key sequence number. Hints
// drain when the owner proves reachable again (crash recovery's OnUp,
// or a successful get through it) and are applied exactly once; a
// newer write to the same key supersedes a pending hint, so a drain
// can never resurrect a stale value. Quorum failures (more than N-W
// owners down) surface as *QuorumError, with the owners that did
// apply left in place and the missing ones rolled forward via hints —
// never rolled back.
//
// Same-key writes are serialized per owner (inflightSet): the
// coordinator is the single write path, so per-key order is issue
// order everywhere, which is what the sequence numbers certify.

// HostSetLat models the cost of a write that must involve the owner's
// CPU: a two-sided RPC (SEND + handler + response) plus the insert
// itself — the §5.4 "writes stay on the CPU path" cost the fabric
// claim chain avoids.
const HostSetLat = 2500 * sim.Nanosecond

// ErrReservedKey reports a write or delete of a key in the reserved
// pending/tombstone id space (hopscotch.PendingBit set): the fabric
// claim machinery depends on those words never being resident keys, so
// the async paths reject them exactly as the tables' host-side inserts
// do.
var ErrReservedKey = errors.New("redn: key uses the reserved pending/tombstone id space")

// ErrValueTooLarge reports a write whose value exceeds the service's
// MaxValLen: no client buffer could stage it, so nothing was applied
// anywhere.
type ErrValueTooLarge struct {
	Key      uint64
	Len, Max uint64
}

func (e *ErrValueTooLarge) Error() string {
	return fmt.Sprintf("redn: value of %d bytes for key %#x exceeds MaxValLen %d", e.Len, e.Key, e.Max)
}

// reservedKey reports whether a masked key is unusable on the fabric
// path: the reserved id space (pending/tombstone words) would void the
// claim chain's published/unpublished distinction, and key 0's control
// word is the empty-bucket marker. Both are rejected exactly as the
// tables reject them on the host path.
func reservedKey(key uint64) bool { return key&hopscotch.PendingBit != 0 || key == 0 }

// QuorumError reports a write that could not reach its W-of-N quorum.
// Replicas that did apply are rolled forward via hinted handoff; the
// write may still complete after the down owners recover.
type QuorumError struct {
	Key    uint64
	Acks   int // owners that applied before the quorum was declared dead
	Need   int // W, the configured write quorum
	Owners int
}

func (e *QuorumError) Error() string {
	return fmt.Sprintf("redn: write quorum failed for key %#x: %d/%d acks (W=%d)",
		e.Key, e.Acks, e.Owners, e.Need)
}

// ErrOverload reports a write or delete shed by admission control:
// too few replica owners' NICs had queue headroom to admit it while
// still reaching the W-of-N quorum. Nothing was applied anywhere — no
// sequence number was issued and no owner saw the op — so the caller
// can safely back off and retry the identical request.
type ErrOverload struct {
	Key   uint64
	Admit int // owners that could have admitted the op
	Need  int // W, the configured write quorum
}

func (e *ErrOverload) Error() string {
	return fmt.Sprintf("redn: overload: key %#x shed, %d of %d required owners can admit",
		e.Key, e.Admit, e.Need)
}

// admitWrite counts owners with admission headroom and sheds the op
// when a quorum cannot be formed from them. Returns true when the
// write may proceed; on false the typed *ErrOverload has already been
// scheduled onto cb and no coordinator state was touched.
func (s *Service) admitWrite(key uint64, cb func(lat Duration, err error)) bool {
	if !s.cfg.Admission {
		return true
	}
	admit := 0
	for _, id := range s.owners(key) {
		if !s.overloaded(s.shards[id]) {
			admit++
		}
	}
	if admit >= s.cfg.WriteQuorum {
		return true
	}
	s.ctr.ShedWrites++
	s.failWrite(cb, &ErrOverload{Key: key, Admit: admit, Need: s.cfg.WriteQuorum})
	return false
}

// failWrite completes a write or delete the coordinator refused before
// touching any state: err reaches cb after a zero-cost hop, so the
// callback never runs synchronously.
func (s *Service) failWrite(cb func(lat Duration, err error), err error) {
	s.tb.clu.Eng.After(0, func() {
		if cb != nil {
			cb(0, err)
		}
	})
}

// hint is one queued handoff write: the newest value — or tombstone —
// an unreachable owner is missing. A delete hint (del=true) carries no
// bytes; by living in the same per-key slot and sequence order as
// value hints, it supersedes any older value hint for the key, and a
// drain replays it as a delete — so a recovering owner can never
// resurrect a key deleted while it was down.
type hint struct {
	key, seq uint64
	val      []byte
	del      bool
	op       *setOp
	draining bool
	settled  bool
}

// setOp tracks one client-visible write or delete (kind OpSet or
// OpDelete) across its owner fan-out.
type setOp struct {
	key, seq     uint64
	kind         Op
	need, owners int
	acks, fails  int
	start        sim.Time
	cb           func(lat Duration, err error)
	done         bool
	settleLeft   int
	traceOp      uint64

	// Latency provenance (nil with it off): the op's phase ledger. At
	// the quorum-completing ack the critical leg's receipt is adopted
	// into it and the coordinator remainder (fan-out dispatch, per-key
	// write-slot queueing, quorum stitching) becomes the coord phase.
	// lastAckAt times the previous ack so the quorum ack can report
	// the straggler gap it spent waiting on its slowest counted leg.
	rcpt      *telemetry.Receipt
	lastAckAt sim.Time
}

func (op *setOp) ack(s *Service) {
	op.acks++
	now := s.tb.Now()
	if !op.done && op.acks >= op.need {
		op.done = true
		s.tr.OpEnd(op.traceOp, op.kind.String())
		if op.rcpt != nil {
			// This ack completed the quorum, so the leg whose callback
			// is running is the critical leg: adopt its phase ledger
			// and charge everything it doesn't cover — fan-out
			// dispatch, per-key write-slot queueing, quorum stitching
			// — to the coord phase, keeping the partition exact.
			r := op.rcpt
			if s.legValid {
				r.AdoptLeg(&s.legRcpt)
			}
			if coord := (now - op.start) - r.PhaseSum(); coord > 0 {
				r.AddPhase(telemetry.PhaseCoord, coord)
			}
			if op.lastAckAt != 0 {
				r.Straggler = now - op.lastAckAt
			}
			r.Total = r.PhaseSum()
			s.prov.Record(r)
		}
		if op.cb != nil {
			op.cb(now-op.start, nil)
		}
	}
	op.lastAckAt = now
}

func (op *setOp) fail(s *Service) {
	op.fails++
	if !op.done && op.fails > op.owners-op.need {
		op.done = true
		s.tr.OpEnd(op.traceOp, op.kind.String())
		s.ctr.QuorumFails++
		now := s.tb.Now()
		if op.rcpt != nil {
			// Quorum dead: no critical leg to adopt — the whole span
			// was coordinator-side waiting on owners that never came.
			r := op.rcpt
			r.Censored = true
			if coord := (now - op.start) - r.PhaseSum(); coord > 0 {
				r.AddPhase(telemetry.PhaseCoord, coord)
			}
			r.Total = r.PhaseSum()
			s.prov.Record(r)
		}
		if op.cb != nil {
			op.cb(now-op.start, &QuorumError{
				Key: op.key, Acks: op.acks, Need: op.need, Owners: op.owners})
		}
	}
}

// noteLegReceipt stages one owner leg's client receipt for the quorum
// accounting that may consume it synchronously (setOp.ack). nil (dead
// connection, no slot reached) clears the stage.
func (s *Service) noteLegReceipt(r *telemetry.Receipt) {
	if s.prov == nil {
		return
	}
	if r == nil {
		s.legValid = false
		return
	}
	s.legRcpt = *r
	s.legValid = true
}

// noteHostLeg stages a synthesized ledger for an owner leg that ran on
// the host CPU path: the whole leg is one host phase of the modeled
// RPC latency.
func (s *Service) noteHostLeg(lat Duration) {
	if s.prov == nil {
		return
	}
	now := s.tb.Now()
	s.legRcpt.Reset(0, telemetry.ClassSet, now-lat)
	s.legRcpt.AddPhase(telemetry.PhaseHost, lat)
	s.legRcpt.Total = lat
	s.legValid = true
}

// clearLegReceipt invalidates the staged leg ledger; apply paths with
// no measurable leg (a trivially-absent delete) call it so the quorum
// ack cannot adopt an earlier leg's stale note.
func (s *Service) clearLegReceipt() { s.legValid = false }

// settleOne records that one more owner has resolved this write
// (applied, drained, or superseded); when the last one does, the
// write's value can no longer appear anywhere it has not already, and
// the key becomes cache-admissible again.
func (op *setOp) settleOne(s *Service) {
	op.settleLeft--
	if op.settleLeft != 0 {
		return
	}
	if s.unsettled[op.key]--; s.unsettled[op.key] <= 0 {
		delete(s.unsettled, op.key)
	}
	if s.settleHook != nil {
		s.settleHook(op.key, op.seq)
	}
}

// SetAsync stores key -> value on its replica owners through the
// fabric and returns immediately; cb runs when the W-of-N quorum has
// acknowledged (err == nil) or can no longer be reached (err is a
// *QuorumError). Sets have real modeled latency — a NIC CAS-claim
// chain per owner — and pipeline like gets; call Flush after posting a
// batch. The write-through cache and the key's write epoch update at
// issue time, so a reader of this coordinator observes its own writes
// immediately and a racing get can never install a stale cache entry.
// A value longer than MaxValLen fails with *ErrValueTooLarge.
func (s *Service) SetAsync(key uint64, value []byte, cb func(lat Duration, err error)) {
	s.writeAsync(OpSet, key, value, cb)
}

// writeAsync is the one coordinator path behind SetAsync (kind OpSet)
// and DeleteAsync (kind OpDelete, value nil): it rejects reserved keys
// and oversized values, runs admission, issues the per-key sequence,
// updates the cache and write epoch, opens the op's receipt, and fans
// the op out to the key's owners and any dual-write extras.
func (s *Service) writeAsync(kind Op, key uint64, value []byte, cb func(lat Duration, err error)) {
	key &= hopscotch.KeyMask
	s.sentinelKick()
	if reservedKey(key) {
		s.failWrite(cb, ErrReservedKey)
		return
	}
	if n := uint64(len(value)); n > s.cfg.MaxValLen {
		s.failWrite(cb, &ErrValueTooLarge{Key: key, Len: n, Max: s.cfg.MaxValLen})
		return
	}
	if !s.admitWrite(key, cb) {
		return
	}
	del := kind == OpDelete
	if del {
		s.ctr.DelOps++
	} else {
		s.ctr.SetOps++
	}
	s.nextSeq[key]++
	seq := s.nextSeq[key]
	s.unsettled[key]++
	if s.cache != nil {
		s.setEpoch[key]++
		if del {
			delete(s.cache, key)
		} else if _, ok := s.cache[key]; ok {
			s.cache[key] = append([]byte(nil), value...)
		}
	}
	owners := s.owners(key)
	extras := s.dualWriteExtras(owners, key)
	op := &setOp{key: key, seq: seq, kind: kind, need: s.cfg.WriteQuorum, owners: len(owners),
		start: s.tb.Now(), cb: cb, settleLeft: len(owners) + len(extras),
		traceOp: s.tr.OpBegin(kind.String(), key)}
	if s.prov != nil {
		op.rcpt = &telemetry.Receipt{}
		op.rcpt.Reset(op.traceOp, uint8(kind), op.start)
		op.rcpt.Legs = uint8(len(owners))
	}
	val := append([]byte(nil), value...)
	for idx, id := range owners {
		sh := s.shards[id]
		legID := op.traceOp<<4 | uint64(idx)
		if s.tr.Enabled() {
			s.tr.AsyncBegin("leg", legID, "leg:"+sh.id, op.traceOp)
		}
		s.ownerWrite(sh, kind, key, val, seq, op.traceOp, func(st ownerWriteStatus) {
			if s.tr.Enabled() {
				s.tr.AsyncEnd("leg", legID, "leg:"+sh.id, op.traceOp)
			}
			switch st {
			case ownerApplied:
				s.noteOwnerApplied(sh, del, key, seq)
				s.dropHint(sh, key, seq)
				if op.rcpt != nil {
					op.rcpt.Leg = uint8(idx)
				}
				op.ack(s)
				op.settleOne(s)
			case ownerUnreachable:
				s.queueHint(sh, key, val, del, seq, op)
				op.fail(s)
			case ownerRejected:
				// Definitive refusal (only sets can meet a full table) —
				// but no longer a silent divergence: the repair queue
				// records the laggard so read-repair or anti-entropy rolls
				// it forward once capacity frees.
				s.queueRepair(sh, key, seq)
				op.fail(s)
				op.settleOne(s)
			}
		})
	}
	for idx, id := range extras {
		sh := s.shards[id]
		legID := op.traceOp<<4 | uint64(len(owners)+idx)
		if s.tr.Enabled() {
			s.tr.AsyncBegin("leg", legID, "aux:"+sh.id, op.traceOp)
		}
		s.ownerWrite(sh, kind, key, val, seq, op.traceOp, func(st ownerWriteStatus) {
			if s.tr.Enabled() {
				s.tr.AsyncEnd("leg", legID, "aux:"+sh.id, op.traceOp)
			}
			// Auxiliary dual-write leg (resharding handover): the quorum
			// is counted over the post-change owners exclusively — a
			// departing owner's outcome only settles, so it can neither
			// ack a write the new owners lost nor fail one they hold. No
			// hint on failure either: the new owners are the write's
			// future, and the dual-read fallback this leg serves reaches
			// them first.
			if st == ownerApplied {
				s.noteOwnerApplied(sh, del, key, seq)
				s.dropHint(sh, key, seq)
			}
			op.settleOne(s)
		})
	}
}

// noteOwnerApplied records one owner's apply of a write or delete
// (del) at seq: the linearizability hook, then the owner's version
// metadata.
func (s *Service) noteOwnerApplied(sh *serviceShard, del bool, key, seq uint64) {
	if s.applyHook != nil {
		s.applyHook(sh.id, key, seq)
	}
	if del {
		sh.noteDeleted(key, seq)
	} else {
		sh.noteApplied(key, seq)
	}
}

// withKeySlot serializes same-key work on one owner: run executes
// immediately if the (owner, key) write slot is free, else it queues
// behind the in-flight write. Every run must end by calling setNext.
func (s *Service) withKeySlot(sh *serviceShard, key uint64, run func()) {
	if q, busy := sh.inflightSet[key]; busy {
		sh.inflightSet[key] = append(q, run)
		return
	}
	sh.inflightSet[key] = nil
	run()
}

// ownerWrite applies one write or delete on one owner, serializing
// both kinds through the same per-(owner, key) write slot so per-key
// order survives the pipelined fabric: a delete can never overtake — or
// be overtaken by — a write to the same key. done always runs
// asynchronously (from the simulation).
func (s *Service) ownerWrite(sh *serviceShard, kind Op, key uint64, val []byte, ver, top uint64, done func(st ownerWriteStatus)) {
	s.armCompaction(sh)
	s.armAntiEntropy()
	s.withKeySlot(sh, key, func() {
		s.ownerWriteNow(sh, kind, key, val, ver, top, func(st ownerWriteStatus) {
			done(st)
			s.setNext(sh, key)
		})
	})
}

// setNext releases the per-(owner,key) write slot and issues the next
// queued same-key write, if any.
func (s *Service) setNext(sh *serviceShard, key uint64) {
	if q := sh.inflightSet[key]; len(q) > 0 {
		next := q[0]
		sh.inflightSet[key] = q[1:]
		next()
		return
	}
	delete(sh.inflightSet, key)
}

// ownerWriteStatus classifies one owner write's outcome. The
// distinction matters for handoff: an unreachable owner gets a hint
// (the write applies at recovery), a definitive rejection — the table
// refused the insert — does not: deferring a capacity failure would
// resurrect a write its caller was told failed.
type ownerWriteStatus int

const (
	ownerApplied ownerWriteStatus = iota
	ownerUnreachable
	ownerRejected
)

// writeCounters returns one write kind's per-shard counters: owner
// applies, fabric attempts and host fallbacks.
func (sh *serviceShard) writeCounters(kind Op) (applied, fabric, host *uint64) {
	if kind == OpDelete {
		return &sh.ctr.Deletes, &sh.ctr.FabricDeletes, &sh.ctr.HostDeletes
	}
	return &sh.ctr.Sets, &sh.ctr.FabricSets, &sh.ctr.HostSets
}

// ownerWriteNow routes one owner write or delete: the NIC claim chain
// when the fabric can claim the key's bucket, the host CPU otherwise,
// handoff failure when neither can run. Sets claim a candidate bucket
// (overwrite in place, or the first free one); deletes claim the
// reachable bucket holding the key, and a delete of a key the owner
// never had is applied trivially. ver is the op's quorum sequence,
// published into the bucket's version word by whichever path applies.
func (s *Service) ownerWriteNow(sh *serviceShard, kind Op, key uint64, val []byte, ver, top uint64, done func(st ownerWriteStatus)) {
	if sh.suspect(s.tb.Now()) {
		// Circuit breaker: don't burn a MissTimeout per write on a
		// shard the read path already declared dead.
		s.tb.clu.Eng.After(0, func() { done(ownerUnreachable) })
		return
	}
	applied, fabricTries, _ := sh.writeCounters(kind)
	t := sh.table.table
	var (
		claim  core.SetClaim
		bucket uint64
		fabric bool
	)
	if kind == OpDelete {
		if bucket, fabric = residentBucket(t, sh.mode, key); !fabric {
			if _, _, resident := t.Lookup(key); !resident {
				// Nothing to retire here: the owner is already at the
				// delete's end state. Applied, at a zero-cost hop.
				s.tb.clu.Eng.After(0, func() {
					*applied++
					s.clearLegReceipt() // no measurable leg to adopt
					done(ownerApplied)
				})
				return
			}
		}
	} else {
		claim, fabric = sh.claimFor(key)
	}
	if !fabric {
		if sh.hostDown {
			s.tb.clu.Eng.After(0, func() { done(ownerUnreachable) })
			return
		}
		s.hostWrite(sh, kind, key, val, ver, done)
		return
	}
	*fabricTries++
	// An acked fabric set repoints the bucket at the chain's staging
	// extent; the old extent — captured here, under the per-key write
	// slot — is retired on the ack, after the read-grace period.
	var oldVa uint64
	var hadOld bool
	if kind == OpSet {
		oldVa, _, hadOld = t.Lookup(key)
	}
	cli := sh.setClient(key)
	finish := func(_ Duration, ok bool) {
		if ok {
			sh.consecMiss = 0
			sh.suspectUntil = 0
			*applied++
			if hadOld {
				sh.retireExtent(oldVa)
			}
			s.noteLegReceipt(cli.LastReceipt(kind))
			done(ownerApplied)
			return
		}
		if !cli.LastExecuted(kind) {
			// The chain never ran: dead NIC, count toward suspicion.
			s.noteOwnerMiss(sh)
		}
		// Claim refused (a racing writer took the bucket, or a
		// relocation moved the key) or the NIC is gone: roll forward on
		// the CPU if the host is up.
		if sh.hostDown {
			done(ownerUnreachable)
			return
		}
		s.hostWrite(sh, kind, key, val, ver, done)
	}
	s.tr.SetOp(top)
	if kind == OpDelete {
		cli.DeleteAsyncClaim(key, core.DeleteClaim{BucketAddr: bucket}, ver, finish)
	} else {
		cli.SetAsyncClaim(key, val, claim, ver, finish)
	}
	s.tr.SetOp(0)
	// Writes issued from completion callbacks run outside the caller's
	// batch; kick them directly, like get retries.
	cli.Flush()
}

// setClient picks the owner connection a key's writes always use —
// deterministic by key, so same-key writes share one ordered QP.
func (sh *serviceShard) setClient(key uint64) *Client {
	return sh.clients[int(key)%len(sh.clients)]
}

// residentBucket returns the address of the candidate bucket holding
// key, honoring the lookup mode's probe reach — the only bucket a NIC
// chain can address for it. false means the key is spilled to a
// neighborhood slot only a CPU scan reaches, tombstoned, or absent.
// Shared by the service router and the standalone client so the two
// views cannot drift; set claims, delete claims and probe targets all
// start from it.
func residentBucket(t *hopscotch.Table, mode LookupMode, key uint64) (uint64, bool) {
	for fn := 0; fn < probeReach(mode); fn++ {
		b := t.Hash(key, fn)
		if k, _, _, ok := t.EntryAt(b); ok && k == key {
			return t.BucketAddr(b), true
		}
	}
	return 0, false
}

// probeTargetForTable is residentBucket as a version-probe target:
// spilled residents, tombstones and absent keys are the repair layer's
// host-side comparison.
func probeTargetForTable(t *hopscotch.Table, mode LookupMode, key uint64) (core.ProbeTarget, bool) {
	addr, ok := residentBucket(t, mode, key)
	return core.ProbeTarget{BucketAddr: addr}, ok
}

// probeReach is how many candidate buckets the mode's lookups probe:
// single-probe lookups read H1 only, so a claim at H2 would be
// acknowledged yet permanently unreadable.
func probeReach(mode LookupMode) int {
	if mode == LookupSingle {
		return 1
	}
	return 2
}

// claimForTable computes key's bucket claim against a table. The bool
// result reports whether the fabric can carry this write: false means
// only the host can run it — cuckoo-kick relocation (all reachable
// candidates taken), or the key lives in a spilled neighborhood slot
// the NIC cannot address (a NIC claim would install an unreadable
// duplicate).
func claimForTable(t *hopscotch.Table, mode LookupMode, key uint64) (core.SetClaim, bool) {
	if addr, ok := residentBucket(t, mode, key); ok {
		kc := core.ClaimCtrl(key)
		return core.SetClaim{BucketAddr: addr, Expect: kc, New: kc}, true
	}
	if _, _, ok := t.Lookup(key); ok {
		// Resident but not at a reachable candidate bucket: only the
		// CPU's neighborhood scan can update it.
		return core.SetClaim{}, false
	}
	for fn := 0; fn < probeReach(mode); fn++ {
		b := t.Hash(key, fn)
		if _, _, _, ok := t.EntryAt(b); !ok {
			// A free candidate is either genuinely empty (CAS against
			// zero) or tombstoned by an earlier delete — the claim CAS
			// reclaims the tombstone in place, keeping delete churn on
			// the fabric instead of bouncing every reinsert to the host.
			// Fresh claims install the PENDING word: the bucket still
			// carries its previous occupant's stale [valAddr, valLen],
			// so the chain publishes NOOP|key only after the repoint —
			// otherwise a concurrent lookup could resurrect the old
			// extent through the stale pointer.
			claim := core.SetClaim{BucketAddr: t.BucketAddr(b),
				New: core.ClaimPendingCtrl(key)}
			if t.TombstoneAt(b) {
				claim.Expect = hopscotch.Tombstone
			}
			return claim, true
		}
	}
	return core.SetClaim{}, false
}

// claimFor computes key's bucket claim from the owner's table.
func (sh *serviceShard) claimFor(key uint64) (core.SetClaim, bool) {
	return claimForTable(sh.table.table, sh.mode, key)
}

// hostWrite applies one owner write or delete on the host CPU at the
// modeled two-sided RPC cost: the kick and spilled-resident path, and
// the roll-forward path for refused claims. Deleting an absent key is
// still applied: the owner is at the end state either way.
func (s *Service) hostWrite(sh *serviceShard, kind Op, key uint64, val []byte, ver uint64, done func(st ownerWriteStatus)) {
	applied, _, host := sh.writeCounters(kind)
	*host++
	lat := HostSetLat
	if kind == OpDelete {
		lat = HostDeleteLat
	}
	s.tb.clu.Eng.After(lat, func() {
		if sh.hostDown {
			// Crashed while the RPC was in flight.
			done(ownerUnreachable)
			return
		}
		if kind == OpDelete {
			sh.del(key, ver)
			*applied++
		} else if err := sh.set(key, val, ver); err != nil {
			// The table itself refused (kick walk and neighborhoods
			// exhausted): a definitive rejection, not unavailability.
			// sh.set counted the attempt.
			done(ownerRejected)
			return
		}
		s.noteHostLeg(lat)
		done(ownerApplied)
	})
}

// queueHint records the newest value (or tombstone: del=true) an
// unreachable owner is missing. An older pending hint for the same key
// is superseded (its write is settled — a newer value stands in for
// it); an incoming write older than the pending hint settles
// immediately. Because supersession is purely by sequence number, a
// tombstone hint replaces any older value hint — and a value hint
// newer than a pending tombstone replaces it just as correctly (the
// delete happened-before the new write).
func (s *Service) queueHint(sh *serviceShard, key uint64, val []byte, del bool, seq uint64, op *setOp) {
	// A leg can resolve after its target left the service entirely (a
	// drain completed while the write was in flight): there is no owner
	// to hand off to, and the new owners carry the write — just settle.
	if s.shards[sh.id] != sh {
		sh.ctr.HintsDropped++
		op.settleOne(s)
		return
	}
	// Hints aimed at a shard mid-drain redirect to the key's new
	// primary: the draining owner will be gone before it could drain
	// them, and an acked write must survive its departure.
	if s.draining(sh.id) {
		if to := s.redirectTarget(key, sh); to != nil {
			s.ctr.MigHintsRedirected++
			s.queueHint(to, key, val, del, seq, op)
			return
		}
	}
	if cur, ok := sh.hints[key]; ok {
		if cur.seq >= seq {
			sh.ctr.HintsDropped++
			op.settleOne(s)
			return
		}
		sh.ctr.HintsDropped++
		s.settleHint(cur)
	}
	sh.hints[key] = &hint{key: key, seq: seq, val: val, del: del, op: op}
	sh.ctr.HintsQueued++
	if s.tr.Enabled() {
		s.tr.Instant("coordinator", "hint:"+sh.id, op.traceOp)
	}
}

// dropHint discards a pending hint made redundant by a successful
// newer (or equal) write to the same owner.
func (s *Service) dropHint(sh *serviceShard, key, seq uint64) {
	if cur, ok := sh.hints[key]; ok && cur.seq <= seq {
		delete(sh.hints, key)
		sh.ctr.HintsDropped++
		s.settleHint(cur)
	}
}

// settleHint settles a hint's originating write exactly once.
func (s *Service) settleHint(h *hint) {
	if h.settled {
		return
	}
	h.settled = true
	h.op.settleOne(s)
}

// drainHints hands off every pending hint to a reachable owner, in
// key order for determinism.
func (s *Service) drainHints(sh *serviceShard) {
	if len(sh.hints) == 0 {
		return
	}
	for _, k := range slices.Sorted(maps.Keys(sh.hints)) {
		s.drainHint(sh, k)
	}
}

// drainHint replays one hint through the ordinary owner write path.
// On failure (the owner died again mid-drain) the hint stays queued
// for the next recovery — it is applied exactly once, when a drain
// finally succeeds. Staleness is re-checked when the drain actually
// reaches the owner's per-key write slot: a drain queued behind an
// in-flight newer write for the same key must never replay the old
// value over it. On success, a hint queued while this one was in
// flight (a newer failed write) drains immediately after.
func (s *Service) drainHint(sh *serviceShard, key uint64) {
	h, ok := sh.hints[key]
	if !ok || h.draining {
		return
	}
	h.draining = true
	s.withKeySlot(sh, key, func() {
		if cur, still := sh.hints[key]; !still || cur != h {
			// Dropped or replaced while queued: a newer write already
			// reached this owner (or superseded the hint). Skip, and
			// pick up whatever hint stands now.
			h.draining = false
			s.setNext(sh, key)
			s.drainHint(sh, key)
			return
		}
		kind := OpSet
		if h.del {
			kind = OpDelete
		}
		s.ownerWriteNow(sh, kind, key, h.val, h.seq, 0, func(st ownerWriteStatus) {
			h.draining = false
			switch st {
			case ownerApplied:
				s.noteOwnerApplied(sh, h.del, key, h.seq)
				if cur, still := sh.hints[key]; still && cur == h {
					delete(sh.hints, key)
					sh.ctr.HintsApplied++
					s.settleHint(h)
				}
			case ownerRejected:
				// The recovered table refused the replay (capacity):
				// retrying forever would spin, so retire the hint.
				if cur, still := sh.hints[key]; still && cur == h {
					delete(sh.hints, key)
					sh.ctr.HintsDropped++
					s.settleHint(h)
				}
			}
			s.setNext(sh, key)
			if st == ownerApplied {
				s.drainHint(sh, key)
			}
		})
	})
}
