package rnic

import (
	"repro/internal/sim"
	"repro/internal/wqe"
)

// kick ensures the work queue's execution loop is running.
func (w *WorkQueue) kick() {
	if w.active || w.errored || w.qp.dev.frozen {
		return
	}
	w.active = true
	w.qp.dev.eng.After(0, w.stepFn)
}

// bound returns the absolute index below which execution may proceed.
// Unmanaged queues execute up to the doorbell (producer). Managed
// queues execute up to the ENABLE-granted fetch limit — which may
// exceed the producer index: that is WQ recycling (§3.4), where the
// ring wraps and already-executed WQEs run again.
func (w *WorkQueue) bound() uint64 {
	if w.managed {
		return w.fetchLimit
	}
	return w.producer
}

// step is the per-WQ execution loop. Exactly one step chain is active
// per queue (guarded by w.active).
func (w *WorkQueue) step() {
	dev := w.qp.dev
	if w.errored || dev.frozen {
		w.active = false
		return
	}
	if w.consumer >= w.bound() {
		w.active = false
		return
	}

	// Per-WQ rate limiter (isolation, §3.5).
	if !w.admitted && w.qp.limiter != nil {
		t := w.qp.limiter.Admit()
		w.admitted = true
		if t > dev.eng.Now() {
			dev.eng.At(t, w.stepFn)
			return
		}
	}

	if w.managed {
		w.fetchManagedAndExec()
		return
	}
	w.fetchStreamAndExec()
}

// fetchManagedAndExec performs one serialized on-demand fetch through
// the port's shared fetch unit, then executes. The WQE snapshot is
// taken when the fetch completes, so modifications made before the
// ENABLE-granted fetch are observed — the property RedN's
// doorbell-ordered self-modifying code depends on.
func (w *WorkQueue) fetchManagedAndExec() {
	dev := w.qp.dev
	fs, end := w.qp.port.fetchUnit.Acquire(dev.prof.FetchManaged)
	w.qp.grant(dev, w.qp.port.fetchUnit, dev.eng.Now(), fs, end)
	dev.eng.At(end, w.fetchedFn)
}

// fetched snapshots and executes the WQE a managed fetch just
// delivered. It is the WQE at the consumer index: the step loop is the
// only thing that advances the consumer, and it waits for this fetch.
func (w *WorkQueue) fetched() {
	dev := w.qp.dev
	if w.errored || dev.frozen {
		w.active = false
		return
	}
	idx := w.consumer
	var snap wqe.WQE
	var buf [wqe.Size]byte
	if err := dev.mem.ReadInto(w.SlotAddr(idx), buf[:]); err != nil {
		w.fail(idx, wqe.WQE{}, StatusLocalProtErr)
		return
	}
	snap.Decode(buf[:])
	w.exec(idx, snap)
}

// fetchStreamAndExec services unmanaged queues: the NIC prefetches
// ahead, snapshotting WQEs up to PrefetchWindow beyond the consumer.
// A cold pipeline pays FetchLatency for the first delivery; a hot
// stream delivers at FetchPipelined spacing. Because snapshots happen
// at prefetch time, later modifications to prefetched WQEs are NOT
// observed — the incoherence the paper works around with managed
// queues and doorbell ordering.
func (w *WorkQueue) fetchStreamAndExec() {
	dev := w.qp.dev
	now := dev.eng.Now()
	// Top up the prefetch buffer (snapshots taken now).
	for len(w.buf) < dev.prof.PrefetchWindow {
		idx := w.consumer + uint64(len(w.buf))
		if idx >= w.bound() {
			break
		}
		var buf [wqe.Size]byte
		if err := dev.mem.ReadInto(w.SlotAddr(idx), buf[:]); err != nil {
			w.fail(idx, wqe.WQE{}, StatusLocalProtErr)
			return
		}
		var snap wqe.WQE
		snap.Decode(buf[:])
		var ready sim.Time
		if w.lastFetchDone+dev.prof.FetchLatency >= now {
			// Stream is hot: next delivery pipelines behind the last.
			ready = w.lastFetchDone + dev.prof.FetchPipelined
			if ready < now {
				ready = now
			}
		} else {
			ready = now + dev.prof.FetchLatency
		}
		w.lastFetchDone = ready
		w.buf = append(w.buf, fetchedWQE{idx: idx, w: snap, ready: ready})
	}
	next := w.buf[0]
	if next.ready > now {
		dev.eng.At(next.ready, w.stepFn)
		return
	}
	// Shift down rather than reslice, so the window reuses one array.
	w.buf = append(w.buf[:0], w.buf[1:]...)
	w.exec(next.idx, next.w)
}

// advance moves past the executed WQE and continues the loop.
func (w *WorkQueue) advance() {
	w.consumer++
	w.executed++
	w.admitted = false
	w.qp.dev.eng.After(0, w.stepFn)
}

// fail completes a WQE with an error status and freezes the queue,
// matching verbs semantics (the QP transitions to the error state).
func (w *WorkQueue) fail(idx uint64, v wqe.WQE, st Status) {
	w.errored = true
	w.active = false
	w.complete(v, st, true)
}

// complete schedules completion effects: WAIT-visible counter advance
// after CQInternal, host-visible CQE after CQEDeliver. Unsignaled WQEs
// produce neither (unless forced by an error) — which is exactly how
// RedN's break construct stops a loop: it rewrites the next iteration's
// final WR to drop its signaled flag, so the WAIT gating the following
// iteration never fires.
func (w *WorkQueue) complete(v wqe.WQE, st Status, force bool) {
	if !v.Signaled() && !force {
		return
	}
	dev := w.qp.dev
	cq := w.qp.scq
	dev.eng.After(dev.prof.CQInternal, cq.advanceFn)
	// Capture the CQE's fields, not v: a closure over the whole WQE
	// moves it to the heap on every call, signaled or not.
	id, op, n := v.ID, v.Op, v.Len
	dev.eng.After(dev.prof.CQEDeliver, func() {
		now := dev.eng.Now()
		cq.deliver(CQE{WRID: id, QPN: w.qp.qpn, Op: op, Status: st, Len: n, At: now,
			Backlog: dev.BacklogWatermark(now)})
	})
}

// traceWR records one WR's PU occupancy span on the owning device's
// tracer, attributed to the op tagged on this QP (0 = unattributed,
// e.g. batched SENDs on a shared trigger QP).
func (w *WorkQueue) traceWR(op wqe.Opcode, start, end sim.Time) {
	d := w.qp.dev
	if d.tracer.Enabled() {
		d.tracer.Exec(d.label, d.relabel(w.qp.pu.Name()), op.String(), start, end, w.qp.traceOp)
	}
}

// grant attributes one resource acquisition — wait behind the
// reservation horizon [ready, start), execution [start, end) — to the
// profiler of the device owning the resource and to the receipt of
// the op riding this QP. owner may differ from q's device: one-sided
// verbs acquire the responder's PCIe and atomic units. The disabled
// path is two loads and a branch, no allocation.
func (q *QP) grant(owner *Device, r *sim.Resource, ready, start, end sim.Time) {
	if owner.profiler == nil && q.rcpt == nil {
		return
	}
	name := owner.resName(r)
	if owner.profiler != nil {
		owner.profiler.Grant(q.profClass, name, start-ready, end-start)
	}
	q.rcpt.AddRes(name, start-ready, end-start)
}

// puSpan traces one WR's PU occupancy and attributes the grant. The
// ready floor is now: PU acquisition happens synchronously at issue.
func (w *WorkQueue) puSpan(op wqe.Opcode, start, end sim.Time) {
	w.traceWR(op, start, end)
	w.qp.grant(w.qp.dev, w.qp.pu, w.qp.dev.eng.Now(), start, end)
}

// exec dispatches one WQE. The queue advances to the next WQE when the
// verb has been issued (PU occupancy end); the verb's completion runs
// asynchronously, so independent verbs pipeline within a queue, while
// WAIT provides completion ordering when programs need it.
func (w *WorkQueue) exec(idx uint64, v wqe.WQE) {
	dev := w.qp.dev
	prof := &dev.prof
	switch v.Op {
	case wqe.OpNoop:
		// NOOPs never touch the wire; they complete locally.
		start, end := w.qp.pu.Acquire(prof.NoopOccupancy)
		w.puSpan(v.Op, start, end)
		w.sync = v
		dev.eng.At(end, w.syncRunFn)

	case wqe.OpWait:
		if dev.CQByNum(v.Peer) == nil {
			w.fail(idx, v, StatusBadOpcode)
			return
		}
		start, end := w.qp.pu.Acquire(prof.SyncOccupancy)
		w.puSpan(v.Op, start, end)
		w.sync = v
		dev.eng.At(end, w.syncRunFn)

	case wqe.OpEnable:
		if dev.QPByNum(v.Peer) == nil {
			w.fail(idx, v, StatusBadOpcode)
			return
		}
		start, end := w.qp.pu.Acquire(prof.SyncOccupancy)
		w.puSpan(v.Op, start, end)
		w.sync = v
		dev.eng.At(end, w.syncRunFn)

	case wqe.OpWrite, wqe.OpWriteImm:
		w.execWrite(idx, v)

	case wqe.OpRead:
		w.execRead(idx, v)

	case wqe.OpCAS, wqe.OpAdd, wqe.OpMax, wqe.OpMin:
		w.execAtomic(idx, v)

	case wqe.OpSend:
		w.execSend(idx, v)

	default:
		// OpRecv in a send queue, or garbage written over an opcode.
		w.fail(idx, v, StatusBadOpcode)
	}
}

// syncRun runs when the PU occupancy of the NOOP, WAIT or ENABLE
// in w.sync ends. A queue has at most one in flight: it does not
// advance past one until syncDone.
func (w *WorkQueue) syncRun() {
	v := &w.sync
	switch v.Op {
	case wqe.OpWait:
		w.qp.dev.CQByNum(v.Peer).waitFor(v.Count, w.syncDoneFn)
		return
	case wqe.OpEnable:
		target := w.qp.dev.QPByNum(v.Peer)
		if v.Count > target.sq.fetchLimit {
			target.sq.fetchLimit = v.Count
		}
		target.sq.kick()
	}
	w.syncDone()
}

// syncDone completes the sync verb in w.sync and moves the queue on.
func (w *WorkQueue) syncDone() {
	w.complete(w.sync, StatusOK, false)
	w.advance()
}

// remoteDev returns the device owning the memory this QP's one-sided
// verbs operate on.
func (q *QP) remoteDev() *Device {
	if q.remote == nil {
		return q.dev // self-connected convenience
	}
	return q.remote.dev
}

// wireDelay models moving n payload bytes to the peer starting at t:
// serialization on the port egress link plus propagation. Loopback
// pairs (oneWay 0) skip the wire entirely.
func (q *QP) wireDelay(t sim.Time, n int) sim.Time {
	if q.oneWay == 0 {
		return t
	}
	ls, end := q.port.link.TransferAt(t, n)
	q.grant(q.dev, &q.port.link.Resource, t, ls, end)
	return end + q.oneWay
}

func (w *WorkQueue) execWrite(idx uint64, v wqe.WQE) {
	dev := w.qp.dev
	prof := &dev.prof
	rdev := w.qp.remoteDev()
	n := int(v.Len)

	start, end := w.qp.pu.Acquire(prof.CopyOccupancy)
	w.puSpan(v.Op, start, end)
	dev.eng.At(end, w.advanceFn)

	// Gather payload at the requester.
	var payload []byte
	t := end
	// Test the flag, not v.Inline(): a method call takes v's address,
	// and the closures below would then move v to the heap.
	if v.Flags&wqe.FlagInline != 0 {
		if n > 8 {
			n = 8
		}
		var buf [8]byte
		tmp := wqe.WQE{Cmp: v.Cmp}
		full := tmp.Bytes()
		copy(buf[:], full[wqe.OffCmp:wqe.OffCmp+8])
		payload = buf[8-n:]
	} else {
		gs, ge := dev.pcie.TransferAt(t, n)
		w.qp.grant(dev, &dev.pcie.Resource, t, gs, ge)
		t = ge + prof.GatherLatency
		p, err := dev.mem.Read(v.Src, v.Len)
		if err != nil {
			dev.eng.At(t, func() { w.fail(idx, v, StatusLocalProtErr) })
			return
		}
		payload = p
	}

	t = w.qp.wireDelay(t, n)

	dev.eng.At(t, func() {
		ws, we := rdev.pcie.TransferAt(dev.eng.Now(), n)
		w.qp.grant(rdev, &rdev.pcie.Resource, dev.eng.Now(), ws, we)
		applied := we + prof.RemoteWriteLatency
		dev.eng.At(applied, func() {
			if err := rdev.mem.Write(v.Dst, payload); err != nil {
				w.fail(idx, v, StatusRemoteAccessErr)
				return
			}
			done := dev.eng.Now() + w.qp.oneWay // ack
			dev.eng.At(done, func() { w.complete(v, StatusOK, false) })
		})
	})
}

func (w *WorkQueue) execRead(idx uint64, v wqe.WQE) {
	dev := w.qp.dev
	prof := &dev.prof
	rdev := w.qp.remoteDev()
	n := int(v.Len)

	start, end := w.qp.pu.Acquire(prof.CopyOccupancy)
	w.puSpan(v.Op, start, end)
	dev.eng.At(end, w.advanceFn)

	// Request travels to the responder (header only).
	t := end + w.qp.oneWay
	dev.eng.At(t, func() {
		// Responder DMA-reads the payload.
		rs, re := rdev.pcie.TransferAt(dev.eng.Now(), n)
		w.qp.grant(rdev, &rdev.pcie.Resource, dev.eng.Now(), rs, re)
		readDone := re + prof.RemoteReadLatency
		dev.eng.At(readDone, func() {
			payload, err := rdev.mem.Read(v.Src, v.Len)
			if err != nil {
				w.fail(idx, v, StatusRemoteAccessErr)
				return
			}
			// Payload returns over the wire, then scatters locally.
			back := w.qp.wireDelay(dev.eng.Now(), n)
			dev.eng.At(back, func() {
				ss, se := dev.pcie.TransferAt(dev.eng.Now(), n)
				w.qp.grant(dev, &dev.pcie.Resource, dev.eng.Now(), ss, se)
				applied := se + prof.ScatterLatency
				dev.eng.At(applied, func() {
					if v.Flags&wqe.FlagScatterDst != 0 {
						// Multi-SGE response: Dst is a scatter list of
						// Count entries.
						raw, err := dev.mem.Read(v.Dst, v.Count*wqe.ScatterEntrySize)
						if err != nil {
							w.fail(idx, v, StatusLocalProtErr)
							return
						}
						rest := payload
						for _, e := range wqe.DecodeScatter(raw, int(v.Count)) {
							if len(rest) == 0 {
								break
							}
							k := e.Len
							if k > uint64(len(rest)) {
								k = uint64(len(rest))
							}
							if err := dev.mem.Write(e.Addr, rest[:k]); err != nil {
								w.fail(idx, v, StatusLocalProtErr)
								return
							}
							rest = rest[k:]
						}
						w.complete(v, StatusOK, false)
						return
					}
					if err := dev.mem.Write(v.Dst, payload); err != nil {
						w.fail(idx, v, StatusLocalProtErr)
						return
					}
					w.complete(v, StatusOK, false)
				})
			})
		})
	})
}

func (w *WorkQueue) execAtomic(idx uint64, v wqe.WQE) {
	dev := w.qp.dev
	prof := &dev.prof
	rdev := w.qp.remoteDev()

	// True atomics (CAS/ADD) hold their PU for the long AtomicOccupancy
	// (the PCIe synchronization cost that caps CAS throughput at
	// ~8.4 M/s) but the request hits the wire after the ordinary issue
	// time, so latency stays ~1.8 us (Fig 7). Vendor Calc verbs
	// (MAX/MIN) are copy-class: full 63 M/s throughput (Table 3).
	occ := prof.AtomicOccupancy
	if v.Op == wqe.OpMax || v.Op == wqe.OpMin {
		occ = prof.CopyOccupancy
	}
	start, end := w.qp.pu.Acquire(occ)
	w.puSpan(v.Op, start, end)
	issue := start + prof.CopyOccupancy
	dev.eng.At(end, w.advanceFn)

	t := issue + w.qp.oneWay
	dev.eng.At(t, func() {
		// CAS/ADD serialize through the responder's atomic unit; Calc
		// verbs execute on the ordinary datapath (Table 3: MAX runs at
		// full copy-verb rate).
		var ae sim.Time
		if v.Op == wqe.OpMax || v.Op == wqe.OpMin {
			ae = dev.eng.Now() + prof.AtomicUnitLatency
		} else {
			as, ao := rdev.atomicUnit.Acquire(prof.AtomicUnitOccupancy)
			w.qp.grant(rdev, rdev.atomicUnit, dev.eng.Now(), as, ao)
			ae = ao + (prof.AtomicUnitLatency - prof.AtomicUnitOccupancy)
		}
		dev.eng.At(ae, func() {
			var old uint64
			var err error
			switch v.Op {
			case wqe.OpCAS:
				old, err = rdev.mem.CompareAndSwap(v.Dst, v.Cmp, v.Swap)
			case wqe.OpAdd:
				old, err = rdev.mem.FetchAdd(v.Dst, v.Cmp)
			case wqe.OpMax:
				old, err = rdev.mem.Max(v.Dst, v.Cmp)
			case wqe.OpMin:
				old, err = rdev.mem.Min(v.Dst, v.Cmp)
			}
			if err != nil {
				w.fail(idx, v, StatusRemoteAccessErr)
				return
			}
			done := dev.eng.Now() + w.qp.oneWay + prof.ResultLatency
			dev.eng.At(done, func() {
				if v.Src != 0 {
					if err := dev.mem.PutU64(v.Src, old); err != nil {
						w.fail(idx, v, StatusLocalProtErr)
						return
					}
				}
				w.complete(v, StatusOK, false)
			})
		})
	})
}

// arrival is a SEND in flight toward a peer's receive queue.
type arrival struct {
	payload  []byte
	srcQPN   uint32
	ack      func()   // runs when the responder has consumed the message
	queuedAt sim.Time // when the arrival joined pendingArrivals (receiver-not-ready)
}

func (w *WorkQueue) execSend(idx uint64, v wqe.WQE) {
	dev := w.qp.dev
	prof := &dev.prof
	peer := w.qp.remote
	if peer == nil {
		w.fail(idx, v, StatusBadOpcode)
		return
	}
	n := int(v.Len)

	start, end := w.qp.pu.Acquire(prof.CopyOccupancy)
	w.puSpan(v.Op, start, end)
	dev.eng.At(end, w.advanceFn)

	t := end
	var payload []byte
	if v.Flags&wqe.FlagInline != 0 { // not v.Inline(): see execWrite
		tmp := wqe.WQE{Cmp: v.Cmp}
		full := tmp.Bytes()
		if n > 8 {
			n = 8
		}
		payload = full[wqe.OffCmp+8-n : wqe.OffCmp+8]
	} else {
		gs, ge := dev.pcie.TransferAt(t, n)
		w.qp.grant(dev, &dev.pcie.Resource, t, gs, ge)
		t = ge + prof.GatherLatency
		p, err := dev.mem.Read(v.Src, v.Len)
		if err != nil {
			dev.eng.At(t, func() { w.fail(idx, v, StatusLocalProtErr) })
			return
		}
		payload = p
	}

	t = w.qp.wireDelay(t, n)
	dev.eng.At(t, func() {
		a := arrival{
			payload: payload,
			srcQPN:  w.qp.qpn,
			ack: func() {
				done := dev.eng.Now() + w.qp.oneWay
				dev.eng.At(done, func() { w.complete(v, StatusOK, false) })
			},
		}
		peer.handleArrival(a)
	})
}

// handleArrival matches an incoming SEND with a posted RECV, scattering
// the payload per the RECV's scatter list. RECV WQEs and scatter lists
// are read fresh from host memory at consume time, so offloads may
// rewrite them between messages. If no RECV is posted the message waits
// (receiver-not-ready retry, simplified to an unbounded queue).
func (q *QP) handleArrival(a arrival) {
	if q.dev.frozen {
		return // silently dropped; peers observe a hang, as with real dead hosts
	}
	if q.rq.consumer >= q.rq.producer {
		a.queuedAt = q.dev.eng.Now()
		if len(q.pendingArrivals) == 0 {
			q.dev.backlogged = append(q.dev.backlogged, q)
		}
		q.pendingArrivals = append(q.pendingArrivals, a)
		return
	}
	q.consumeRecv(a)
}

func (q *QP) consumeRecv(a arrival) {
	dev := q.dev
	prof := &dev.prof
	idx := q.rq.consumer
	q.rq.consumer++

	// On-demand fetch of the RECV WQE through the port fetch unit.
	fs, fe := q.port.fetchUnit.Acquire(prof.FetchManaged)
	q.grant(dev, q.port.fetchUnit, dev.eng.Now(), fs, fe)
	dev.eng.At(fe, func() {
		var buf [wqe.Size]byte
		if err := dev.mem.ReadInto(q.rq.SlotAddr(idx), buf[:]); err != nil {
			return
		}
		var r wqe.WQE
		r.Decode(buf[:])
		signaled, id := r.Signaled(), r.ID // the closure below captures these, not r

		// Scatter the payload.
		nEntries := int(r.Len)
		var entries []wqe.ScatterEntry
		if nEntries > 0 {
			raw, err := dev.mem.Read(r.Src, uint64(nEntries*wqe.ScatterEntrySize))
			if err != nil {
				return
			}
			entries = wqe.DecodeScatter(raw, nEntries)
		}
		ws, we := dev.pcie.TransferAt(dev.eng.Now(), len(a.payload))
		q.grant(dev, &dev.pcie.Resource, dev.eng.Now(), ws, we)
		applied := we + prof.RemoteWriteLatency
		dev.eng.At(applied, func() {
			rest := a.payload
			for _, e := range entries {
				if len(rest) == 0 {
					break
				}
				n := e.Len
				if n > uint64(len(rest)) {
					n = uint64(len(rest))
				}
				if err := dev.mem.Write(e.Addr, rest[:n]); err != nil {
					return
				}
				rest = rest[n:]
			}
			// Receive completion: internal counter for WAIT triggers,
			// then host-visible CQE.
			cq := q.rcq
			dev.eng.After(prof.CQInternal, cq.advanceFn)
			if signaled {
				dev.eng.After(prof.CQEDeliver, func() {
					cq.deliver(CQE{WRID: id, QPN: q.qpn, Op: wqe.OpRecv, Status: StatusOK,
						Len: uint64(len(a.payload)), At: dev.eng.Now()})
				})
			}
			if a.ack != nil {
				a.ack()
			}
		})
	})
}
