package core

import (
	"encoding/binary"

	"repro/internal/hopscotch"
	"repro/internal/rnic"
	"repro/internal/wqe"
)

// The hash-lookup offload (§5.2, Fig 9).
//
// A client get is one SEND carrying the key (pre-encoded as CAS
// operands), the candidate bucket address(es), the requested length and
// the client's response buffer address. The server's RNIC — with no CPU
// involvement — scatters those arguments into posted WQEs, READs the
// bucket (landing the stored key directly in the response WQE's id
// field and the value pointer in its src field), CASes the response's
// control word to flip NOOP to WRITE iff the keys match, and the WRITE
// returns the value in the same network round trip.

// LookupMode selects the collision-handling strategy of Fig 11.
type LookupMode int

// Lookup modes.
const (
	// LookupSingle probes only H1(x) — the no-collision case (Fig 10).
	LookupSingle LookupMode = iota
	// LookupSeq probes H1 then H2 sequentially in one chain (RedN-Seq).
	LookupSeq
	// LookupParallel probes H1 and H2 on independent WQs pinned to
	// different NIC PUs (RedN-Parallel); costs an extra response QP,
	// the parallelism trade-off of §5.2.2.
	LookupParallel
)

func (m LookupMode) String() string {
	switch m {
	case LookupSingle:
		return "single"
	case LookupSeq:
		return "seq"
	default:
		return "parallel"
	}
}

// GetIndex is the hash-table geometry the offload and its clients need:
// candidate bucket addresses per key. Both hopscotch.Table (FaRM-style,
// §5.2) and cuckoo.Table (Memcached/MemC3, §5.4) implement it with the
// same bucket byte layout, so one offload serves both.
type GetIndex interface {
	HashAddr(key uint64, fn int) uint64
}

// LookupOffload is an armed hash-get offload for one client connection.
// Its response WQEs live on Resp when set — pool contexts need a
// dedicated response QP each — and on Trig's SQ otherwise.
type LookupOffload struct {
	offloadBase
	Mode  LookupMode
	Table GetIndex

	// Resp2 is the second response QP for LookupParallel (nil otherwise).
	Resp2 *rnic.QP

	w2    *rnic.QP // managed chain queue, bucket 1 (and bucket 2 in seq mode)
	w2b   *rnic.QP // managed chain queue, bucket 2 (parallel)
	ctrlB *rnic.QP // second control queue (parallel)
}

// NewLookupOffload builds the offload. trig must be the server-side QP
// of a client connection with a managed SQ. resp2 (parallel mode only)
// is a second server-side client-connected managed QP. chainDepth sizes
// the internal chain rings: it must cover the instances outstanding at
// once (rings wrap as requests complete; pre-arming N instances up
// front needs chainDepth >= 2N).
func NewLookupOffload(b *Builder, trig *rnic.QP, resp2 *rnic.QP, table GetIndex, mode LookupMode, chainDepth int) *LookupOffload {
	if chainDepth <= 0 {
		chainDepth = 4096
	}
	o := &LookupOffload{offloadBase: newOffloadBase(b, trig, nil), Mode: mode, Table: table}
	o.w2 = o.ring(b.NewManagedQP(chainDepth))
	if resp2 != nil {
		o.Resp2 = o.ring(resp2)
	}
	if mode == LookupParallel {
		if resp2 == nil {
			panic("core: parallel lookup needs a second response QP")
		}
		o.w2b = o.ring(b.NewManagedQP(chainDepth))
		o.ctrlB = o.ring(b.NewQP(2 * chainDepth))
	}
	return o
}

// resp1 returns the queue holding probe-1 (and, for LookupSeq,
// probe-2) response WQEs.
func (o *LookupOffload) resp1() *rnic.QP {
	if o.Resp != nil {
		return o.Resp
	}
	return o.Trig
}

// probeChain posts one bucket probe: a READ (src injected) copying the
// bucket's [keyCtrl, valAddr] onto the response WQE's [ctrl, src], and
// the conditional CAS (operands injected). It returns the refs needed
// for the RECV scatter list and the ctrl sequencing.
type probeRefs struct {
	read StepRef // Src <- bucket address
	cas  StepRef // Cmp <- NOOP|x, Swap <- WRITE|x
	resp StepRef // Len, Dst <- client-provided
}

func (o *LookupOffload) postProbe(chainQP, respQP *rnic.QP) probeRefs {
	b := o.B
	resp := b.Post(respQP, wqe.WQE{Op: wqe.OpNoop, Flags: wqe.FlagSignaled})
	read := b.Post(chainQP, wqe.WQE{
		Op:    wqe.OpRead,
		Dst:   resp.FieldAddr(wqe.OffCtrl),
		Len:   16, // [keyCtrl, valAddr] -> [ctrl, src]
		Flags: wqe.FlagSignaled,
	})
	cas := b.Post(chainQP, wqe.WQE{
		Op:    wqe.OpCAS,
		Dst:   resp.FieldAddr(wqe.OffCtrl),
		Flags: wqe.FlagSignaled,
	})
	return probeRefs{read: read, cas: cas, resp: resp}
}

// sequence emits the ctrl verbs ordering one probe after recv/previous.
func (o *LookupOffload) sequence(ctrl *Builder, p probeRefs) {
	ctrl.Enable(p.read)
	ctrl.WaitStep(p.read)
	ctrl.Enable(p.cas)
	ctrl.WaitStep(p.cas)
	ctrl.Enable(p.resp)
}

// Arm posts one request instance. Each armed instance serves exactly
// one get; servers re-arm from completion callbacks (unrolled mode) or
// pre-arm many instances ahead of time — pre-arming is what lets the
// offload keep serving across host crashes (§5.6).
func (o *LookupOffload) Arm() {
	b := o.B
	o.armed++
	switch o.Mode {
	case LookupSingle:
		p := o.postProbe(o.w2, o.resp1())
		recvTarget := b.ExpectRecv(o.Trig, o.armed, []wqe.ScatterEntry{
			{Addr: p.cas.FieldAddr(wqe.OffCmp), Len: 8},
			{Addr: p.cas.FieldAddr(wqe.OffSwap), Len: 8},
			{Addr: p.read.FieldAddr(wqe.OffSrc), Len: 8},
			{Addr: p.resp.FieldAddr(wqe.OffLen), Len: 8},
			{Addr: p.resp.FieldAddr(wqe.OffDst), Len: 8},
		})
		b.WaitRecv(o.Trig, recvTarget)
		o.sequence(b, p)

	case LookupSeq:
		p1 := o.postProbe(o.w2, o.resp1())
		p2 := o.postProbe(o.w2, o.resp1())
		recvTarget := b.ExpectRecv(o.Trig, o.armed, []wqe.ScatterEntry{
			{Addr: p1.cas.FieldAddr(wqe.OffCmp), Len: 8},
			{Addr: p1.cas.FieldAddr(wqe.OffSwap), Len: 8},
			{Addr: p1.read.FieldAddr(wqe.OffSrc), Len: 8},
			{Addr: p2.cas.FieldAddr(wqe.OffCmp), Len: 8},
			{Addr: p2.cas.FieldAddr(wqe.OffSwap), Len: 8},
			{Addr: p2.read.FieldAddr(wqe.OffSrc), Len: 8},
			{Addr: p1.resp.FieldAddr(wqe.OffLen), Len: 8},
			{Addr: p1.resp.FieldAddr(wqe.OffDst), Len: 8},
			{Addr: p2.resp.FieldAddr(wqe.OffLen), Len: 8},
			{Addr: p2.resp.FieldAddr(wqe.OffDst), Len: 8},
		})
		b.WaitRecv(o.Trig, recvTarget)
		o.sequence(b, p1)
		o.sequence(b, p2)

	case LookupParallel:
		p1 := o.postProbe(o.w2, o.resp1())
		p2 := o.postProbe(o.w2b, o.Resp2)
		recvTarget := b.ExpectRecv(o.Trig, o.armed, []wqe.ScatterEntry{
			{Addr: p1.cas.FieldAddr(wqe.OffCmp), Len: 8},
			{Addr: p1.cas.FieldAddr(wqe.OffSwap), Len: 8},
			{Addr: p1.read.FieldAddr(wqe.OffSrc), Len: 8},
			{Addr: p2.cas.FieldAddr(wqe.OffCmp), Len: 8},
			{Addr: p2.cas.FieldAddr(wqe.OffSwap), Len: 8},
			{Addr: p2.read.FieldAddr(wqe.OffSrc), Len: 8},
			{Addr: p1.resp.FieldAddr(wqe.OffLen), Len: 8},
			{Addr: p1.resp.FieldAddr(wqe.OffDst), Len: 8},
			{Addr: p2.resp.FieldAddr(wqe.OffLen), Len: 8},
			{Addr: p2.resp.FieldAddr(wqe.OffDst), Len: 8},
		})
		// Both control chains fire off the same arrival.
		b.WaitRecv(o.Trig, recvTarget)
		o.sequence(b, p1)
		bb := b.withCtrl(o.ctrlB)
		bb.WaitRecv(o.Trig, recvTarget)
		o.sequence(bb, p2)
	}
	// Newly posted control verbs need a doorbell if the ctrl queue has
	// gone idle since the last request (kicking an active queue is a
	// no-op).
	b.Ctrl.RingSQ()
	if o.ctrlB != nil {
		o.ctrlB.RingSQ()
	}
}

// ChainWQEsPerGet reports how many WQEs one armed instance posts on
// the busiest internal chain ring — the per-instance budget behind
// chain-ring sizing (a ring holding N overlapping instances needs 2N
// times this, since rings wrap only after requests complete).
func ChainWQEsPerGet(mode LookupMode) int {
	if mode == LookupSeq {
		return 4 // both probes (READ+CAS each) share one chain ring
	}
	return 2 // READ+CAS per ring; parallel splits probes across rings
}

// Run starts the control queue(s). Call once after the first Arm.
func (o *LookupOffload) Run() {
	o.B.Run()
	if o.ctrlB != nil {
		o.ctrlB.RingSQ()
	}
}

// WRsPerGet reports the work requests posted per armed get, the cost
// accounting behind Table 2 and the §5.3 WR-budget discussion.
func (o *LookupOffload) WRsPerGet() (data, sync int) {
	switch o.Mode {
	case LookupSingle:
		return 4, 6 // RECV+READ+CAS+resp; WAIT + 2x(ENABLE,WAIT) + ENABLE
	default:
		return 7, 11
	}
}

// TriggerPayload builds the client SEND payload for a get of key,
// requesting length valLen into the client-side buffer respAddr. The
// field order matches Arm's scatter lists.
func (o *LookupOffload) TriggerPayload(key, valLen, respAddr uint64) []byte {
	xc := wqe.MakeCtrl(wqe.OpNoop, key&hopscotch.KeyMask)
	xw := wqe.MakeCtrl(wqe.OpWrite, key&hopscotch.KeyMask)
	h1 := o.Table.HashAddr(key, 0)
	h2 := o.Table.HashAddr(key, 1)
	var fields []uint64
	switch o.Mode {
	case LookupSingle:
		fields = []uint64{xc, xw, h1, valLen, respAddr}
	default:
		fields = []uint64{xc, xw, h1, xc, xw, h2, valLen, respAddr, valLen, respAddr}
	}
	out := make([]byte, len(fields)*8)
	for i, f := range fields {
		binary.BigEndian.PutUint64(out[i*8:], f)
	}
	return out
}

// withCtrl returns a shallow copy of the builder that emits control
// verbs on ctrl instead, sharing completion bookkeeping — used for the
// parallel lookup's second chain.
func (b *Builder) withCtrl(ctrl *rnic.QP) *Builder {
	nb := *b
	nb.Ctrl = ctrl
	return &nb
}
