package core

import (
	"fmt"

	"repro/internal/rnic"
	"repro/internal/telemetry"
)

// offloadBase is the plumbing every offload context shares, whatever
// its chain body: the builder whose control queue sequences the chain,
// the trigger QP whose RQ receives the client's SENDs, the response QP,
// the context's private rings, and the count of armed instances. Only
// Arm and TriggerPayload differ between offload kinds.
type offloadBase struct {
	B *Builder
	// Trig is the server side of the client connection; its RQ receives
	// trigger SENDs and, in a pool, is shared by every context.
	Trig *rnic.QP
	// Resp is the context's dedicated managed QP back to the client,
	// holding its response WQEs (per context: an ENABLE grants every
	// earlier WQE on a ring, so two contexts sharing a response ring
	// could release each other's un-CASed responses). A standalone
	// lookup leaves it nil and answers on Trig's SQ.
	Resp *rnic.QP

	// rings[:nRings] are the context's private queues — control
	// queues, chain rings, response QPs — each listed once.
	rings  [maxRings]*rnic.QP
	nRings int
	armed  uint64
}

// maxRings bounds a context's private queues: a parallel lookup has
// two of each of control queue, chain ring and response QP.
const maxRings = 6

func newOffloadBase(b *Builder, trig, resp *rnic.QP) offloadBase {
	o := offloadBase{B: b, Trig: trig, Resp: resp}
	o.ring(b.Ctrl)
	if resp != nil {
		o.ring(resp)
	}
	return o
}

// ring registers q as one of the context's private queues.
func (o *offloadBase) ring(q *rnic.QP) *rnic.QP {
	o.rings[o.nRings] = q
	o.nRings++
	return q
}

// chainRing allocates a private managed chain ring of depth WQEs,
// round-robined over the port's PUs. Chain verbs are posted signaled
// to gate the WAITs; nothing polls their CQs, so they drain at
// delivery or long runs would retain every CQE.
func (o *offloadBase) chainRing(depth int) *rnic.QP {
	q := o.B.NewManagedQPOnPU(depth, -1)
	q.SendCQ().SetAutoDrain(true)
	return o.ring(q)
}

// SetTraceOp tags the context's private rings so the WRs of the
// instance armed next attribute to op in traces. The shared trigger QP
// stays untagged: its batched SENDs interleave ops.
func (o *offloadBase) SetTraceOp(op uint64) {
	for _, q := range o.rings[:o.nRings] {
		q.SetTraceOp(op)
	}
}

// SetReceipt rides a latency receipt on the context's private rings
// (the set SetTraceOp tags) so the next armed instance's resource
// grants fold into it. nil clears.
func (o *offloadBase) SetReceipt(r *telemetry.Receipt) {
	for _, q := range o.rings[:o.nRings] {
		q.SetReceipt(r)
	}
}

// SetProfClass tags every QP the context executes WRs through —
// including the trigger QP, which serves only this op class — for
// profiler attribution. Static; call once at wiring.
func (o *offloadBase) SetProfClass(class string) {
	for _, q := range o.rings[:o.nRings] {
		q.SetProfClass(class)
	}
	if o.Trig != nil {
		o.Trig.SetProfClass(class)
	}
}

// Armed returns the number of request instances armed so far. Each
// instance serves exactly one request; the difference between Armed
// and the requests completed is the context's in-flight window.
func (o *offloadBase) Armed() uint64 { return o.armed }

// Context is the tagging every offload context provides through its
// embedded base, whatever its chain body.
type Context interface {
	SetTraceOp(op uint64)
	SetReceipt(r *telemetry.Receipt)
	SetProfClass(class string)
}

// Pool is K independent offload contexts of one kind sharing one
// client connection — the server-side substrate of a pipelined path.
//
// A single context serializes every armed instance through one control
// queue: instance i+1's WAITs sit behind instance i's entire chain, so
// overlapping requests gain almost nothing. The pool instead gives
// each in-flight request slot its own context — a private control
// queue, chain rings and response QP, spread round-robin across the
// port's processing units — while all contexts share the connection's
// trigger RQ and its arrival counter. A WAIT in context j targets the
// absolute arrival count of the shared trigger CQ, so the j-th armed
// chain fires on the j-th SEND no matter which context owns it, and K
// chains then execute concurrently on the NIC exactly as K pre-armed
// RedN programs would on real hardware (§5.2.2's extra-QP parallelism
// trade-off, paid K times). The caller must therefore send triggers in
// global arm order.
type Pool[C Context] struct {
	// Trig is the shared server-side connection QP: its RQ receives
	// every trigger SEND, in global arm order.
	Trig *rnic.QP
	// Ctxs are the K contexts; Ctxs[i] serves the client's request
	// slot i.
	Ctxs []C
}

// poolCtrlDepth sizes each pooled context's control queue: a context
// serves one request at a time, so one instance's sync verbs (ring
// wrap needs 2x) fit with room to spare.
const poolCtrlDepth = 64

// NewPool builds K = len(resp) contexts over the trig connection. resp
// are server-side managed QPs, each connected back to the client, one
// per context. Each context gets a sub-builder with a private control
// queue (sharing b's completion bookkeeping and device); mk builds
// context i on it, over the shared trigger QP and its response QP.
func NewPool[C Context](b *Builder, trig *rnic.QP, resp []*rnic.QP, mk func(i int, cb *Builder, trig, resp *rnic.QP) C) Pool[C] {
	if len(resp) == 0 {
		panic("core: a pool needs at least one response QP")
	}
	p := Pool[C]{Trig: trig, Ctxs: make([]C, len(resp))}
	for i := range resp {
		p.Ctxs[i] = mk(i, b.SubBuilder(poolCtrlDepth, -1), trig, resp[i])
	}
	return p
}

// Depth returns the number of contexts (max overlapping requests).
func (p *Pool[C]) Depth() int { return len(p.Ctxs) }

// SetProfClass tags every context (and the shared trigger QP) with an
// op class for profiler attribution.
func (p *Pool[C]) SetProfClass(class string) {
	for _, o := range p.Ctxs {
		o.SetProfClass(class)
	}
}

// LookupPool is a pool of hash-get contexts — the pipelined get path.
type LookupPool struct {
	Pool[*LookupOffload]
	Mode LookupMode
}

// NewLookupPool builds K = len(resp) lookup contexts over the trig
// connection. resp2 (parallel mode only) holds each context's second
// response QP.
func NewLookupPool(b *Builder, trig *rnic.QP, resp, resp2 []*rnic.QP, table GetIndex, mode LookupMode) *LookupPool {
	if mode == LookupParallel && len(resp2) != len(resp) {
		panic(fmt.Sprintf("core: parallel pool needs resp2 per context (%d != %d)", len(resp2), len(resp)))
	}
	// A chain ring holds one instance's probes (ring wrap needs 2x).
	chainDepth := 2*ChainWQEsPerGet(mode) + 8
	return &LookupPool{Mode: mode, Pool: NewPool(b, trig, resp, func(i int, cb *Builder, trig, r *rnic.QP) *LookupOffload {
		o := &LookupOffload{offloadBase: newOffloadBase(cb, trig, r), Mode: mode, Table: table}
		o.w2 = o.chainRing(chainDepth)
		if mode == LookupParallel {
			o.Resp2 = o.ring(resp2[i])
			o.w2b = o.chainRing(chainDepth)
			o.ctrlB = o.ring(cb.NewQPOnPU(poolCtrlDepth, -1))
		}
		return o
	})}
}

// SetTable points every context at the same hash-table geometry.
func (p *LookupPool) SetTable(t GetIndex) {
	for _, o := range p.Ctxs {
		o.Table = t
	}
}
