package core

import (
	"encoding/binary"

	"repro/internal/hopscotch"
	"repro/internal/rnic"
	"repro/internal/wqe"
)

// The version-probe offload: the repair subsystem's cheap sibling of
// the lookup chain.
//
// Replica convergence needs a way for a coordinator to ask a replica
// "what version of key x do you hold?" without burning a host RPC per
// question — the whole point of RedN is that the NIC can answer. A
// probe is one SEND scattered into a pre-armed three-verb chain:
//
//	RECV  scatter cond operands + bucket addr + response addrs
//	read  READ 8B bucket.keyCtrl -> resp.ctrl   (inject the occupant)
//	cas   resp.ctrl: NOOP|key -> WRITE|key      (flip iff it is key)
//	resp  WRITE 8B bucket.version -> client     (the answer)
//
// This is the lookup chain's injection idiom aimed at the version word
// instead of the value: the probe READ copies the bucket's key/control
// word verbatim onto the response WQE, the CAS flips NOOP to WRITE
// exactly when the bucket holds the probed key, and the armed WRITE
// returns the bucket's 8-byte version word — stamping the key into the
// completion's id field for client-side demultiplexing. A bucket that
// holds another key, a tombstone, or a pending word fails the compare
// and the chain falls through: no response, and the client times out —
// the same no-negative-acknowledgement discipline as gets. The version
// word sits outside the 16 bytes lookup probes inject, so probes and
// lookups share one bucket layout without interference.
//
// Cost per armed probe: 4 data WRs (RECV, READ, CAS, WRITE) and 6 sync
// WRs (WAIT on the trigger, ENABLE+WAIT around READ and CAS, ENABLE of
// the response) — under half a lookup, and no host involvement at all,
// which is what makes read-repair affordable on every replicated get.

// ProbeTarget names the bucket a probe interrogates. The coordinator
// computes it from its view of the replica's table, exactly as set and
// delete claims are computed; a stale view fails the CAS harmlessly and
// the probe times out.
type ProbeTarget struct {
	BucketAddr uint64
}

// ProbeOffload is an armed version-probe offload for one request slot
// of a client connection's probe path; the version response lives on
// Resp.
type ProbeOffload struct {
	offloadBase
	w2 *rnic.QP // managed chain ring: read + conditional
}

// probeChainWQEs is the busiest-ring WQE budget of one instance (w2):
// the injection READ and the conditional CAS.
const probeChainWQEs = 2

// NewProbeOffload builds one probe context. trig is the server-side QP
// of the client's probe connection (managed RQ); resp a server-side
// managed QP connected back to the client for the version response.
func NewProbeOffload(b *Builder, trig, resp *rnic.QP) *ProbeOffload {
	o := &ProbeOffload{offloadBase: newOffloadBase(b, trig, resp)}
	o.w2 = o.chainRing(2*probeChainWQEs + 4)
	return o
}

// Arm posts one probe instance. Re-arming models the client rewriting
// the registered code region over RDMA (§3.5), exactly like the other
// chains — so probes, too, survive host failures that leave the NIC
// alive.
func (o *ProbeOffload) Arm() {
	b := o.B
	o.armed++

	resp := b.Post(o.Resp, wqe.WQE{Op: wqe.OpNoop, Len: 8, Flags: wqe.FlagSignaled})
	read := b.Post(o.w2, wqe.WQE{Op: wqe.OpRead,
		Dst: resp.FieldAddr(wqe.OffCtrl), Len: 8, Flags: wqe.FlagSignaled})
	cas := b.Post(o.w2, wqe.WQE{Op: wqe.OpCAS,
		Dst: resp.FieldAddr(wqe.OffCtrl), Flags: wqe.FlagSignaled})

	recvTarget := b.ExpectRecv(o.Trig, o.armed, []wqe.ScatterEntry{
		{Addr: cas.FieldAddr(wqe.OffCmp), Len: 8},
		{Addr: cas.FieldAddr(wqe.OffSwap), Len: 8},
		{Addr: read.FieldAddr(wqe.OffSrc), Len: 8},
		{Addr: resp.FieldAddr(wqe.OffSrc), Len: 8},
		{Addr: resp.FieldAddr(wqe.OffDst), Len: 8},
	})
	b.WaitRecv(o.Trig, recvTarget)
	b.Enable(read)
	b.WaitStep(read)
	b.Enable(cas)
	b.WaitStep(cas)
	b.Enable(resp)
	b.Ctrl.RingSQ()
}

// ProbeWRsPerOp reports the work requests one armed probe posts — the
// repair path's Table 2-style budget.
func ProbeWRsPerOp() (data, sync int) { return 4, 6 }

// TriggerPayload builds the client SEND payload for a probe of key at
// target, answering 8 bytes (the bucket's version word) into the
// client-side respAddr. Field order matches Arm's scatter list.
func (o *ProbeOffload) TriggerPayload(key uint64, target ProbeTarget, respAddr uint64) []byte {
	k := key & hopscotch.KeyMask
	fields := []uint64{
		wqe.MakeCtrl(wqe.OpNoop, k),  // expected occupant
		wqe.MakeCtrl(wqe.OpWrite, k), // armed response word
		target.BucketAddr,
		target.BucketAddr + hopscotch.OffVersion, // response source
		respAddr,
	}
	out := make([]byte, len(fields)*8)
	for i, f := range fields {
		binary.BigEndian.PutUint64(out[i*8:], f)
	}
	return out
}
