package redn

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/extent"
	"repro/internal/fabric"
	"repro/internal/hopscotch"
	"repro/internal/rnic"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/wqe"
)

// DefaultMissTimeout is how long a get waits for the NIC's response
// WRITE before declaring a miss. The offload has no negative
// acknowledgement — a failed key compare leaves the response WQE a
// NOOP — so absence of data is the only miss signal, exactly as in the
// paper's client.
const DefaultMissTimeout = 200 * sim.Microsecond

// DefaultMaxValLen bounds the value size one get can return; it sizes
// the client's per-request response buffers.
const DefaultMaxValLen = 1 << 17

// DefaultEcnBacklog is the completion-stamped PU backlog above which an
// ack counts as a congestion signal: far enough under MissTimeout that
// an adaptive window cuts on marks long before requests start dying.
const DefaultEcnBacklog = 25 * sim.Microsecond

// DefaultWindowBeta is the multiplicative-decrease factor an adaptive
// window applies on timeout or ECN mark.
const DefaultWindowBeta = 0.5

// Op names one of the client's four offload pipelines.
type Op uint8

// The client's offload pipelines.
const (
	OpGet Op = iota
	OpSet
	OpDelete
	OpProbe
)

func (o Op) String() string {
	switch o {
	case OpGet:
		return "get"
	case OpSet:
		return "set"
	case OpDelete:
		return "del"
	case OpProbe:
		return "probe"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// PipelineStats is a point-in-time snapshot of one pipeline's
// occupancy and counters. InFlight and Wedged are disjoint: a
// quarantined slot is neither free nor carrying a live request.
type PipelineStats struct {
	InFlight int // slots occupied by live requests
	Queued   int // requests waiting client-side for a slot or window
	Wedged   int // quarantined slots (armed chain never executed)
	Window   int // current congestion window (== Depth when pinned)

	Issued      uint64 // requests issued (or failed on a dead connection)
	Acks        uint64 // requests that succeeded (get hits, acked writes)
	Fails       uint64 // requests that failed (misses, refusals, timeouts)
	MaxInFlight int    // high-water mark of occupied slots
}

// Client is a remote node issuing offloaded gets and sets against a
// server's hash table, entirely served by the server's NIC.
//
// A client keeps up to depth requests in flight per op on one
// connection per op (get/set/delete/probe), all four driven by the
// same pipeline machinery (opPipeline): each in-flight request owns
// one offload context of the server-side pool (the request slot) and
// the per-slot buffers its chain reads and writes. Responses
// demultiplex exactly: a context's response QP completes only its own
// WRITEs, so a completion identifies its slot, and the 48-bit key the
// conditional CAS stamps into the WRITE's id field guards against
// stragglers from timed-out instances. Trigger SENDs are posted
// doorbell-less and kicked in batches by Flush.
//
// How many of the depth slots a pipeline may occupy at once is its
// congestion window. Pinned (the default) it equals depth — the fixed-K
// pipeline. ConfigureWindow enables AIMD: grow by 1/w per clean ack,
// cut multiplicatively on timeout and on the ECN-like backlog watermark
// the NIC stamps into completions, floor 1, one cut per window epoch.
type Client struct {
	tb    *Testbed
	node  *fabric.Node
	pool  *core.LookupPool
	spool core.Pool[*core.SetOffload]
	dpool *core.DeletePool
	ppool core.Pool[*core.ProbeOffload]
	table *HashTable
	arena *extent.Arena // server arena freed extents return to

	// MissTimeout is the per-request deadline after which an unanswered
	// request completes as a miss/failure. Mutable between requests.
	MissTimeout Duration

	depth  int
	maxVal uint64
	zero   []byte // reusable zero source for clearing response slots

	// The four pipelines behind GetAsync/SetAsync/DeleteAsync/ProbeAsync
	// — one implementation, per-op hooks. pipes indexes them by Op in
	// doorbell order (get, set, del, probe).
	get, set, del, prb *opPipeline
	pipes              [4]*opPipeline

	// Per-slot landing buffers, per path (trigger buffers live on the
	// pipelines).
	resp       []uint64 // get: response
	sval, sack []uint64 // set: value staging + ack
	dack       []uint64 // delete: ack
	presp      []uint64 // probe: version landing

	// prevVal tracks, per key, the extent the bucket held after this
	// client's last acknowledged standalone set — freed exactly once
	// when the NEXT same-key ack supersedes it. Closure-captured
	// "old value" snapshots cannot do this: two pipelined same-key
	// overwrites would capture the same extent and free it twice.
	// Only the SetAsync/DeleteAsync lifecycle path populates it; the
	// Service drives SetAsyncClaim and owns extent lifecycle itself.
	prevVal map[uint64]uint64

	// nextVer issues versions for the standalone SetAsync/DeleteAsync
	// lifecycle path (a per-client monotone counter standing in for the
	// coordinator's quorum sequence). Service writes pass explicit
	// versions through the *Claim entry points.
	nextVer map[uint64]uint64

	gcFreed, gcStale uint64 // to-free ring drains: extents returned / already gone

	// ---- telemetry (nil tracer = disabled, zero cost) ----

	tr      *telemetry.Tracer
	trLabel string

	// rcptHook, when set (with provenance enabled), observes every
	// finalized receipt synchronously before its delivery callback.
	// The service records probe receipts through it; get/set/delete
	// receipts fold at the coordinator instead.
	rcptHook func(Op, *telemetry.Receipt)
}

// pipeReq is one in-flight (or queued) request on any pipeline. The
// per-op payload fields are a union; only the issuing shim's fields are
// set.
type pipeReq struct {
	key    uint64
	slot   int
	seq    uint64 // issue sequence (window-epoch guard for AIMD cuts)
	start  sim.Time
	done   bool
	issued bool
	op     uint64 // trace op id (0 = untraced)

	// Provenance stamps: when the request entered the pipeline and
	// whether it queued for window headroom (vs a free slot). The
	// receipt's window/queue phases are the submit->issue gap,
	// attributed by cause.
	submit  sim.Time
	winFull bool

	valLen uint64                                  // get
	getCB  func(val []byte, lat Duration, ok bool) // get
	val    []byte                                  // set
	sclaim core.SetClaim                           // set
	dclaim core.DeleteClaim                        // delete
	ver    uint64                                  // set/delete version
	target core.ProbeTarget                        // probe
	prbCB  func(ver uint64, lat Duration, ok bool) // probe
	ackCB  func(lat Duration, ok bool)             // set/delete

	staging   uint64 // set: server staging extent this chain targets
	lifecycle bool   // set: standalone path, client manages extent retirement
}

// aimdWindow is one pipeline's congestion window. Pinned (adaptive
// false) it is the fixed-depth pipeline: size() == depth always, and
// ack/cut signals are ignored. Adaptive, it is textbook AIMD —
// additive increase 1/w per clean ack, multiplicative decrease by beta
// on timeout or ECN mark, floored at one slot, capped at depth, and at
// most one cut per window epoch (requests issued before the last cut
// cannot cut again; their losses are consequences of the same
// congestion event).
type aimdWindow struct {
	adaptive bool
	w        float64
	depth    float64
	beta     float64
	ecn      sim.Time // ack backlog above this marks congestion; <0 disables
	lastCut  uint64   // issue seq the last cut charged; older reqs can't re-cut

	cuts, ecnCuts uint64 // total cuts / cuts taken on ECN marks
}

func (a *aimdWindow) size() int {
	if !a.adaptive {
		return int(a.depth)
	}
	return int(a.w)
}

// onAck grows the window additively on a clean (unmarked) ack.
func (a *aimdWindow) onAck() {
	if !a.adaptive {
		return
	}
	a.w += 1 / a.w
	if a.w > a.depth {
		a.w = a.depth
	}
}

// cut applies one multiplicative decrease if reqSeq postdates the last
// cut, charging the cut to curSeq (the newest issued request) so every
// loss from the same congestion event is absorbed by one decrease.
// ecn attributes the cut to an ECN mark rather than a timeout.
func (a *aimdWindow) cut(reqSeq, curSeq uint64, ecn bool) bool {
	if !a.adaptive || reqSeq <= a.lastCut {
		return false
	}
	a.lastCut = curSeq
	a.w *= a.beta
	if a.w < 1 {
		a.w = 1
	}
	a.cuts++
	if ecn {
		a.ecnCuts++
	}
	return true
}

// marked reports whether an ack's completion-stamped backlog counts as
// an ECN congestion mark.
func (a *aimdWindow) marked(backlog sim.Time) bool {
	return a.adaptive && a.ecn > 0 && backlog > a.ecn
}

// opPipeline is the one pipeline implementation behind all four async
// paths: slot free list, client-side waiting queue, doorbell batching,
// per-slot armed-vs-executed wedge accounting, and the congestion
// window. Per-op behavior — WR construction, completion payload,
// post-release lifecycle — lives in the three hook closures.
type opPipeline struct {
	c    *Client
	op   Op
	name string // trace names: "get", "set", "del", "probe"

	depth   int
	respPer uint64   // signaled response completions per executed instance
	qp      *rnic.QP // client side of the trigger connection
	trig    []uint64 // per-slot trigger payload buffers

	free    []int
	slots   []*pipeReq // in-flight request per slot (nil = free)
	waiting []*pipeReq // no free slot (or window headroom) yet
	dirty   bool       // posted WRs awaiting a doorbell

	// Chain-execution accounting: every response WQE is signaled, so
	// each executed instance delivers exactly respPer completions on
	// its slot's response QP(s) — ack (WRITE) or refusal (NOOP) alike.
	// armCount-vs-execSeen is how the client detects a dead server NIC
	// (a frozen device drops trigger SENDs; the armed chain never runs)
	// without any out-of-band signal: a timed-out slot whose instance
	// never executed is quarantined instead of re-armed, since stacking
	// instances on an unresponsive context would overflow its rings.
	armCount []uint64
	execSeen []uint64
	wedged   []bool
	nWedged  int

	// inFlight counts slots occupied by live requests — maintained
	// directly at issue/finish so it stays disjoint from both the free
	// list and the quarantine (inFlight + len(free) + nWedged == depth).
	inFlight int

	seq                 uint64 // issue sequence (feeds the window's epoch guard)
	issued, acks, fails uint64
	maxInFlight         int
	// lastRan records, for the most recent failed request, whether the
	// offload chain actually executed (a genuine refusal/miss on a live
	// NIC) or never ran (dead/frozen server). Valid inside the failure
	// callback; the service's crash detector reads it so refusals don't
	// count toward a shard's suspect threshold.
	lastRan bool

	win aimdWindow

	// Latency provenance (nil rcpts = disabled, zero cost): one
	// fixed-size receipt per slot, reset at issue and finalized at
	// finish; posted tracks requests awaiting their doorbell so Flush
	// can stamp the batching delay; lastRcpt is the receipt of the most
	// recently finished request, valid inside its delivery callback.
	rcpts    []telemetry.Receipt
	posted   []*pipeReq
	lastRcpt *telemetry.Receipt

	trTracks []string // per-slot trace track names, precomputed

	// Per-op hooks: post arms the slot's offload context and posts its
	// WRs (doorbell-less); deliver runs the typed callback, reading any
	// completion payload from client memory (slotValid false = the
	// request never reached a slot); release runs op-specific lifecycle
	// after the slot decision (executed = the armed chain ran).
	post    func(req *pipeReq)
	deliver func(req *pipeReq, lat Duration, ok, slotValid bool)
	release func(req *pipeReq, ok, executed bool)
}

// newPipeline builds the op-agnostic skeleton; the caller wires qp,
// respPer and the hooks.
func newPipeline(c *Client, op Op, name string, depth int) *opPipeline {
	p := &opPipeline{
		c: c, op: op, name: name, depth: depth, respPer: 1,
		slots:    make([]*pipeReq, depth),
		armCount: make([]uint64, depth),
		execSeen: make([]uint64, depth),
		wedged:   make([]bool, depth),
		win: aimdWindow{
			w: float64(depth), depth: float64(depth),
			beta: DefaultWindowBeta, ecn: DefaultEcnBacklog,
		},
	}
	for i := 0; i < depth; i++ {
		p.free = append(p.free, i)
	}
	return p
}

// pending returns how many signaled response completions the slot's
// armed instances still owe.
func (p *opPipeline) pending(slot int) uint64 {
	return p.armCount[slot]*p.respPer - p.execSeen[slot]
}

// submit routes one request into the pipeline: issue if a slot and
// window headroom are available, queue otherwise — unless every slot is
// quarantined, in which case the connection is dead and the request
// fails after the miss deadline (the elapsed time a real client would
// wait on an unresponsive server before giving up).
func (p *opPipeline) submit(req *pipeReq) {
	req.submit = p.c.tb.clu.Eng.Now()
	if len(p.free) == 0 || p.inFlight >= p.win.size() {
		req.winFull = p.inFlight >= p.win.size()
		if p.nWedged == p.depth {
			p.issued++
			p.failLater(req)
			return
		}
		p.waiting = append(p.waiting, req)
		return
	}
	p.issue(req)
}

// failLater completes req as failed one MissTimeout from now unless it
// got issued or completed in the meantime (a slot was reclaimed).
func (p *opPipeline) failLater(req *pipeReq) {
	c := p.c
	c.tb.clu.Eng.After(c.MissTimeout, func() {
		if req.done || req.issued {
			return
		}
		req.done = true
		p.fails++
		p.lastRan = false // never even reached a slot
		p.lastRcpt = nil  // never issued: no receipt
		p.deliver(req, c.MissTimeout, false, false)
	})
}

// issue arms one offload instance on a free slot and posts its WRs
// (doorbell-less; Flush kicks them).
func (p *opPipeline) issue(req *pipeReq) {
	c := p.c
	slot := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	req.slot = slot
	req.issued = true
	p.slots[slot] = req
	p.armCount[slot]++
	p.issued++
	p.inFlight++
	p.seq++
	req.seq = p.seq
	if f := p.depth - len(p.free); f > p.maxInFlight {
		p.maxInFlight = f
	}

	req.start = c.tb.clu.Eng.Now()
	if p.rcpts != nil {
		r := &p.rcpts[slot]
		r.Reset(req.op, uint8(p.op), req.submit)
		if wait := req.start - req.submit; wait > 0 {
			if req.winFull {
				r.AddPhase(telemetry.PhaseWindow, wait)
			} else {
				r.AddPhase(telemetry.PhaseQueue, wait)
			}
		}
		p.posted = append(p.posted, req)
	}
	p.post(req)
	p.dirty = true
	c.tb.clu.Eng.After(c.MissTimeout, func() { p.onTimeout(req) })
}

// onAck completes slot's in-flight request at time at. A key mismatch
// means the WRITE belongs to an instance whose request already timed
// out and whose slot was reissued — dropped. (A same-key straggler is
// indistinguishable and completes the current request; its response
// bytes are the same value, so only the latency attribution blurs.)
func (p *opPipeline) onAck(slot int, key uint64, at, backlog sim.Time) {
	req := p.slots[slot]
	if req == nil || req.key != key {
		return
	}
	p.acks++
	p.finish(req, at-req.start, true, backlog)
}

// onTimeout completes req as failed if it is still outstanding. The
// reported latency is exactly the configured timeout — the elapsed
// time a real client would have waited before giving up.
func (p *opPipeline) onTimeout(req *pipeReq) {
	if req.done || p.slots[req.slot] != req {
		return
	}
	p.fails++
	p.finish(req, p.c.MissTimeout, false, 0)
}

// finish releases req's slot, feeds the congestion window, runs the
// op's release hook and callback, and refills the pipeline from the
// waiting queue (self-flushing: the driver may never call Flush
// again). A slot timing out with its armed instance still unexecuted
// (no response completions delivered, ack or refusal) is quarantined
// rather than re-armed: the server NIC dropped the trigger, and
// stacking fresh instances on the dead context would overflow its
// chain rings. A confirmed ack always frees the slot — the WRITE
// proves the chain ran.
func (p *opPipeline) finish(req *pipeReq, lat Duration, ok bool, backlog sim.Time) {
	req.done = true
	c := p.c
	if c.tr.Enabled() {
		c.tr.Exec(c.trLabel, p.trTracks[req.slot], "slot", req.start, c.tb.clu.Eng.Now(), req.op)
	}
	p.slots[req.slot] = nil
	p.inFlight--
	executed := p.pending(req.slot) < p.respPer
	if !ok && !executed {
		p.lastRan = false
		p.wedged[req.slot] = true
		p.nWedged++
		if p.nWedged == p.depth {
			// Nothing will ever free a slot: fail the queue rather
			// than strand it.
			for _, w := range p.waiting {
				p.failLater(w)
			}
			p.waiting = nil
		}
	} else {
		if !ok {
			p.lastRan = true
		}
		p.free = append(p.free, req.slot)
	}
	// Window control: a timeout is a loss, an ECN-marked ack is
	// congestion news one RTT earlier; either cuts once per epoch. A
	// clean ack grows the window.
	if !ok || p.win.marked(backlog) {
		if p.win.cut(req.seq, p.seq, ok) && c.tr.Enabled() {
			c.tr.Instant(c.trLabel, "wcut:"+p.name, req.op)
		}
	} else {
		p.win.onAck()
	}
	if p.rcpts != nil {
		// Finalize the receipt: the fabric phase is the post->completion
		// span minus the doorbell-batching delay Flush stamped, so the
		// phases partition submit->finish exactly.
		r := &p.rcpts[req.slot]
		r.Censored = !ok
		r.AddPhase(telemetry.PhaseFabric, lat-r.Phases[telemetry.PhaseDoorbell])
		r.Total = r.PhaseSum()
		p.lastRcpt = r
		if c.rcptHook != nil {
			c.rcptHook(p.op, r)
		}
	}
	if p.release != nil {
		p.release(req, ok, executed)
	}
	p.deliver(req, lat, ok, true)
	p.pump()
	c.Flush()
}

// reclaim returns a quarantined slot to service once its backlog
// clears: response completions are delivered in order, so pending
// falling below one instance's worth means the last armed chain has
// begun executing on a live NIC.
func (p *opPipeline) reclaim(slot int) {
	if !p.wedged[slot] || p.pending(slot) >= p.respPer {
		return
	}
	p.wedged[slot] = false
	p.nWedged--
	p.free = append(p.free, slot)
	p.pump()
	p.c.Flush()
}

// pump issues queued requests while free slots and window headroom
// remain.
func (p *opPipeline) pump() {
	for len(p.waiting) > 0 && len(p.free) > 0 && p.inFlight < p.win.size() {
		next := p.waiting[0]
		p.waiting = p.waiting[1:]
		if next.done {
			continue
		}
		p.issue(next)
	}
}

// subscribe wires the demultiplexer for one slot's response QP: slot
// i's context WRITEs only on its own response QP(s), so the closure
// knows the slot exactly; the key stamped in the WRITE's id field (the
// CAS operand of Fig 9) rejects stragglers from instances that already
// timed out. The completion-stamped backlog watermark rides along as
// the window's ECN signal.
func (p *opPipeline) subscribe(slot int, respQP *rnic.QP) {
	respQP.SendCQ().SetAutoDrain(true)
	respQP.SendCQ().OnDeliver(func(e rnic.CQE) {
		p.execSeen[slot]++
		if e.Op == wqe.OpWrite {
			p.onAck(slot, e.WRID, e.At, e.Backlog)
		}
		p.reclaim(slot)
	})
}

// WindowConfig tunes the pipelines' AIMD congestion windows.
type WindowConfig struct {
	// Adaptive enables AIMD; false pins every window to the pipeline
	// depth (the fixed-K behavior).
	Adaptive bool
	// Start is the initial window in slots (0 or out of range = depth).
	Start int
	// Beta is the multiplicative-decrease factor (0 = DefaultWindowBeta).
	Beta float64
	// EcnBacklog marks acks whose completion-stamped backlog exceeds it
	// as congestion (0 = DefaultEcnBacklog; negative disables ECN cuts,
	// leaving timeouts as the only loss signal).
	EcnBacklog Duration
}

// ConfigureWindow applies cfg to all four pipelines. The default is
// pinned: a window fixed at the pipeline depth.
func (c *Client) ConfigureWindow(cfg WindowConfig) {
	beta := cfg.Beta
	if beta == 0 {
		beta = DefaultWindowBeta
	}
	ecn := cfg.EcnBacklog
	if ecn == 0 {
		ecn = DefaultEcnBacklog
	}
	start := cfg.Start
	if start <= 0 || start > c.depth {
		start = c.depth
	}
	for _, p := range c.pipes {
		p.win.adaptive = cfg.Adaptive
		p.win.w = float64(start)
		p.win.beta = beta
		p.win.ecn = ecn
	}
}

// SetTracer attaches a tracer for slot-occupancy spans, doorbell and
// window-cut instants, labeling this client's tracks (typically the
// node name).
func (c *Client) SetTracer(tr *telemetry.Tracer, label string) {
	c.tr = tr
	c.trLabel = label
	if !tr.Enabled() {
		return
	}
	for _, p := range c.pipes {
		p.trTracks = make([]string, c.depth)
		for i := 0; i < c.depth; i++ {
			p.trTracks[i] = fmt.Sprintf("%s/slot%d", p.name, i)
		}
	}
}

// ClientStats is a point-in-time snapshot of the client's counters
// that span its pipelines; per-op counters are in PipelineStats.
type ClientStats struct {
	// GCFreed/GCStale count to-free ring drains: extents returned to
	// the arena vs entries whose extent was already gone.
	GCFreed, GCStale uint64

	// WindowCuts/EcnCuts total the multiplicative decreases across all
	// four windows (EcnCuts the subset taken on ECN marks rather than
	// timeouts). Zero while windows are pinned.
	WindowCuts, EcnCuts uint64
}

// Stats snapshots the client-wide counters.
func (c *Client) Stats() ClientStats {
	st := ClientStats{GCFreed: c.gcFreed, GCStale: c.gcStale}
	for _, p := range c.pipes {
		st.WindowCuts += p.win.cuts
		st.EcnCuts += p.win.ecnCuts
	}
	return st
}

// NewClient adds a client node connected back-to-back to srv, keeping
// one get in flight at a time (the paper's blocking client).
func (t *Testbed) NewClient(srv *Server, mode LookupMode) *Client {
	return t.NewPipelinedClient(srv, mode, 1)
}

// NewPipelinedClient adds a client whose connection keeps up to depth
// gets in flight. The server-side rings, offload chain rings and
// client-side buffer pools are sized for the pipeline.
func (t *Testbed) NewPipelinedClient(srv *Server, mode LookupMode, depth int) *Client {
	if depth < 1 {
		depth = 1
	}
	t.n++
	node := t.clu.AddNode(fabric.DefaultNodeConfig(fmt.Sprintf("client%d", t.n)))
	return newClientOnNode(t, node, srv, mode, depth, DefaultMaxValLen, srv.Arena())
}

// newClientOnNode wires the four connections, the offload context pools
// and the demultiplexers; the Service uses it to place clients on its
// own nodes. arena supplies (and reclaims) the server-side value
// extents this connection's writes stage into; nil reproduces the
// leak-forever bump allocator.
func newClientOnNode(t *Testbed, node *fabric.Node, srv *Server, mode LookupMode, depth int, maxVal uint64, arena *extent.Arena) *Client {
	c := &Client{tb: t, node: node,
		MissTimeout: DefaultMissTimeout,
		depth:       depth,
		maxVal:      maxVal,
		zero:        make([]byte, maxVal),
		arena:       arena,
		prevVal:     make(map[uint64]uint64),
		nextVer:     make(map[uint64]uint64),
	}
	c.get = newPipeline(c, OpGet, "get", depth)
	c.set = newPipeline(c, OpSet, "set", depth)
	c.del = newPipeline(c, OpDelete, "del", depth)
	c.prb = newPipeline(c, OpProbe, "probe", depth)
	c.pipes = [4]*opPipeline{c.get, c.set, c.del, c.prb}

	// Each path has its own connection, so each trigger RQ's arrival
	// counter sequences one path independently. Gets: seq probes two
	// buckets, parallel answers on a second response QP per slot.
	nResp := 1
	switch mode {
	case LookupSeq:
		c.get.respPer = 2
	case LookupParallel:
		c.get.respPer, nResp = 2, 2
	}
	srvQP, resp := c.connect(c.get, srv, 128, nResp, func() {
		c.resp = append(c.resp, node.Mem.Alloc(maxVal, 64))
	})
	c.pool = core.NewLookupPool(srv.builder, srvQP, resp[0], resp[1], nil, mode)
	c.pool.SetProfClass(c.get.name)

	srvQP, resp = c.connect(c.set, srv, 128, 1, func() {
		c.sval = append(c.sval, node.Mem.Alloc(maxVal, 64))
		c.sack = append(c.sack, node.Mem.Alloc(8, 8))
	})
	c.spool = core.NewPool(srv.builder, srvQP, resp[0], func(_ int, cb *core.Builder, trig, r *rnic.QP) *core.SetOffload {
		return core.NewSetOffload(cb, trig, r, maxVal, c.arena)
	})
	c.spool.SetProfClass(c.set.name)

	// Deletes share one to-free ring across the pool's contexts.
	srvQP, resp = c.connect(c.del, srv, 128, 1, func() {
		c.dack = append(c.dack, node.Mem.Alloc(8, 8))
	})
	c.dpool = core.NewDeletePool(srv.builder, srvQP, resp[0])
	c.dpool.SetProfClass(c.del.name)

	// Probes are the repair subsystem's version interrogation (see
	// internal/core/probe.go).
	srvQP, resp = c.connect(c.prb, srv, 64, 1, func() {
		c.presp = append(c.presp, node.Mem.Alloc(8, 8))
	})
	c.ppool = core.NewPool(srv.builder, srvQP, resp[0], func(_ int, cb *core.Builder, trig, r *rnic.QP) *core.ProbeOffload {
		return core.NewProbeOffload(cb, trig, r)
	})
	c.ppool.SetProfClass(c.prb.name)

	c.wireHooks()
	return c
}

// connect opens p's connections to srv, in the order that fixes QPNs and
// addresses: the trigger connection — client SQ paces SENDs, server RQ
// holds one pre-posted RECV per armed instance — then, per slot, a
// trigger buffer of trigLen bytes, the landing buffers alloc carves, and
// nResp (1 or 2) response connections, each subscribed to p's
// demultiplexer. It returns the server side of the trigger connection
// and the server-side response QPs, resp[j][slot]. Profiler attribution is static: the
// client-side trigger QP executes the WRITEs and SENDs whose remote
// grants (server PCIe) attribute to p's op class.
func (c *Client) connect(p *opPipeline, srv *Server, trigLen uint64, nResp int, alloc func()) (*rnic.QP, [2][]*rnic.QP) {
	cliQP, srvQP := c.tb.clu.Connect(c.node, srv.node,
		rnic.QPConfig{SQDepth: max(1024, 4*c.depth), RQDepth: 8},
		rnic.QPConfig{SQDepth: 64, RQDepth: max(2048, 4*c.depth), Managed: true})
	p.qp = cliQP
	cliQP.SetProfClass(p.name)
	srvQP.RecvCQ().SetAutoDrain(true)
	srvQP.SendCQ().SetAutoDrain(true)
	var resp [2][]*rnic.QP
	for j := 0; j < nResp; j++ {
		resp[j] = make([]*rnic.QP, c.depth)
	}
	for i := 0; i < c.depth; i++ {
		p.trig = append(p.trig, c.node.Mem.Alloc(trigLen, 8))
		alloc()
		for j := 0; j < nResp; j++ {
			_, resp[j][i] = c.tb.clu.Connect(c.node, srv.node,
				rnic.QPConfig{SQDepth: 8, RQDepth: 8},
				rnic.QPConfig{SQDepth: 16, RQDepth: 8, Managed: true, PU: -1})
			p.subscribe(i, resp[j][i])
		}
	}
	return srvQP, resp
}

// tag is the prologue every post hook shares: point the slot's context
// at the request's trace op and latency receipt, so the instance armed
// next attributes to it.
func (p *opPipeline) tag(req *pipeReq, ctx core.Context) {
	if p.c.tr.Enabled() {
		ctx.SetTraceOp(req.op)
	}
	if p.rcpts != nil {
		ctx.SetReceipt(&p.rcpts[req.slot])
	}
}

// trigger lands payload in the slot's trigger buffer and posts the SEND
// that scatters it into the armed chain (doorbell-less; Flush kicks it).
func (p *opPipeline) trigger(slot int, payload []byte) {
	p.c.node.Mem.Write(p.trig[slot], payload)
	p.qp.PostSend(wqe.WQE{Op: wqe.OpSend, Src: p.trig[slot], Len: uint64(len(payload))})
}

// wireHooks installs the per-op closures: WR construction on issue,
// completion payload on delivery, and post-release lifecycle.
func (c *Client) wireHooks() {
	// ---- get ----
	c.get.post = func(req *pipeReq) {
		ctx := c.pool.Ctxs[req.slot]
		c.get.tag(req, ctx)
		ctx.Arm()
		// Clear the response slot so misses are observable.
		c.node.Mem.Write(c.resp[req.slot], c.zero[:req.valLen])
		c.get.trigger(req.slot, ctx.TriggerPayload(req.key, req.valLen, c.resp[req.slot]))
	}
	c.get.deliver = func(req *pipeReq, lat Duration, ok, slotValid bool) {
		if req.getCB == nil {
			return
		}
		var val []byte
		if slotValid {
			val, _ = c.node.Mem.Read(c.resp[req.slot], req.valLen)
		}
		req.getCB(val, lat, ok)
	}

	// ---- set ----
	c.set.post = func(req *pipeReq) {
		ctx := c.spool.Ctxs[req.slot]
		c.set.tag(req, ctx)
		req.staging = ctx.Arm(req.key)
		c.node.Mem.Write(c.sval[req.slot], req.val)
		// Same QP, in order: the value lands in staging before the
		// trigger SEND fires the claim chain.
		c.set.qp.PostSend(wqe.WQE{Op: wqe.OpWrite, Src: c.sval[req.slot], Dst: req.staging,
			Len: uint64(len(req.val))})
		c.set.trigger(req.slot, ctx.TriggerPayload(req.key, req.sclaim, uint64(len(req.val)), req.ver, c.sack[req.slot]))
	}
	c.set.deliver = func(req *pipeReq, lat Duration, ok, slotValid bool) {
		if req.ackCB != nil {
			req.ackCB(lat, ok)
		}
	}
	c.set.release = func(req *pipeReq, ok, executed bool) {
		if !ok && executed {
			// The chain ran and refused the claim: the staged bytes can
			// never become the bucket's value, so retire the extent.
			// (An unexecuted chain keeps its staging — a straggler could
			// still repoint the bucket at it.)
			c.spool.Ctxs[req.slot].ReleaseStaging()
		}
		if ok && req.lifecycle && c.arena != nil {
			// This ack's staging is the bucket's value now; the extent
			// the previous same-key ack installed is superseded — retire
			// it after the read grace (an in-flight get may hold its
			// pointer).
			if prev, tracked := c.prevVal[req.key]; tracked && prev != req.staging {
				c.tb.clu.Eng.After(ExtentGraceLat, func() { c.arena.Free(prev) })
			}
			c.prevVal[req.key] = req.staging
		}
	}

	// ---- delete ----
	c.del.post = func(req *pipeReq) {
		ctx := c.dpool.Ctxs[req.slot]
		c.del.tag(req, ctx)
		ctx.Arm()
		c.del.trigger(req.slot, ctx.TriggerPayload(req.key, req.dclaim, req.ver, c.dack[req.slot]))
	}
	c.del.deliver = c.set.deliver
	c.del.release = func(req *pipeReq, ok, executed bool) {
		if ok {
			// The unlink just retired the bucket's extent through the
			// ring; the standalone lifecycle chain must not free it
			// again on the next same-key set ack.
			delete(c.prevVal, req.key)
		}
		// Drain on every completion, not just acks: a straggler chain
		// from a timed-out delete deposits into a ring slot that a later
		// re-arm of the same context would otherwise overwrite, losing
		// the extent.
		c.DrainFreed()
	}

	// ---- probe ----
	c.prb.post = func(req *pipeReq) {
		ctx := c.ppool.Ctxs[req.slot]
		c.prb.tag(req, ctx)
		ctx.Arm()
		c.node.Mem.PutU64(c.presp[req.slot], 0)
		c.prb.trigger(req.slot, ctx.TriggerPayload(req.key, req.target, c.presp[req.slot]))
	}
	c.prb.deliver = func(req *pipeReq, lat Duration, ok, slotValid bool) {
		if req.prbCB == nil {
			return
		}
		var ver uint64
		if ok && slotValid {
			ver, _ = c.node.Mem.U64(c.presp[req.slot])
		}
		req.prbCB(ver, lat, ok)
	}
}

// Bind points the client's gets at a server hash table.
func (c *Client) Bind(h *HashTable) {
	c.pool.SetTable(h.table)
	c.table = h
}

// Node exposes the client's simulated node.
func (c *Client) Node() *fabric.Node { return c.node }

// Depth returns the pipeline depth (max requests in flight per op).
func (c *Client) Depth() int { return c.depth }

// pipe maps an Op to its pipeline (OpGet for unknown values).
func (c *Client) pipe(op Op) *opPipeline {
	if int(op) < len(c.pipes) {
		return c.pipes[op]
	}
	return c.get
}

// PipelineStats snapshots one pipeline's occupancy, window and
// counters. It reports in-flight and wedged slots disjointly from an
// explicit counter rather than deriving one from the other.
func (c *Client) PipelineStats(op Op) PipelineStats {
	p := c.pipe(op)
	return PipelineStats{
		InFlight: p.inFlight,
		Queued:   len(p.waiting),
		Wedged:   p.nWedged,
		Window:   p.win.size(),
		Issued:   p.issued, Acks: p.acks, Fails: p.fails,
		MaxInFlight: p.maxInFlight,
	}
}

// LastExecuted reports whether the most recent failed request on op's
// pipeline had its offload chain execute on the server NIC — a genuine
// miss or refusal: the key is absent, the bucket was taken, or the
// probed bucket holds another key — as opposed to never running (dead
// connection). Meaningful when read from within the failure callback.
func (c *Client) LastExecuted(op Op) bool { return c.pipe(op).lastRan }

// EnableProvenance allocates the per-slot latency receipts on every
// pipeline and starts stamping phase ledgers on each issued request.
// Disabled clients pay nothing: the receipt paths are a nil check.
func (c *Client) EnableProvenance() {
	for _, p := range c.pipes {
		if p.rcpts == nil {
			p.rcpts = make([]telemetry.Receipt, c.depth)
		}
	}
}

// OnReceipt installs a hook observing every finalized receipt
// synchronously, just before the op's delivery callback. Requires
// EnableProvenance.
func (c *Client) OnReceipt(fn func(Op, *telemetry.Receipt)) { c.rcptHook = fn }

// LastReceipt returns the phase ledger of the most recently completed
// request on op's pipeline, or nil when provenance is off or the
// request failed without ever reaching a slot. Like LastExecuted,
// it is meaningful only when read from within the op's callback; the
// receipt is overwritten when its slot reissues.
func (c *Client) LastReceipt(op Op) *telemetry.Receipt { return c.pipe(op).lastRcpt }

// Flush rings the send doorbells once for every request posted since
// the last flush — the client-side batching that lets a burst of
// same-shard operations share one MMIO kick per path.
func (c *Client) Flush() {
	for _, p := range c.pipes {
		if p.dirty {
			p.dirty = false
			if len(p.posted) > 0 {
				now := c.tb.clu.Eng.Now()
				for _, req := range p.posted {
					if !req.done {
						p.rcpts[req.slot].AddPhase(telemetry.PhaseDoorbell, now-req.start)
					}
				}
				p.posted = p.posted[:0]
			}
			p.qp.RingSQ()
			if c.tr.Enabled() {
				c.tr.Instant(c.trLabel, "doorbell:"+p.name, 0)
			}
		}
	}
}

// GetAsync issues one offloaded get of up to valLen bytes and returns
// immediately; cb runs (from the simulation, never synchronously) when
// the response lands or MissTimeout expires. Gets beyond the pipeline
// window queue client-side until a slot frees. Call Flush to ring the
// doorbell after posting a batch. A valLen beyond the client's maximum
// completes as a miss after a zero-cost hop.
func (c *Client) GetAsync(key, valLen uint64, cb func(val []byte, lat Duration, ok bool)) {
	if c.table == nil {
		panic("redn: Bind a table before Get")
	}
	if valLen > c.maxVal {
		// No response buffer can land it: a miss, after a zero-cost hop.
		c.tb.clu.Eng.After(0, func() { cb(nil, 0, false) })
		return
	}
	c.get.submit(&pipeReq{key: key & hopscotch.KeyMask, valLen: valLen, getCB: cb, op: c.tr.Op()})
}

// Get performs one offloaded get of up to valLen bytes, advancing the
// simulation until the response lands (or MissTimeout for misses). It
// returns the value bytes, the observed latency, and whether the key
// was found. On an idle client it advances exactly one MissTimeout
// window (the paper's blocking client); with other gets already in
// flight it keeps running until this request itself completes.
func (c *Client) Get(key uint64, valLen uint64) ([]byte, Duration, bool) {
	var (
		out  []byte
		lat  Duration
		ok   bool
		done bool
	)
	c.GetAsync(key, valLen, func(v []byte, l Duration, hit bool) {
		out, lat, ok, done = v, l, hit, true
	})
	c.Flush()
	eng := c.tb.clu.Eng
	eng.RunUntil(eng.Now() + c.MissTimeout)
	// Queued behind a busy pipeline: the request may not even have
	// issued yet. Its own timeout (armed at issue) bounds every pass.
	for !done && eng.Pending() > 0 {
		eng.RunUntil(eng.Now() + c.MissTimeout)
	}
	return out, lat, ok
}

// ---- write path ----

// refuse fails a write the client cannot issue, after a zero-cost hop
// so cb never runs synchronously.
func (c *Client) refuse(cb func(lat Duration, ok bool)) {
	c.tb.clu.Eng.After(0, func() {
		if cb != nil {
			cb(0, false)
		}
	})
}

// SetAsync issues one offloaded set of value under key, computing the
// bucket claim from the bound table, and returns immediately; cb runs
// when the NIC's ack lands or MissTimeout expires. Sets beyond the
// pipeline window queue client-side. Call Flush to ring the doorbell
// after posting a batch. A key whose candidate buckets are both taken
// by other keys fails immediately (ok=false after a zero-cost hop):
// relocation is host work, not a NIC claim. So does a value beyond the
// client's maximum.
func (c *Client) SetAsync(key uint64, value []byte, cb func(lat Duration, ok bool)) {
	if c.table == nil {
		panic("redn: Bind a table before Set")
	}
	k := key & hopscotch.KeyMask
	if reservedKey(k) {
		c.refuse(cb)
		return
	}
	// The claim comes from the client's view of the bound table (shared
	// logic with the service router): overwrite in place when the key
	// sits at a reachable candidate bucket, claim the first empty
	// reachable candidate otherwise. Keys needing relocation, and
	// spilled residents only a CPU scan can reach, are the host's path.
	claim, ok := claimForTable(c.table.table, c.pool.Mode, k)
	if !ok {
		c.refuse(cb)
		return
	}
	// An acknowledged overwrite repoints the bucket at the new staging
	// extent; the superseded extent is retired from the release hook via
	// the per-key prevVal chain (exactly once, in ack order — see
	// prevVal). Seed the chain with the table's current extent so the
	// first overwrite retires the preloaded value. (Service writes pass
	// SetAsyncClaim directly — their coordinator owns the lifecycle.)
	if c.arena != nil {
		if _, tracked := c.prevVal[k]; !tracked {
			if va, _, ok := c.table.table.Lookup(k); ok {
				c.prevVal[k] = va
			}
		}
	}
	c.nextVer[k]++
	c.setAsyncReq(&pipeReq{key: k, val: value, sclaim: claim, ver: c.nextVer[k],
		ackCB: cb, lifecycle: true})
}

// SetAsyncClaim is SetAsync with an explicit, caller-computed bucket
// claim and version — the service layer's entry point (its router owns
// placement and the quorum sequence the version publishes).
func (c *Client) SetAsyncClaim(key uint64, value []byte, claim core.SetClaim, ver uint64, cb func(lat Duration, ok bool)) {
	c.setAsyncReq(&pipeReq{key: key & hopscotch.KeyMask, val: value, sclaim: claim, ver: ver, ackCB: cb})
}

// setAsyncReq routes one set request into the pipeline.
func (c *Client) setAsyncReq(req *pipeReq) {
	if uint64(len(req.val)) > c.maxVal {
		c.refuse(req.ackCB)
		return
	}
	req.op = c.tr.Op()
	c.set.submit(req)
}

// Set performs one offloaded set, advancing the simulation until the
// ack lands (or MissTimeout for refused claims). It returns the
// observed latency and whether the NIC acknowledged the write.
func (c *Client) Set(key uint64, value []byte) (Duration, bool) {
	var (
		lat  Duration
		ok   bool
		done bool
	)
	c.SetAsync(key, value, func(l Duration, acked bool) {
		lat, ok, done = l, acked, true
	})
	c.Flush()
	c.tb.stepUntil(&done)
	return lat, ok
}

// ---- delete path ----

// DeleteAsync issues one offloaded delete of key, computing the bucket
// claim from the bound table, and returns immediately; cb runs when
// the NIC's ack lands or MissTimeout expires. Deletes beyond the
// pipeline window queue client-side; call Flush after posting a batch.
// A key that is not at a NIC-reachable candidate bucket fails after a
// zero-cost hop: retiring spilled residents is host work.
func (c *Client) DeleteAsync(key uint64, cb func(lat Duration, ok bool)) {
	if c.table == nil {
		panic("redn: Bind a table before Delete")
	}
	k := key & hopscotch.KeyMask
	if reservedKey(k) {
		c.refuse(cb)
		return
	}
	// The key must sit at a candidate bucket the NIC probes: spilled
	// residents only a CPU scan can reach — and keys that are absent
	// outright — cannot be claimed from here.
	bucket, ok := residentBucket(c.table.table, c.pool.Mode, k)
	if !ok {
		c.refuse(cb)
		return
	}
	c.nextVer[k]++
	c.DeleteAsyncClaim(k, core.DeleteClaim{BucketAddr: bucket}, c.nextVer[k], cb)
}

// DeleteAsyncClaim is DeleteAsync with an explicit, caller-computed
// bucket claim and tombstone version — the service layer's entry point.
func (c *Client) DeleteAsyncClaim(key uint64, claim core.DeleteClaim, ver uint64, cb func(lat Duration, ok bool)) {
	c.del.submit(&pipeReq{key: key & hopscotch.KeyMask, dclaim: claim, ver: ver, ackCB: cb, op: c.tr.Op()})
}

// DrainFreed drains this connection's to-free ring into the server's
// arena: each entry a delete chain unlinked is returned exactly once,
// after the read grace (a get that probed the bucket just before the
// tombstone may still hold the pointer); entries whose extent is
// already gone (a straggling chain double-unlinked during its claim
// window) are counted and skipped.
func (c *Client) DrainFreed() int {
	return c.dpool.Ring.Drain(func(tag, addr, size uint64) {
		// The tag is the pending word the delete chain claimed; the
		// extent is freed only while the arena still attributes the
		// address to that key — a straggler's double-deposit of an
		// address recycled to another key is stale, not a free.
		key := tag & hopscotch.KeyMask &^ hopscotch.PendingBit
		if c.arena != nil {
			if cookie, live := c.arena.Cookie(addr); live && cookie == key {
				c.gcFreed++
				c.tb.clu.Eng.After(ExtentGraceLat, func() { c.arena.Free(addr) })
				return
			}
		}
		c.gcStale++
	})
}

// Delete performs one offloaded delete, advancing the simulation until
// the ack lands (or MissTimeout for refused claims). It returns the
// observed latency and whether the NIC acknowledged the retirement.
func (c *Client) Delete(key uint64) (Duration, bool) {
	var (
		lat  Duration
		ok   bool
		done bool
	)
	c.DeleteAsync(key, func(l Duration, acked bool) {
		lat, ok, done = l, acked, true
	})
	c.Flush()
	c.tb.stepUntil(&done)
	return lat, ok
}

// ---- probe path ----

// ProbeAsync issues one offloaded version probe of key, computing the
// target bucket from the bound table, and returns immediately; cb runs
// with the replica's version word when the NIC's response lands, or
// ok=false after MissTimeout (key absent at the probed bucket, or dead
// connection — LastExecuted tells them apart). Probes beyond the
// pipeline window queue client-side; call Flush after posting a batch.
func (c *Client) ProbeAsync(key uint64, cb func(ver uint64, lat Duration, ok bool)) {
	if c.table == nil {
		panic("redn: Bind a table before Probe")
	}
	target, ok := probeTargetForTable(c.table.table, c.pool.Mode, key&hopscotch.KeyMask)
	if !ok {
		c.tb.clu.Eng.After(0, func() {
			if cb != nil {
				cb(0, 0, false)
			}
		})
		return
	}
	c.ProbeAsyncTarget(key, target, cb)
}

// ProbeAsyncTarget is ProbeAsync with an explicit, caller-computed
// probe target — the service layer's entry point.
func (c *Client) ProbeAsyncTarget(key uint64, target core.ProbeTarget, cb func(ver uint64, lat Duration, ok bool)) {
	c.prb.submit(&pipeReq{key: key & hopscotch.KeyMask, target: target, prbCB: cb, op: c.tr.Op()})
}

// Probe performs one offloaded version probe, advancing the simulation
// until the response lands (or MissTimeout for conditional misses). It
// returns the replica's version word, the observed latency, and whether
// the NIC answered.
func (c *Client) Probe(key uint64) (uint64, Duration, bool) {
	var (
		ver  uint64
		lat  Duration
		ok   bool
		done bool
	)
	c.ProbeAsync(key, func(v uint64, l Duration, answered bool) {
		ver, lat, ok, done = v, l, answered, true
	})
	c.Flush()
	c.tb.stepUntil(&done)
	return ver, lat, ok
}
