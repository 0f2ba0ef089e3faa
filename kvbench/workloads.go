package main

import (
	"math/rand"

	"repro"
	"repro/internal/sim"
	"repro/internal/workload"
)

const (
	opGet uint8 = iota
	opSet
	opDel
)

// op is one generated request: its kind and the index of its key.
type op struct {
	kind uint8
	idx  int32
}

// spec is one named traffic mix against one service shape. The
// three workloads are beyond-paper: calibration against the paper's
// figures and tables stays in the internal/experiments tests.
type spec struct {
	name string
	cfg  redn.ServiceConfig

	keys           int
	valMin, valMax int // each key's value size is drawn from [valMin, valMax]
	zipf           bool
	getPct, setPct int // the rest are deletes
	ops            int // measured operations per episode

	// warmup ops run before the measured ones in the same closed loop,
	// until its queues reach their steady state.
	warmup int

	// users > 0 runs a closed loop of that many users; otherwise ops
	// issue open-loop as independent arrivals (Poisson), gap apart on
	// average.
	users int
	gap   sim.Time

	// crashAt > 0 crashes shard 0 (a process crash) that long after
	// the measured phase starts.
	crashAt sim.Time

	// After the measured phase, on a quiet service, sweepSets keys are
	// overwritten and then sweepDels keys deleted, each by sweepUsers
	// closed-loop callers: the write path's latency on workloads whose
	// mix lacks sets or deletes.
	sweepSets, sweepDels int

	// slice is the virtual span of one engine drive step; the
	// benchmark samples the queue depth between steps.
	slice sim.Time
}

// sweepUsers is the closed-loop caller count of the post-run sweeps:
// enough to contend on the NICs, few enough that no client queues
// and the tail stays steady across seeds.
const sweepUsers = 16

var workloads = []*spec{
	{
		// The read path the paper headlines (Fig 10 / Table 4) and the
		// densest in events per host second. One replica, no writes in
		// the measured phase: quorum, extent and hints are bypassed.
		// Users pile up behind the busiest shard's clients over the
		// first ~30K ops; the warm-up lets that queue settle.
		name: "get-uniform",
		cfg: redn.ServiceConfig{Shards: 8, ClientsPerShard: 2, Pipeline: 16,
			Mode: redn.LookupSeq, Replicas: 1},
		keys: 10000, valMin: 64, valMax: 64, getPct: 100, warmup: 30000, ops: 80000,
		users: 8 * 2 * 16, sweepSets: 10000, sweepDels: 2000, slice: 20 * sim.Microsecond,
	},
	{
		// Writes beside reads on the same NICs: a read-path gain that
		// costs writes shows here. Small segments and a compaction
		// period keep the extent arena churning under the mix.
		name: "mixed-zipf",
		cfg: redn.ServiceConfig{Shards: 4, ClientsPerShard: 2, Pipeline: 16,
			Mode: redn.LookupSeq, Replicas: 3, WriteQuorum: 2, ReadPolicy: redn.ReadRoundRobin,
			MaxValLen: 256, SegmentSize: 8 << 10, CompactEvery: 250 * sim.Microsecond,
			CompactThreshold: 0.6},
		keys: 10000, valMin: 64, valMax: 64, zipf: true, getPct: 50, setPct: 40, ops: 30000,
		users: 128, slice: 20 * sim.Microsecond,
	},
	{
		// The only workload on the failure paths: failover, suspect,
		// hinted handoff, reconnect, version probes and read repair.
		// Shard 0's recovery (1s bootstrap + 1.25s rebuild) falls
		// inside the ~2.6s window. The fabric is mostly idle, so value
		// sizes vary by key and arrivals are random: service and
		// queueing times then differ per op.
		name: "crash-open",
		cfg: redn.ServiceConfig{Shards: 4, ClientsPerShard: 2, Pipeline: 16,
			Mode: redn.LookupSeq, Replicas: 3, WriteQuorum: 2, ReadRepair: true},
		keys: 4000, valMin: 64, valMax: 4096, getPct: 50, setPct: 50, ops: 26000,
		gap: 100 * sim.Microsecond, crashAt: 100 * sim.Millisecond,
		sweepDels: 4000, slice: 200 * sim.Microsecond,
	},
}

func findWorkload(name string) *spec {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// inputs is everything one episode sends to the service.
type inputs struct {
	keys  []uint64
	sizes []int      // value size of each key
	ops   []op       // warm-up ops, then the measured ops
	due   []sim.Time // open loop: each op's issue time after the phase starts
	// The post-run sweeps: overwrites, then deletes.
	sweepSets, sweepDels []op
}

// inputs generates an episode's inputs. The keys are the same for
// every seed: key i is i+1 scrambled over the 47-bit space the service
// accepts, so shard and bucket placement do not change with the seed.
// The seed draws the value sizes, each op's kind by the mix and its key
// by the access distribution, open-loop arrival times, and the keys
// each sweep visits.
func (w *spec) inputs(seed int64) inputs {
	in := inputs{keys: make([]uint64, w.keys), sizes: make([]int, w.keys)}
	for i := range in.keys {
		// Multiplying by an odd constant permutes the integers mod
		// 2^47, so the keys are distinct and nonzero.
		in.keys[i] = uint64(i+1) * 0x9E3779B97F4A7C15 & (1<<47 - 1)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := range in.sizes {
		in.sizes[i] = w.valMin + rng.Intn(w.valMax-w.valMin+1)
	}
	pick := func() int32 { return int32(rng.Intn(w.keys)) }
	if w.zipf {
		z := rand.NewZipf(rng, workload.DefaultZipfS, 1, uint64(w.keys-1))
		pick = func() int32 { return int32(z.Uint64()) }
	}
	in.ops = make([]op, w.warmup+w.ops)
	for i := range in.ops {
		kind := opDel
		switch r := rng.Intn(100); {
		case r < w.getPct:
			kind = opGet
		case r < w.getPct+w.setPct:
			kind = opSet
		}
		in.ops[i] = op{kind: kind, idx: pick()}
	}
	if w.users == 0 {
		in.due = make([]sim.Time, len(in.ops))
		var t float64
		for i := range in.due {
			in.due[i] = sim.Time(t)
			t += rng.ExpFloat64() * float64(w.gap)
		}
	}
	sweep := func(kind uint8, n int) []op {
		out := make([]op, n)
		for i, k := range rng.Perm(w.keys)[:n] {
			out[i] = op{kind: kind, idx: int32(k)}
		}
		return out
	}
	in.sweepSets, in.sweepDels = sweep(opSet, w.sweepSets), sweep(opDel, w.sweepDels)
	return in
}
