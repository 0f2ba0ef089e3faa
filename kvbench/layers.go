package main

import (
	"bufio"
	"bytes"
	"strconv"
	"strings"

	"repro"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// classCounts is one op class's provenance totals: ops, censored ops,
// summed phase time, and resource wait/exec attributed to its WRs.
type classCounts struct {
	ops, censored uint64
	phase         map[string]sim.Time
	wait, exec    map[string]sim.Time // by resource
}

// snapshot is the service's layer counters at one instant, read only
// through public accessors.
type snapshot struct {
	now      sim.Time
	executed uint64
	st       redn.ServiceStats
	res      map[string]telemetry.ResourceUtil
	classes  map[string]*classCounts // provenance, traced only
	execBy   map[string]sim.Time     // profiler exec ns by op class, traced only
}

func (e *episode) snapshot() snapshot {
	sp := e.spans.begin("snapshot", -1)
	defer e.spans.end(sp)
	s := snapshot{now: e.eng.Now(), executed: e.eng.Executed(), st: e.svc.Stats(),
		res: map[string]telemetry.ResourceUtil{}, classes: map[string]*classCounts{},
		execBy: map[string]sim.Time{}}
	for _, r := range s.st.Resources {
		s.res[r.Name] = r
	}
	for _, d := range s.st.Provenance {
		c := &classCounts{ops: d.Ops, censored: d.Censored, phase: map[string]sim.Time{},
			wait: map[string]sim.Time{}, exec: map[string]sim.Time{}}
		for _, p := range d.Phases {
			c.phase[p.Phase] = p.Total
		}
		for _, r := range d.Res {
			c.wait[r.Res], c.exec[r.Res] = r.Wait, r.Exec
		}
		s.classes[d.Class] = c
	}
	if p := e.svc.Profiler(); p != nil {
		// Folded lines are "class;shard;resource;exec|wait <ns>".
		var buf bytes.Buffer
		if err := p.WriteFolded(&buf); err != nil {
			e.problem("profiler export: %v", err)
		}
		sc := bufio.NewScanner(&buf)
		for sc.Scan() {
			stack, n, _ := strings.Cut(sc.Text(), " ")
			if !strings.HasSuffix(stack, ";exec") {
				continue
			}
			ns, err := strconv.ParseInt(n, 10, 64)
			if err != nil {
				e.problem("profiler line %q: %v", sc.Text(), err)
				continue
			}
			class, _, _ := strings.Cut(stack, ";")
			s.execBy[class] += sim.Time(ns)
		}
	}
	return s
}

// classDelta is a class's provenance over the measured phase.
func classDelta(b, a snapshot, class string) classCounts {
	d := classCounts{phase: map[string]sim.Time{}, wait: map[string]sim.Time{}, exec: map[string]sim.Time{}}
	ca := a.classes[class]
	if ca == nil {
		return d
	}
	cb := b.classes[class]
	if cb == nil {
		cb = &classCounts{}
	}
	d.ops, d.censored = ca.ops-cb.ops, ca.censored-cb.censored
	for k, v := range ca.phase {
		d.phase[k] = v - cb.phase[k]
	}
	for k, v := range ca.wait {
		d.wait[k] = v - cb.wait[k]
	}
	for k, v := range ca.exec {
		d.exec[k] = v - cb.exec[k]
	}
	return d
}

func (c classCounts) total() sim.Time {
	var t sim.Time
	for _, v := range c.phase {
		t += v
	}
	return t
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// resKind names the kind of a NIC resource from its hierarchical name
// ("shard0/port0/pu3" -> "pu").
func resKind(name string) string {
	leaf := name[strings.LastIndexByte(name, '/')+1:]
	return strings.TrimRight(leaf, "0123456789")
}

// opClasses are the provenance op classes, in telemetry's order.
var opClasses = telemetry.ClassNames

// layerMetrics derives every per-layer metric of one traced episode
// from counter deltas over its measured phase and its host spans. The
// host CPU profile shares and the tracing overhead are added by the
// caller, which sees every episode of the run.
func layerMetrics(r *episode) map[string]float64 {
	m := map[string]float64{}
	b, a := r.before, r.after
	ops := float64(r.measured.attempted)
	var gets, sets float64
	for _, o := range r.in.ops[r.w.warmup:] {
		switch o.kind {
		case opGet:
			gets++
		case opSet:
			sets++
		}
	}
	window := float64(a.now - b.now)
	events := float64(a.executed - b.executed)

	m["sim.events_per_op"] = events / ops
	m["sim.host_ns_per_event"] = ratio(float64(r.driveNs), events)
	m["sim.peak_pending"] = float64(r.peakPending)

	m["mem.setup_alloc_mb"] = float64(r.setupAllocBytes) / 1e6

	util := map[string]float64{}
	grants := map[string]float64{}
	for name, ra := range a.res {
		rb := b.res[name]
		kind := resKind(name)
		busy := float64(ra.Busy - rb.Busy)
		grants[kind] += float64(ra.Grants - rb.Grants)
		if u := busy / window; u > util[kind] {
			util[kind] = u
		}
	}
	m["rnic.fetch_wqes_per_op"] = grants["fetch"] / ops
	m["rnic.fetch_util_max"] = util["fetch"]
	m["rnic.pu_util_max"] = util["pu"]
	m["rnic.atomic_grants_per_op"] = grants["atomic-unit"] / ops
	m["rnic.link_util_max"] = util["link"]
	m["rnic.pcie_util_max"] = util["pcie"]

	var fetchWait, resTime, censored, classOps float64
	var coord, writeTotal sim.Time
	for _, c := range opClasses {
		d := classDelta(b, a, c)
		tot := float64(d.total())
		m["core."+c+".fabric_share"] = ratio(float64(d.phase["fabric"]), tot)
		m["core."+c+".exec_us_per_op"] = ratio(float64(a.execBy[c]-b.execBy[c])/1e3, float64(d.ops))
		for _, ph := range []string{"window", "queue", "doorbell"} {
			m["client."+c+"."+ph+"_share"] = ratio(float64(d.phase[ph]), tot)
		}
		for res, v := range d.wait {
			if resKind(res) == "fetch" {
				fetchWait += float64(v)
			}
			resTime += float64(v)
		}
		for _, v := range d.exec {
			resTime += float64(v)
		}
		censored += float64(d.censored)
		classOps += float64(d.ops)
		if c == "set" || c == "del" {
			coord += d.phase["coord"]
			writeTotal += d.total()
		}
		if c == "get" {
			m["service.retry_share"] = ratio(float64(d.phase["retry"]), tot)
		}
	}
	m["rnic.fetch_wait_share"] = ratio(fetchWait, resTime)
	m["service.coord_share"] = ratio(float64(coord), float64(writeTotal))

	sa, sb := a.st, b.st
	m["client.window_cuts"] = float64(sa.WindowCuts - sb.WindowCuts)
	m["client.ecn_cuts"] = float64(sa.EcnCuts - sb.EcnCuts)
	m["client.censored_frac"] = ratio(censored, classOps)
	m["client.issue_ns"] = ratio(float64(r.issueNs), float64(r.issues))
	m["client.flush_ns"] = ratio(float64(r.flushNs), float64(r.flushes))

	m["service.retries_per_get"] = ratio(float64(sa.Retries-sb.Retries), gets)
	m["service.quorum_fails"] = float64(sa.QuorumFails - sb.QuorumFails)
	m["service.hints_queued"] = float64(sa.HintsQueued - sb.HintsQueued)
	m["service.hints_applied"] = float64(sa.HintsApplied - sb.HintsApplied)
	m["service.stale_owners_end"] = float64(r.staleEnd)
	m["service.probes_per_get"] = ratio(float64(sa.Probes-sb.Probes), gets)
	m["service.repairs_applied"] = float64(sa.RepairsApplied - sb.RepairsApplied)
	m["service.preload_us_per_key"] = float64(r.preloadNs) / 1e3 / float64(r.w.keys)

	m["extent.space_amp"] = ratio(float64(sa.ArenaFoot), float64(sa.ArenaLive))
	m["extent.compact_bytes_per_set"] = ratio(float64(sa.CompactBytes-sb.CompactBytes), sets)
	return m
}
