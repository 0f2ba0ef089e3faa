// Command kvbench is the repository's two-clock benchmark of the
// sharded RedN KV service. It runs one named workload against the
// public redn.Service API, checks every response against a shadow
// model of the writes, and prints each metric by name with its unit,
// clock and layer; the last line of standard output is one JSON
// object with the result.
//
//	kvbench --workload get-uniform --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of untraced
// episodes. With --trace 1 it alternates untraced and traced episodes
// (provenance, virtual-time profiler, host spans, CPU profile) and
// prints the per-layer metrics, after checking that tracing left every
// virtual-clock output unchanged. An episode is one fresh service in a
// process of its own, preloaded and driven through the workload's
// fixed op stream, so virtual-clock metrics repeat exactly for a seed;
// episodes repeat until --seconds have passed and host-clock metrics
// report medians.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/sim"
)

// DefaultSeed is the seed the benchmark was tuned with. Seed 7919 was
// kept out of tuning, to confirm a claimed gain on.
const DefaultSeed = 1

// minEpisodes is the fewest untraced episodes a run makes, so host
// times are medians of several.
const minEpisodes = 3

type metricDef struct {
	name, unit, clock, layer string
}

var endToEnd = []metricDef{
	{"get_p50_us", "us", "virtual", "service"},
	{"get_p99_us", "us", "virtual", "service"},
	{"get_p999_us", "us", "virtual", "service"},
	{"set_p50_us", "us", "virtual", "service"},
	{"set_p99_us", "us", "virtual", "service"},
	{"set_p999_us", "us", "virtual", "service"},
	{"del_p99_us", "us", "virtual", "service"},
	{"ops_per_s", "1/s", "virtual", "service"},
	{"wall_s", "s", "host", "service"},
	{"setup_s", "s", "host", "service"},
	{"allocs_per_op", "count", "host", "service"},
	{"live_heap_mb", "MB", "host", "service"},
}

func perLayerDefs() []metricDef {
	defs := []metricDef{
		{"sim.events_per_op", "count", "exact", "sim"},
		{"sim.host_ns_per_event", "ns", "host", "sim"},
		{"sim.peak_pending", "count", "exact", "sim"},
		{"mem.setup_alloc_mb", "MB", "host", "mem"},
		{"rnic.fetch_wqes_per_op", "count", "exact", "rnic"},
		{"rnic.fetch_util_max", "ratio", "virtual", "rnic"},
		{"rnic.pu_util_max", "ratio", "virtual", "rnic"},
		{"rnic.atomic_grants_per_op", "count", "exact", "rnic"},
		{"rnic.link_util_max", "ratio", "virtual", "rnic"},
		{"rnic.pcie_util_max", "ratio", "virtual", "rnic"},
		{"rnic.fetch_wait_share", "ratio", "virtual", "rnic"},
	}
	for _, c := range opClasses {
		defs = append(defs,
			metricDef{"core." + c + ".fabric_share", "ratio", "virtual", "core"},
			metricDef{"core." + c + ".exec_us_per_op", "us", "virtual", "core"})
	}
	for _, c := range opClasses {
		for _, ph := range []string{"window", "queue", "doorbell"} {
			defs = append(defs, metricDef{"client." + c + "." + ph + "_share", "ratio", "virtual", "client"})
		}
	}
	defs = append(defs,
		metricDef{"client.window_cuts", "count", "exact", "client"},
		metricDef{"client.ecn_cuts", "count", "exact", "client"},
		metricDef{"client.censored_frac", "ratio", "exact", "client"},
		metricDef{"client.issue_ns", "ns", "host", "client"},
		metricDef{"client.flush_ns", "ns", "host", "client"},
		metricDef{"service.coord_share", "ratio", "virtual", "service"},
		metricDef{"service.retry_share", "ratio", "virtual", "service"},
		metricDef{"service.retries_per_get", "count", "exact", "service"},
		metricDef{"service.quorum_fails", "count", "exact", "service"},
		metricDef{"service.hints_queued", "count", "exact", "service"},
		metricDef{"service.hints_applied", "count", "exact", "service"},
		metricDef{"service.stale_owners_end", "count", "exact", "service"},
		metricDef{"service.probes_per_get", "count", "exact", "service"},
		metricDef{"service.repairs_applied", "count", "exact", "service"},
		metricDef{"service.preload_us_per_key", "us", "host", "service"},
		metricDef{"extent.space_amp", "ratio", "exact", "extent"},
		metricDef{"extent.compact_bytes_per_set", "B", "exact", "extent"},
	)
	defs = append(defs,
		metricDef{"host.wall_raw_s", "s", "host", "host"},
		metricDef{"host.setup_raw_s", "s", "host", "host"},
		metricDef{"host.ref_chunk_us", "us", "host", "host"})
	for _, g := range hostGroups {
		defs = append(defs, metricDef{"host.self_frac." + g, "ratio", "host", "host"})
	}
	return append(defs, metricDef{"telemetry.trace_overhead_frac", "ratio", "host", "telemetry"})
}

func main() {
	name := flag.String("workload", "", "workload to run: get-uniform, mixed-zipf or crash-open")
	seed := flag.Int64("seed", DefaultSeed, "seed of the op streams, value sizes and sweeps")
	seconds := flag.Int("seconds", 10, "host seconds to keep starting episodes")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	child := flag.String("episode", "", "internal: run one episode (untraced or traced) and print its summary")
	flag.Parse()
	w := findWorkload(*name)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) ||
		(*child != "" && *child != "untraced" && *child != "traced") {
		fmt.Fprintf(os.Stderr, "kvbench: need --workload (get-uniform|mixed-zipf|crash-open), --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	var err error
	if *child != "" {
		err = episodeMain(w, *seed, *child == "traced")
	} else {
		err = run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "kvbench:", err)
		os.Exit(1)
	}
}

// summary is what one episode process reports to the run.
type summary struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems"`
	Failures  []string           `json:"failures"`
	Virtual   map[string]float64 `json:"virtual"`
	Samples   map[string]int     `json:"samples"`
	SetupNs   int64              `json:"setup_ns"`
	WallNs    int64              `json:"wall_ns"`
	// Mean host time of one reference chunk in the set-up and in the
	// measured phase.
	SetupChunkNs int64              `json:"setup_chunk_ns"`
	WallChunkNs  int64              `json:"wall_chunk_ns"`
	Mallocs      uint64             `json:"mallocs"`
	LiveHeap     uint64             `json:"live_heap"`
	Layer        map[string]float64 `json:"layer,omitempty"` // traced only
	Self         map[string]int64   `json:"self,omitempty"`  // CPU samples by group, traced only
}

// episodeMain runs one episode and prints its summary as JSON. Each
// episode runs in a process of its own, so every set-up starts from a
// fresh heap and live-heap readings do not carry over.
func episodeMain(w *spec, seed int64, traced bool) error {
	// The simulator is single-goroutine; one P keeps the collector's
	// background work on the same CPU instead of racing it on another.
	runtime.GOMAXPROCS(1)
	ep := runEpisode(w, seed, traced)
	sm := summary{Attempted: ep.measured.attempted, Failed: ep.measured.failed,
		Problems: ep.problems, Failures: ep.failures, SetupNs: ep.setupNs, WallNs: ep.wallNs,
		SetupChunkNs: ep.setupChunkNs, WallChunkNs: ep.wallChunkNs,
		Mallocs: ep.mallocs, LiveHeap: ep.liveHeap}
	var err error
	if sm.Virtual, sm.Samples, err = virtualMetrics(ep); err != nil {
		sm.Problems = append(sm.Problems, err.Error())
	}
	if traced {
		sm.Layer = layerMetrics(ep)
		sm.Self = map[string]int64{}
		if err := selfSamples(ep.prof.Bytes(), sm.Self); err != nil {
			return err
		}
		out := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d", w.name, seed))
		if err := ep.spans.write(out + ".spans.jsonl"); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		if err := os.WriteFile(out+".cpu.pprof", ep.prof.Bytes(), 0o644); err != nil {
			return fmt.Errorf("write cpu profile: %w", err)
		}
	}
	return json.NewEncoder(os.Stdout).Encode(sm)
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runChild runs one episode in a child process and waits for it.
func runChild(w *spec, seed int64, traced bool) (*summary, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	mode := "untraced"
	if traced {
		mode = "traced"
	}
	cmd := exec.Command(self, "--workload", w.name, "--seed", fmt.Sprint(seed), "--episode", mode)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s episode: %w", mode, err)
	}
	var sm summary
	if err := json.Unmarshal(out, &sm); err != nil {
		return nil, fmt.Errorf("%s episode summary: %w", mode, err)
	}
	return &sm, nil
}

func run(w *spec, seed int64, budget time.Duration, traced bool) error {
	fmt.Printf("kvbench workload=%s seed=%d seconds=%v trace=%v (one process per episode, GOMAXPROCS=1)\n",
		w.name, seed, budget.Seconds(), traced)
	res := result{Correct: true, Metrics: map[string]metricValue{}}
	var problems []string
	var untraced, tracedEps []*summary
	episode := func(tr bool) error {
		sm, err := runChild(w, seed, tr)
		if err != nil {
			return err
		}
		fmt.Printf("episode traced=%v setup_s=%.4f wall_s=%.4f ref_chunk_us=%.1f/%.1f mallocs=%d live_heap_mb=%.6f\n",
			tr, float64(sm.SetupNs)/1e9, float64(sm.WallNs)/1e9, float64(sm.SetupChunkNs)/1e3,
			float64(sm.WallChunkNs)/1e3, sm.Mallocs, float64(sm.LiveHeap)/1e6)
		res.Attempted += sm.Attempted
		res.Failed += sm.Failed
		problems = append(problems, sm.Problems...)
		for _, f := range sm.Failures {
			fmt.Println("FAILED OP:", f)
		}
		if len(untraced)+len(tracedEps) > 0 && !sameValues(untraced[0].Virtual, sm.Virtual) {
			problems = append(problems, fmt.Sprintf("virtual-clock metrics differ between episodes (traced=%v): %v vs %v",
				tr, sm.Virtual, untraced[0].Virtual))
		}
		if tr {
			tracedEps = append(tracedEps, sm)
		} else {
			untraced = append(untraced, sm)
		}
		return nil
	}
	start := time.Now()
	for {
		if err := episode(false); err != nil {
			return err
		}
		if traced {
			if err := episode(true); err != nil {
				return err
			}
		}
		if time.Since(start) >= budget && (traced || len(untraced) >= minEpisodes) {
			break
		}
	}

	var defs []metricDef
	values := map[string]float64{}
	if !traced {
		defs = endToEnd
		for k, v := range untraced[0].Virtual {
			values[k] = v
		}
		// Host times are in reference seconds (see reference.go): the
		// machine's speed drifts by tens of percent within minutes, and
		// the reference chunks, run all through the timed phase, drift
		// with it.
		values["wall_s"] = median(untraced, func(e *summary) float64 {
			return float64(e.WallNs) / float64(e.WallChunkNs*refSecond)
		})
		values["setup_s"] = median(untraced, func(e *summary) float64 {
			return float64(e.SetupNs) / float64(e.SetupChunkNs*refSecond)
		})
		values["allocs_per_op"] = median(untraced, func(e *summary) float64 {
			return float64(e.Mallocs) / float64(e.Attempted)
		})
		values["live_heap_mb"] = median(untraced, func(e *summary) float64 { return float64(e.LiveHeap) / 1e6 })
	} else {
		defs = perLayerDefs()
		for _, d := range defs {
			vals := make([]float64, 0, len(tracedEps))
			for _, sm := range tracedEps {
				if v, ok := sm.Layer[d.name]; ok {
					vals = append(vals, v)
				}
			}
			if len(vals) > 0 {
				values[d.name] = medianOf(vals)
			}
		}
		self := map[string]int64{}
		var total int64
		for _, sm := range tracedEps {
			for g, n := range sm.Self {
				self[g] += n
				total += n
			}
		}
		for _, g := range hostGroups {
			values["host.self_frac."+g] = ratio(float64(self[g]), float64(total))
		}
		fmt.Printf("cpu profile: %d samples over %d traced episodes\n", total, len(tracedEps))
		wallT := median(tracedEps, func(e *summary) float64 { return float64(e.WallNs) })
		wallU := median(untraced, func(e *summary) float64 { return float64(e.WallNs) })
		values["telemetry.trace_overhead_frac"] = wallT/wallU - 1
		values["host.wall_raw_s"] = median(untraced, func(e *summary) float64 { return float64(e.WallNs) / 1e9 })
		values["host.setup_raw_s"] = median(untraced, func(e *summary) float64 { return float64(e.SetupNs) / 1e9 })
		values["host.ref_chunk_us"] = median(untraced, func(e *summary) float64 { return float64(e.WallChunkNs) / 1e3 })
		fmt.Printf("spans and CPU profile of the last traced episode: .bench_build/traces/%s-seed%d.{spans.jsonl,cpu.pprof}\n", w.name, seed)
	}
	fmt.Printf("episodes: %d untraced, %d traced, %.1fs\n", len(untraced), len(tracedEps), time.Since(start).Seconds())
	samples := untraced[0].Samples
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			problems = append(problems, fmt.Sprintf("metric %s has no value", d.name))
			continue
		}
		n := ""
		if k, ok := samples[d.name]; ok {
			n = fmt.Sprintf(" n=%d", k)
		}
		fmt.Printf("metric %-34s %16.6f %-6s clock=%s layer=%s%s\n", d.name, v, d.unit, d.clock, d.layer, n)
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	res.Correct = len(problems) == 0
	for _, p := range problems {
		fmt.Println("CHECK FAILED:", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%d check failures", len(problems))
	}
	return nil
}

// virtualMetrics returns the virtual-clock end-to-end metrics of one
// episode, the exact event count per op, and each latency metric's
// sample count. A percentile is reported only with at least ten
// samples beyond it.
func virtualMetrics(ep *episode) (map[string]float64, map[string]int, error) {
	w := ep.w
	m := map[string]float64{}
	n := map[string]int{}
	ms := ep.measured
	// Workloads without sets or deletes in their mix report that part
	// of the write path from the post-run sweep.
	src := [3]*phase{ms, ms, ms}
	if w.sweepSets > 0 {
		src[opSet] = ep.sweep
	}
	if w.sweepDels > 0 {
		src[opDel] = ep.sweep
	}
	for _, q := range []struct {
		name string
		kind uint8
		p    float64
	}{
		{"get_p50_us", opGet, 0.50}, {"get_p99_us", opGet, 0.99}, {"get_p999_us", opGet, 0.999},
		{"set_p50_us", opSet, 0.50}, {"set_p99_us", opSet, 0.99}, {"set_p999_us", opSet, 0.999},
		{"del_p99_us", opDel, 0.99},
	} {
		lat := src[q.kind].lat[q.kind]
		v, err := percentile(lat, q.p)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", q.name, err)
		}
		m[q.name], n[q.name] = v.Micros(), len(lat)
	}
	m["ops_per_s"] = float64(ms.completed) / (ms.lastDone - ms.start).Seconds()
	m["sim.events_per_op"] = float64(ep.after.executed-ep.before.executed) / float64(ms.attempted)
	return m, n, nil
}

// percentile returns the nearest-rank p-quantile of lat, refusing one
// with fewer than ten samples beyond it.
func percentile(lat []sim.Time, p float64) (sim.Time, error) {
	rank := int(math.Ceil(p * float64(len(lat))))
	if len(lat)-rank < 10 || rank < 1 {
		return 0, fmt.Errorf("%d samples leave fewer than 10 beyond the %g quantile", len(lat), p)
	}
	s := append([]sim.Time(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[rank-1], nil
}

func sameValues(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

func median(eps []*summary, f func(*summary) float64) float64 {
	vals := make([]float64, len(eps))
	for i, e := range eps {
		vals[i] = f(e)
	}
	return medianOf(vals)
}

func medianOf(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
