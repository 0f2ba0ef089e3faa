package telemetry

import (
	"reflect"
	"sort"

	"repro/internal/sim"
)

// Counter is a monotonically increasing uint64. A nil *Counter is a
// valid no-op sink, so subsystems can hold counters unconditionally
// and callers that never registered one pay nothing. A *uint64 struct
// field converts to a *Counter, which is how CounterFields makes a
// plain field the registry's storage.
type Counter uint64

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		*c++
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		*c += Counter(n)
	}
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return uint64(*c)
}

// Gauge is a named sampled value backed by a closure, so queue depths
// and arena occupancy are read at sample time rather than maintained.
type Gauge struct {
	Name   string
	Sample func() float64
}

// Registry holds named counters, gauges and latency histograms.
// Registration order is preserved internally; Snapshot sorts by name
// so exports are deterministic regardless of wiring order.
type Registry struct {
	counters     map[string]*Counter
	counterNames []string
	gauges       []Gauge
	hists        map[string]*sim.LatencyStats
	histNames    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		hists:    make(map[string]*sim.LatencyStats),
	}
}

// Counter returns the counter registered under name, creating it on
// first use. A nil registry returns nil — a valid no-op counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := new(Counter)
	r.counters[name] = c
	r.counterNames = append(r.counterNames, name)
	return c
}

// CounterFields registers every `metric:"<name>"`-tagged uint64 field
// of the struct ptr points at as the counter prefix+name, the field
// itself serving as the counter's storage: incrementing the field is
// incrementing the exported counter. Re-registering a name (a shard
// drained and re-added under the same id) seeds the new field from
// the old counter, so exported counts stay monotone. No-op on a nil
// registry.
func (r *Registry) CounterFields(prefix string, ptr any) {
	if r == nil {
		return
	}
	v := reflect.ValueOf(ptr).Elem()
	for i, t := 0, v.Type(); i < t.NumField(); i++ {
		tag, ok := t.Field(i).Tag.Lookup("metric")
		if !ok {
			continue
		}
		c := (*Counter)(v.Field(i).Addr().Interface().(*uint64))
		name := prefix + tag
		if old, ok := r.counters[name]; ok {
			*c = *old
		} else {
			r.counterNames = append(r.counterNames, name)
		}
		r.counters[name] = c
	}
}

// AddFields adds every unsigned integer field of src into dst,
// recursing through nested and embedded structs; other fields are
// left alone. It turns per-part stats into their total without a
// hand-written line per field. T's fields must be exported.
func AddFields[T any](dst, src *T) {
	addFields(reflect.ValueOf(dst).Elem(), reflect.ValueOf(src).Elem())
}

func addFields(dst, src reflect.Value) {
	for i := 0; i < dst.NumField(); i++ {
		d, s := dst.Field(i), src.Field(i)
		switch {
		case d.Kind() == reflect.Struct:
			addFields(d, s)
		case d.CanUint():
			d.SetUint(d.Uint() + s.Uint())
		}
	}
}

// Gauge registers a sampled gauge. No-op on a nil registry.
func (r *Registry) Gauge(name string, sample func() float64) {
	if r == nil {
		return
	}
	r.gauges = append(r.gauges, Gauge{Name: name, Sample: sample})
}

// Gauges returns the registered gauges in registration order.
func (r *Registry) Gauges() []Gauge {
	if r == nil {
		return nil
	}
	return r.gauges
}

// Histogram returns the latency histogram registered under name,
// creating it on first use. A nil registry returns nil.
func (r *Registry) Histogram(name string) *sim.LatencyStats {
	if r == nil {
		return nil
	}
	if h, ok := r.hists[name]; ok {
		return h
	}
	h := &sim.LatencyStats{}
	r.hists[name] = h
	r.histNames = append(r.histNames, name)
	return h
}

// Metric is one exported sample.
type Metric struct {
	Name  string  `json:"name"`
	Kind  string  `json:"kind"` // "counter", "gauge", "hist"
	Value float64 `json:"value"`
}

// Snapshot returns every metric's current value, sorted by name.
// Histograms expand into .n/.avg/.p50/.p99/.max sub-metrics.
func (r *Registry) Snapshot() []Metric {
	return r.SnapshotAppend(nil)
}

// SnapshotAppend is Snapshot writing into buf's backing array (grown
// as needed) — the flight recorder samples every tick into a
// fixed-size ring slot, so a steady-state sample allocates nothing.
func (r *Registry) SnapshotAppend(buf []Metric) []Metric {
	if r == nil {
		return nil
	}
	out := buf[:0]
	for _, name := range r.counterNames {
		out = append(out, Metric{Name: name, Kind: "counter", Value: float64(r.counters[name].Value())})
	}
	for _, g := range r.gauges {
		out = append(out, Metric{Name: g.Name, Kind: "gauge", Value: g.Sample()})
	}
	for _, name := range r.histNames {
		h := r.hists[name]
		out = append(out,
			Metric{Name: name + ".n", Kind: "hist", Value: float64(h.N())},
			Metric{Name: name + ".avg_ns", Kind: "hist", Value: float64(h.Avg())},
			Metric{Name: name + ".p50_ns", Kind: "hist", Value: float64(h.Median())},
			Metric{Name: name + ".p99_ns", Kind: "hist", Value: float64(h.P99())},
			Metric{Name: name + ".max_ns", Kind: "hist", Value: float64(h.Max())},
		)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
