// Package telemetry is the unified observability subsystem: a metrics
// registry (atomic counters, gauges, and fixed-bucket histograms with
// preregistered handles, so hot loops never touch a map), lightweight
// span tracing over the table-function start–fetch–close lifecycle and
// the spatial-join stages, and Prometheus-style text exposition.
//
// The paper's pipelined table functions exist so the kernel can observe
// and overlap the start–fetch–close lifecycle of a join (§4); this
// package makes that lifecycle visible. Every ad-hoc counter in the
// engine (server stats, join stats, geometry-cache stats) reads and
// writes through one registry, which a scrape endpoint, the wire
// protocol's Metrics frame, and the SQL shells all render from.
//
// # Zero cost when disabled
//
// A nil *Registry (telemetry.Nop) is a valid registry: every
// constructor on it returns a nil handle, and every method on a nil
// handle is a no-op — one predictable nil check, no atomics, no
// allocation. Embedded DB use defaults to Nop; the network server and
// the daemons enable a real registry.
//
// # Metric names
//
// Names are lowercase_snake ([a-z][a-z0-9_]*), unique per registry.
// Registration panics on a malformed or duplicate name: metric sets
// are static program structure, so a bad name is a programming error.
// The root package's TestMetricSetsShareOneRegistry registers every
// metric set in the module onto one registry, so the panic fires in
// the test suite rather than in a daemon.
package telemetry

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
)

// Nop is the disabled registry: constructors on it return nil handles
// whose methods do nothing. It is the default for embedded DB use.
var Nop *Registry

// Kind tags a metric for exposition and the wire codec.
type Kind uint8

// Metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// validName is the metric naming rule: lowercase_snake, led by a
// letter.
var validName = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// metric is the registry's view of one registered series.
type metric interface {
	name() string
	help() string
	kind() Kind
	point() Point
}

// Registry holds a process's (or server's) metric set. All methods are
// safe for concurrent use; handle updates are lock-free. A nil
// *Registry is the disabled (Nop) registry.
type Registry struct {
	mu      sync.Mutex
	byName  map[string]metric
	ordered []metric
}

// New returns an empty enabled registry.
func New() *Registry {
	return &Registry{byName: make(map[string]metric)}
}

// Enabled reports whether the registry records anything.
func (r *Registry) Enabled() bool { return r != nil }

// register validates and stores a metric; panics on a malformed or
// duplicate name (static program structure, exercised for every metric
// set by TestMetricSetsShareOneRegistry).
func (r *Registry) register(m metric) {
	if !validName.MatchString(m.name()) {
		panic(fmt.Sprintf("telemetry: metric name %q is not lowercase_snake", m.name()))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[m.name()]; dup {
		panic(fmt.Sprintf("telemetry: metric %q registered twice", m.name()))
	}
	r.byName[m.name()] = m
	r.ordered = append(r.ordered, m)
}

// --- counter ---

// Counter is a monotonically increasing value. A nil Counter is a
// no-op.
type Counter struct {
	nm, hp string
	v      atomic.Int64
}

// NewCounter registers and returns a counter handle (nil on a nil
// registry).
func (r *Registry) NewCounter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	c := &Counter{nm: name, hp: help}
	r.register(c)
	return c
}

// Add increments the counter by n (n must be >= 0; negative deltas are
// ignored so a counter stays monotonic).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil handle).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

func (c *Counter) name() string { return c.nm }
func (c *Counter) help() string { return c.hp }
func (c *Counter) kind() Kind   { return KindCounter }
func (c *Counter) point() Point {
	return Point{Name: c.nm, Help: c.hp, Kind: KindCounter, Value: float64(c.v.Load())}
}

// --- gauge ---

// Gauge is an instantaneous value that can go up and down. A nil Gauge
// is a no-op.
type Gauge struct {
	nm, hp string
	v      atomic.Int64
}

// NewGauge registers and returns a gauge handle (nil on a nil
// registry).
func (r *Registry) NewGauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	g := &Gauge{nm: name, hp: help}
	r.register(g)
	return g
}

// Add moves the gauge by delta (either sign).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Value returns the current value (0 on a nil handle).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

func (g *Gauge) name() string { return g.nm }
func (g *Gauge) help() string { return g.hp }
func (g *Gauge) kind() Kind   { return KindGauge }
func (g *Gauge) point() Point {
	return Point{Name: g.nm, Help: g.hp, Kind: KindGauge, Value: float64(g.v.Load())}
}

// --- callback metrics (views over pre-existing counters) ---

// funcMetric exposes a value read from a callback at scrape time. It
// lets subsystems that keep their own atomics (the geometry cache, the
// R-tree pin accounting) appear in the registry without double
// counting — the original atomic stays the single source of truth and
// the registry holds a view.
type funcMetric struct {
	nm, hp string
	kd     Kind
	fn     func() int64
}

// CounterFunc registers a counter whose value is read from fn at
// scrape time. fn must be monotonic and safe for concurrent use.
func (r *Registry) CounterFunc(name, help string, fn func() int64) {
	if r == nil {
		return
	}
	r.register(&funcMetric{nm: name, hp: help, kd: KindCounter, fn: fn})
}

// GaugeFunc registers a gauge whose value is read from fn at scrape
// time. fn must be safe for concurrent use.
func (r *Registry) GaugeFunc(name, help string, fn func() int64) {
	if r == nil {
		return
	}
	r.register(&funcMetric{nm: name, hp: help, kd: KindGauge, fn: fn})
}

func (m *funcMetric) name() string { return m.nm }
func (m *funcMetric) help() string { return m.hp }
func (m *funcMetric) kind() Kind   { return m.kd }
func (m *funcMetric) point() Point {
	return Point{Name: m.nm, Help: m.hp, Kind: m.kd, Value: float64(m.fn())}
}

// --- histogram ---

// Histogram is a fixed-bucket distribution. Buckets are upper bounds
// in ascending order; an implicit +Inf bucket catches the overflow.
// Observe is lock-free: one atomic add into the bucket counter plus a
// CAS loop on the sum. A nil Histogram is a no-op.
type Histogram struct {
	nm, hp string
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	sum    atomic.Uint64  // float64 bits
	count  atomic.Int64
}

// DefBuckets is the default latency bucket layout, in seconds: 10µs to
// ~10s, quadrupling — wide enough for both an in-memory node visit and
// a cold full-table join.
var DefBuckets = []float64{
	1e-5, 4e-5, 16e-5, 64e-5, 256e-5, 1024e-5, 4096e-5, 16384e-5, 65536e-5,
}

// SizeBuckets is the default size bucket layout (rows, entries):
// powers of four from 1 to 64k.
var SizeBuckets = []float64{1, 4, 16, 64, 256, 1024, 4096, 16384, 65536}

// NewHistogram registers and returns a histogram with the given upper
// bounds (nil buckets selects DefBuckets). Bounds must be ascending;
// registration panics otherwise. Returns nil on a nil registry.
func (r *Registry) NewHistogram(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("telemetry: histogram %q buckets not ascending at %d", name, i))
		}
	}
	bounds := append([]float64(nil), buckets...)
	h := &Histogram{nm: name, hp: help, bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
	r.register(h)
	return h
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Sum returns the running total of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

func (h *Histogram) name() string { return h.nm }
func (h *Histogram) help() string { return h.hp }
func (h *Histogram) kind() Kind   { return KindHistogram }
func (h *Histogram) point() Point {
	p := Point{
		Name:   h.nm,
		Help:   h.hp,
		Kind:   KindHistogram,
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
		Sum:    h.Sum(),
	}
	for i := range h.counts {
		p.Counts[i] = h.counts[i].Load()
	}
	p.Count = h.count.Load()
	return p
}

// --- snapshots ---

// Point is a point-in-time copy of one metric, the unit the wire
// protocol's Metrics frame and the exposition writer consume. For
// histograms, Counts holds per-bucket (non-cumulative) counts with the
// +Inf overflow bucket last (len(Counts) == len(Bounds)+1).
type Point struct {
	Name   string
	Help   string
	Kind   Kind
	Value  float64 // counter/gauge
	Bounds []float64
	Counts []int64
	Sum    float64
	Count  int64
}

// Quantile estimates the q-quantile (0..1) of a histogram point by
// linear interpolation inside the owning bucket, the usual
// histogram_quantile estimate. Returns 0 when empty or not a
// histogram.
func (p Point) Quantile(q float64) float64 {
	if p.Kind != KindHistogram || p.Count == 0 || q < 0 || q > 1 {
		return 0
	}
	rank := q * float64(p.Count)
	cum := int64(0)
	for i, c := range p.Counts {
		cum += c
		if float64(cum) >= rank && c > 0 {
			lo := 0.0
			if i > 0 {
				lo = p.Bounds[i-1]
			}
			hi := lo
			if i < len(p.Bounds) {
				hi = p.Bounds[i]
			}
			frac := (rank - float64(cum-c)) / float64(c)
			return lo + (hi-lo)*frac
		}
	}
	return p.Bounds[len(p.Bounds)-1]
}

// Snapshot returns a point-in-time copy of every registered metric, in
// registration order. Nil registries return nil.
func (r *Registry) Snapshot() []Point {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	ms := append([]metric(nil), r.ordered...)
	r.mu.Unlock()
	out := make([]Point, 0, len(ms))
	for _, m := range ms {
		out = append(out, m.point())
	}
	return out
}

// Lookup returns the snapshot of one metric by name (ok=false when
// absent or the registry is nil).
func (r *Registry) Lookup(name string) (Point, bool) {
	if r == nil {
		return Point{}, false
	}
	r.mu.Lock()
	m, ok := r.byName[name]
	r.mu.Unlock()
	if !ok {
		return Point{}, false
	}
	return m.point(), true
}
