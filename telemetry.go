package spatialtf

import (
	"spatialtf/internal/rtree"
	"spatialtf/internal/sjoin"
	"spatialtf/internal/telemetry"
)

// Telemetry re-exports the registry type so embedders can build one
// without importing the internal package path.
type (
	// TelemetryRegistry is the metrics registry (telemetry.Registry).
	TelemetryRegistry = telemetry.Registry
	// Tracer mints per-query span traces (telemetry.Tracer).
	Tracer = telemetry.Tracer
)

// NewTelemetryRegistry returns an empty enabled metrics registry.
func NewTelemetryRegistry() *TelemetryRegistry { return telemetry.New() }

// EnableTelemetry registers the database's metric set on reg: the
// shared spatial-join instruments (work counters, the decoded-geometry
// cache's hits and misses among them, and stage-latency histograms)
// plus scrape-time views over the cache's residency and the R-tree pin
// accounting. The views read the pre-existing state, so enabling
// telemetry adds no writes to those paths; the join instruments are
// fed by per-fetch delta flushes.
//
// An embedded database defaults to no telemetry (telemetry.Nop
// semantics — zero cost). Enable at most once per database; a second
// call is ignored. The R-tree pin counters are process-wide, so two
// databases enabled onto two registries would each see all pins.
func (db *DB) EnableTelemetry(reg *TelemetryRegistry) {
	if reg == nil {
		return
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.instr != nil {
		return
	}
	db.telReg = reg
	db.instr = sjoin.NewInstruments(reg)
	cache := db.geomCache
	reg.GaugeFunc("geom_cache_bytes",
		"decoded geometry bytes resident in the cache",
		func() int64 { b, _ := cache.Resident(); return b })
	reg.GaugeFunc("geom_cache_entries",
		"geometries resident in the cache",
		func() int64 { _, n := cache.Resident(); return n })
	reg.CounterFunc("rtree_pins_total",
		"R-tree cursor pins ever taken (process-wide)",
		func() int64 { t, _ := rtree.PinStats(); return t })
	reg.GaugeFunc("rtree_pins_held",
		"R-tree cursor pins currently held (process-wide)",
		func() int64 { _, h := rtree.PinStats(); return h })
}

// Telemetry returns the registry passed to EnableTelemetry, or nil
// (the Nop registry) when telemetry is disabled.
func (db *DB) Telemetry() *TelemetryRegistry {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.telReg
}

// SetTracer attaches a query tracer: every subsequent SpatialJoin
// cursor carries a per-query span trace that feeds the tracer's
// query_seconds histogram and its slow log. A nil tracer (the default)
// disables per-query tracing.
func (db *DB) SetTracer(tr *Tracer) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.tracer = tr
}

// getTracer reads the attached tracer (nil when tracing is disabled).
func (db *DB) getTracer() *telemetry.Tracer {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tracer
}
