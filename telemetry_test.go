package spatialtf_test

import (
	"testing"

	"spatialtf"
	"spatialtf/internal/cluster"
	"spatialtf/internal/server"
	"spatialtf/internal/telemetry"
)

// TestMetricSetsShareOneRegistry registers every instrument set in the
// module onto one registry, as a daemon that serves a durable database
// and a router scraping the same process would: the database metric set
// with its spatial-join instruments (EnableTelemetry), the buffer pool
// and WAL metrics of a durable store, the server's stats and its
// tracer's span metrics, and the cluster coordinator's counters.
// Registration panics on a malformed or duplicate name, so a name that
// is not lowercase_snake, or one minted by two of these sets, fails
// here. A registration site in a package this test does not construct
// is not covered.
func TestMetricSetsShareOneRegistry(t *testing.T) {
	reg := telemetry.New()
	register := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("registering %s: %v", what, r)
			}
		}()
		fn()
	}

	var db *spatialtf.DB
	register("a durable database", func() {
		var err error
		db, err = spatialtf.OpenDir(t.TempDir(), spatialtf.DirOptions{Telemetry: reg})
		if err != nil {
			t.Fatal(err)
		}
	})
	defer db.Close()
	register("the server", func() { server.New(db, server.Config{Telemetry: reg}) })
	register("the cluster coordinator", func() {
		_, err := cluster.New(&cluster.ShardMap{
			Bounds: spatialtf.World, Cols: 1, Rows: 1, Shards: []string{"127.0.0.1:1"},
		}, cluster.Options{Registry: reg})
		if err != nil {
			t.Fatal(err)
		}
	})

	// One name from each registration file, so a set that stops
	// registering (and so can no longer collide) is noticed too.
	for _, name := range []string{
		"geom_cache_bytes",      // telemetry.go
		"join_candidates_total", // internal/sjoin/instruments.go
		"pool_hits_total",       // internal/pager/store.go
		"server_queries_total",  // internal/server/stats.go
		"query_seconds",         // internal/telemetry/span.go
		"cluster_scatter_total", // internal/cluster/coordinator.go
	} {
		if _, ok := reg.Lookup(name); !ok {
			t.Errorf("metric %s is not registered", name)
		}
	}
}
