// Command spatialrouterd is the cluster query router: it fronts N
// spatialserverd shards with the exact wire protocol of a single node,
// so spatialsql -connect works unchanged against a whole cluster.
//
// The shard map — world bounds, grid shape, replication margin, shard
// addresses — lives in a CRC-tailed manifest. Point the router at an
// existing manifest, or create one on first boot:
//
//	spatialrouterd -addr 127.0.0.1:7900 -manifest cluster.stf \
//	    -shards 127.0.0.1:7901,127.0.0.1:7902,127.0.0.1:7903 \
//	    -bounds 0,0,1000,1000 -grid 8x8 -margin 10
//
// Reads scatter to the owning shards as scoped queries and merge
// through a parallel table function; writes replicate by the shard
// map. -on-shard-loss picks what a lost shard does to in-flight reads:
// "fail" (default) fails the query, "partial" streams the surviving
// shards and ends the stream with a typed partial-result error.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"spatialtf"
	"spatialtf/cmd/internal/daemon"
	"spatialtf/internal/cluster"
	"spatialtf/internal/geom"
	"spatialtf/internal/server"
	"spatialtf/internal/telemetry"
)

// clusterBackend adapts the coordinator to the server's Backend
// contract (the adapter lives here because Go interface satisfaction
// needs the exact return type, and the cluster package returns its
// concrete *cluster.Session).
type clusterBackend struct{ co *cluster.Coordinator }

func (b clusterBackend) NewSession() server.Session { return b.co.NewSession() }

func (b clusterBackend) MetricsSnapshot() []telemetry.Point { return b.co.MetricsSnapshot() }

func main() {
	var (
		serve        = daemon.RegisterFlags("127.0.0.1:7900")
		manifest     = flag.String("manifest", "", "shard-map manifest path (required)")
		shards       = flag.String("shards", "", "comma-separated shard addresses; creates the manifest when it does not exist")
		bounds       = flag.String("bounds", "0,0,1000,1000", "world bounds minx,miny,maxx,maxy for a new manifest")
		grid         = flag.String("grid", "8x8", "ownership grid COLSxROWS for a new manifest")
		margin       = flag.Float64("margin", 0, "replication margin (largest join distance) for a new manifest")
		dialTimeout  = flag.Duration("dial-timeout", 5*time.Second, "per-shard dial timeout (0 = none)")
		readTimeout  = flag.Duration("read-timeout", 30*time.Second, "per-shard reply timeout (0 = none)")
		writeTimeout = flag.Duration("write-timeout", 10*time.Second, "per-shard request-write timeout (0 = none)")
		retries      = flag.Int("retries", 2, "retry count for failed shard dials/requests")
		retryBackoff = flag.Duration("retry-backoff", 50*time.Millisecond, "sleep before the first retry, doubling per attempt")
		onShardLoss  = flag.String("on-shard-loss", cluster.LossFail, "lost-shard policy for streaming reads (fail|partial)")
		fetchBatch   = flag.Int("shard-batch", 0, "rows per remote fetch from each shard (0 = shard default)")
	)
	flag.Parse()
	log.SetPrefix("spatialrouterd: ")
	log.SetFlags(log.LstdFlags)

	m, err := loadOrCreateMap(*manifest, *shards, *bounds, *grid, *margin)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("shard map: %d shards, %dx%d grid over (%g,%g)-(%g,%g), margin %g",
		m.NShards(), m.Cols, m.Rows, m.Bounds.MinX, m.Bounds.MinY, m.Bounds.MaxX, m.Bounds.MaxY, m.Margin)

	reg := spatialtf.NewTelemetryRegistry()
	co, err := cluster.New(m, cluster.Options{
		DialTimeout:  *dialTimeout,
		ReadTimeout:  *readTimeout,
		WriteTimeout: *writeTimeout,
		Retries:      *retries,
		RetryBackoff: *retryBackoff,
		OnShardLoss:  *onShardLoss,
		FetchBatch:   *fetchBatch,
		Registry:     reg,
	})
	if err != nil {
		log.Fatal(err)
	}
	serve.Server.Telemetry = reg
	srv := server.NewWith(clusterBackend{co: co}, serve.Server)
	// Scatter/merge spans land on the serving layer's tracer so the
	// router's slow log shows where a cluster query spent its time.
	co.SetTracer(srv.Tracer())

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	log.Printf("routing for %d shards on %s", m.NShards(), serve.Addr)
	err = daemon.Run(srv, serve, sigs, "routed", func() {
		if err := co.Close(); err != nil {
			log.Printf("shard connections close: %v", err)
		}
	})
	if err != nil {
		log.Fatal(err)
	}
}

// loadOrCreateMap loads the manifest, or creates it from the -shards/
// -bounds/-grid/-margin flags when the file does not exist yet.
func loadOrCreateMap(path, shards, bounds, grid string, margin float64) (*cluster.ShardMap, error) {
	if path == "" {
		return nil, fmt.Errorf("-manifest is required")
	}
	if _, err := os.Stat(path); err == nil {
		m, err := cluster.LoadShardMap(path)
		if err != nil {
			return nil, err
		}
		if shards != "" {
			return nil, fmt.Errorf("manifest %s already exists; drop -shards (the manifest is authoritative)", path)
		}
		return m, nil
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	if shards == "" {
		return nil, fmt.Errorf("manifest %s does not exist; pass -shards to create it", path)
	}
	b, err := parseBounds(bounds)
	if err != nil {
		return nil, err
	}
	cols, rows, err := parseGrid(grid)
	if err != nil {
		return nil, err
	}
	m := &cluster.ShardMap{
		Bounds: b,
		Cols:   cols,
		Rows:   rows,
		Margin: margin,
		Shards: strings.Split(shards, ","),
	}
	if err := m.Save(path); err != nil {
		return nil, fmt.Errorf("create manifest %s: %w", path, err)
	}
	log.Printf("manifest %s created", path)
	return m, nil
}

// parseBounds parses "minx,miny,maxx,maxy".
func parseBounds(s string) (geom.MBR, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 4 {
		return geom.MBR{}, fmt.Errorf("bad -bounds %q (want minx,miny,maxx,maxy)", s)
	}
	var v [4]float64
	for i, p := range parts {
		f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return geom.MBR{}, fmt.Errorf("bad -bounds %q: %w", s, err)
		}
		v[i] = f
	}
	return geom.MBR{MinX: v[0], MinY: v[1], MaxX: v[2], MaxY: v[3]}, nil
}

// parseGrid parses "COLSxROWS".
func parseGrid(s string) (cols, rows int, err error) {
	c, r, ok := strings.Cut(strings.ToLower(s), "x")
	if !ok {
		return 0, 0, fmt.Errorf("bad -grid %q (want COLSxROWS)", s)
	}
	cols, err = strconv.Atoi(strings.TrimSpace(c))
	if err == nil {
		rows, err = strconv.Atoi(strings.TrimSpace(r))
	}
	if err != nil {
		return 0, 0, fmt.Errorf("bad -grid %q: %w", s, err)
	}
	return cols, rows, nil
}
