// Command spatialserverd is the networked query server daemon: it opens
// a database — a durable data directory, or memory — and serves the wire
// protocol over TCP.
//
// With -data-dir, the database lives in a paged store with a
// write-ahead log: every committed mutation survives a crash (per
// -wal-sync), restart recovers from WAL + checkpoint, and shutdown is a
// checkpoint. Without it, the database is in memory and -snapshot is
// its persistence: rewritten atomically on SIGTERM/SIGINT after
// draining in-flight cursors.
//
// -snapshot has one start-up rule in both modes: if the opened database
// has no tables and the file exists, it is imported. So an in-memory
// daemon picks up where its last shutdown left off, an empty -data-dir
// given a snapshot migrates it once, and a data directory that already
// holds tables is authoritative.
//
// Usage:
//
//	spatialserverd -addr 127.0.0.1:7878 -data-dir /var/lib/stf -wal-sync always
//	spatialserverd -addr 127.0.0.1:7878 -snapshot db.snap
//	spatialserverd -load counties:2000:1 -load stars:10000:2 -index rtree
//
// Connect with:
//
//	spatialsql -connect 127.0.0.1:7878
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
	"spatialtf/internal/datagen"
	"spatialtf/internal/pager"
	"spatialtf/internal/server"
)

type loadList []string

func (l *loadList) String() string     { return strings.Join(*l, ",") }
func (l *loadList) Set(v string) error { *l = append(*l, v); return nil }

func main() {
	var (
		serve        = daemon.RegisterFlags("127.0.0.1:7878")
		dataDir      = flag.String("data-dir", "", "durable data directory (page file + WAL); empty = in-memory")
		walSync      = flag.String("wal-sync", "always", "WAL fsync policy with -data-dir (always|batch|off)")
		poolPages    = flag.Int("pool-pages", 0, "buffer pool size in pages with -data-dir (0 = default)")
		checkpointMB = flag.Int64("checkpoint-mb", 0, "checkpoint once the WAL exceeds this many MiB (0 = default)")
		snapshot     = flag.String("snapshot", "", "snapshot file: imported at start if the database comes up with no tables; saved on shutdown in in-memory mode")
		index        = flag.String("index", "rtree", "index kind built on -load tables (rtree|quadtree|none)")
		parallel     = flag.Int("parallel", 0, "parallel workers for restore/index builds")
		loads        loadList
	)
	flag.Var(&loads, "load", "dataset to load at start, as name:n[:seed] (repeatable; counties, stars or blockgroups)")
	flag.Parse()
	log.SetPrefix("spatialserverd: ")
	log.SetFlags(log.LstdFlags)

	// One registry covers the whole process: the server's counters, the
	// database's join/cache instruments and (with -data-dir) the storage
	// engine's pool/WAL/checkpoint metrics land on the same scrape. It
	// must exist before the store opens so the engine can register.
	reg := spatialtf.NewTelemetryRegistry()
	db, err := openDB(*dataDir, *snapshot, *walSync, *poolPages, *checkpointMB, *parallel, reg)
	if err != nil {
		log.Fatal(err)
	}
	for _, spec := range loads {
		if err := loadDataset(db, spec, *index, *parallel); err != nil {
			log.Fatal(err)
		}
	}
	db.EnableTelemetry(reg)
	serve.Server.Telemetry = reg
	srv := server.New(db, serve.Server)

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	log.Printf("serving on %s", serve.Addr)
	err = daemon.Run(srv, serve, sigs, "served", func() {
		if db.Durable() {
			// Checkpoint + release the data directory; the WAL already
			// holds every committed mutation.
			if err := db.Close(); err != nil {
				log.Printf("data directory close failed: %v", err)
			} else {
				log.Printf("data directory checkpointed")
			}
		} else if *snapshot != "" {
			if err := pager.AtomicWrite(pager.OSFS, *snapshot, db.Save); err != nil {
				log.Printf("snapshot save failed: %v", err)
			} else {
				log.Printf("database saved to %s", *snapshot)
			}
		}
	})
	if err != nil {
		log.Fatal(err)
	}
}

// openDB opens the database — a durable data directory when -data-dir
// is set, otherwise in memory — and then applies the one start-up rule
// for -snapshot in both modes: a database that comes up with no tables
// imports the snapshot file if it exists. A recovered data directory is
// therefore authoritative, and a missing file means "start empty".
func openDB(dataDir, snapPath, walSync string, poolPages int, checkpointMB int64, parallel int, reg *spatialtf.TelemetryRegistry) (*spatialtf.DB, error) {
	var db *spatialtf.DB
	if dataDir == "" {
		db = spatialtf.Open()
	} else {
		var sync spatialtf.SyncMode
		switch walSync {
		case "always":
			sync = spatialtf.SyncAlways
		case "batch":
			sync = spatialtf.SyncBatch
		case "off":
			sync = spatialtf.SyncOff
		default:
			return nil, fmt.Errorf("bad -wal-sync %q (want always|batch|off)", walSync)
		}
		var err error
		db, err = spatialtf.OpenDir(dataDir, spatialtf.DirOptions{
			PoolPages:       poolPages,
			Sync:            sync,
			CheckpointBytes: checkpointMB << 20,
			Parallel:        parallel,
			Telemetry:       reg,
		})
		if err != nil {
			return nil, fmt.Errorf("open data dir %s: %w", dataDir, err)
		}
		if n := len(db.TableNames()); n > 0 {
			log.Printf("data directory %s opened (%d tables recovered)", dataDir, n)
			return db, nil
		}
	}
	if snapPath == "" {
		return db, nil
	}
	f, err := os.Open(snapPath)
	if os.IsNotExist(err) {
		log.Printf("snapshot %s not found; starting empty", snapPath)
		return db, nil
	}
	if err == nil {
		err = db.Import(f, parallel)
		f.Close()
	}
	if err != nil {
		db.Close()
		return nil, fmt.Errorf("import %s: %w", snapPath, err)
	}
	log.Printf("snapshot %s imported", snapPath)
	return db, nil
}

// loadDataset parses name:n[:seed] and loads it, indexing the geometry
// column per kind. A table that already exists — recovered from a data
// directory — is left alone, so the same -load flags are safe across
// restarts.
func loadDataset(db *spatialtf.DB, spec, kind string, parallel int) error {
	parts := strings.Split(spec, ":")
	if len(parts) < 2 || len(parts) > 3 {
		return fmt.Errorf("bad -load %q (want name:n[:seed])", spec)
	}
	if t, err := db.Table(parts[0]); err == nil {
		log.Printf("table %s already holds %d rows; skipping -load %s", parts[0], t.Len(), spec)
		return nil
	}
	n, err := strconv.Atoi(parts[1])
	if err != nil || n < 1 {
		return fmt.Errorf("bad -load count %q", parts[1])
	}
	seed := int64(1)
	if len(parts) == 3 {
		seed, err = strconv.ParseInt(parts[2], 10, 64)
		if err != nil {
			return fmt.Errorf("bad -load seed %q", parts[2])
		}
	}
	ds, err := datagen.ByName(parts[0], n, seed)
	if err != nil {
		return err
	}
	t0 := time.Now()
	if _, err := db.LoadDataset(parts[0], ds); err != nil {
		return err
	}
	opt := spatialtf.IndexOptions{Parallel: parallel}
	switch kind {
	case "rtree":
		_, err = db.CreateIndex(parts[0]+"_idx", parts[0], spatialtf.RTree, opt)
	case "quadtree":
		opt.Bounds = spatialtf.World
		opt.TilingLevel = 8
		_, err = db.CreateIndex(parts[0]+"_idx", parts[0], spatialtf.Quadtree, opt)
	case "none":
	default:
		return fmt.Errorf("unknown -index kind %q", kind)
	}
	if err != nil {
		return err
	}
	log.Printf("loaded %s (%d rows, index=%s) in %s", parts[0], n, kind, time.Since(t0).Round(time.Millisecond))
	return nil
}
