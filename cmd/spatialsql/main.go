// Command spatialsql is an interactive SQL shell over the spatial
// engine, accepting exactly the statement forms used in the paper:
//
//	CREATE TABLE cities (id INT, name VARCHAR, geom GEOMETRY);
//	INSERT INTO cities VALUES (1, 'springfield', 'POLYGON ((10 10, 14 10, 14 14, 10 14, 10 10))');
//	CREATE INDEX cities_idx ON cities(geom) INDEXTYPE IS RTREE PARALLEL 2;
//	SELECT name FROM cities WHERE sdo_relate(geom, 'POINT (12 12)', 'mask=contains') = 'TRUE';
//	SELECT count(*) FROM TABLE(spatial_join('cities','geom','cities','geom','anyinteract', 2));
//
// Meta commands: \load <counties|stars|blockgroups> <n> [seed] creates
// and fills a table from a synthetic dataset; \tables lists tables from
// the index metadata; \metrics dumps the telemetry registry; \trace
// on|off prints a span trace after every query; \q quits. Statements
// may span lines and end with a semicolon. A file of statements can be
// piped on stdin.
//
// With -connect host:port the shell runs against a remote spatialserverd
// instead of an embedded database: statements travel over the wire
// protocol and SELECT row sources stream back in fetch batches (printed
// incrementally), so a huge join never materialises on either side.
// Remote meta commands: \stats prints server statistics with latency
// histogram summaries; \metrics dumps the server's full metric
// snapshot; \batch <n> sets the fetch batch size; \q quits.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"spatialtf"
	"spatialtf/internal/datagen"
	"spatialtf/internal/pager"
	"spatialtf/internal/sqlmini"
	"spatialtf/internal/telemetry"
	"spatialtf/internal/wire"
)

// shellTelemetry is the local shell's observability: a live registry
// over the embedded database plus a tracer whose slow log writes to
// stderr. \trace on sets the threshold to zero (trace every join);
// \trace off back to disabled.
type shellTelemetry struct {
	reg     *spatialtf.TelemetryRegistry
	tracer  *spatialtf.Tracer
	tracing bool
}

// attachTelemetry enables a fresh registry + tracer on db (called at
// startup and again after \restore swaps the database).
func attachTelemetry(db *spatialtf.DB) *shellTelemetry {
	st := &shellTelemetry{reg: spatialtf.NewTelemetryRegistry()}
	db.EnableTelemetry(st.reg)
	st.tracer = telemetry.NewTracer(st.reg, -1, func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	})
	db.SetTracer(st.tracer)
	return st
}

func main() {
	connect := flag.String("connect", "", "run against a remote server at host:port instead of an embedded database")
	flag.Parse()
	if *connect != "" {
		if err := remoteShell(*connect); err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			os.Exit(1)
		}
		return
	}
	eng := sqlmini.NewEngine()
	st := attachTelemetry(eng.DB())
	interactive := isatty()
	if interactive {
		fmt.Println("spatialtf SQL shell — \\q to quit, \\load <dataset> <n> to load data, \\metrics, \\trace on|off")
	}
	repl(os.Stdin, interactive,
		func(sql string) { runStatement(eng, sql) },
		func(cmd string) bool { return meta(eng, &st, cmd) })
}

// repl reads the shell's input line by line until EOF or a meta command
// that quits. A line starting with a backslash between statements is a
// meta command, handed to meta, which returns false to quit. Any other
// line joins the current statement, which may span lines and is handed
// to run without its semicolon once a line ends in one; a statement
// left open at EOF runs as it is. With interactive set, a prompt goes
// to stdout before each line.
func repl(in io.Reader, interactive bool, run func(sql string), meta func(cmd string) bool) {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := func() {
		if !interactive {
			return
		}
		if buf.Len() == 0 {
			fmt.Print("sql> ")
		} else {
			fmt.Print("...> ")
		}
	}
	prompt()
	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, "\\") {
			if !meta(trimmed) {
				return
			}
			prompt()
			continue
		}
		buf.WriteString(line)
		buf.WriteString("\n")
		if strings.HasSuffix(trimmed, ";") {
			stmtText := strings.TrimSuffix(strings.TrimSpace(buf.String()), ";")
			buf.Reset()
			if stmtText != "" {
				run(stmtText)
			}
		}
		prompt()
	}
	if rest := strings.TrimSpace(buf.String()); rest != "" {
		run(rest)
	}
}

func runStatement(eng *sqlmini.Engine, sql string) {
	t0 := time.Now()
	res, err := eng.Execute(sql)
	if err != nil {
		fmt.Fprintf(os.Stderr, "error: %v\n", err)
		return
	}
	fmt.Print(res.Format())
	fmt.Printf("elapsed: %s\n", time.Since(t0).Round(time.Microsecond))
}

// meta handles backslash commands; returns false to quit.
func meta(eng *sqlmini.Engine, st **shellTelemetry, cmd string) bool {
	fields := strings.Fields(cmd)
	switch fields[0] {
	case "\\q", "\\quit", "\\exit":
		return false
	case "\\metrics":
		printPoints((*st).reg.Snapshot())
	case "\\trace":
		if len(fields) != 2 || (fields[1] != "on" && fields[1] != "off") {
			fmt.Fprintln(os.Stderr, "usage: \\trace on|off")
			return true
		}
		if fields[1] == "on" {
			(*st).tracer.SetThreshold(0) // log a span trace for every query
			(*st).tracing = true
			fmt.Println("tracing on: span traces print to stderr after each query")
		} else {
			(*st).tracer.SetThreshold(-1)
			(*st).tracing = false
			fmt.Println("tracing off")
		}
	case "\\tables":
		metas, err := eng.DB().IndexMetadata()
		if err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			return true
		}
		if len(metas) == 0 {
			fmt.Println("(no spatial indexes; tables without indexes are not listed)")
		}
		for _, m := range metas {
			fmt.Printf("%s.%s indexed by %s (%s)\n", m.TableName, m.ColumnName, m.IndexName, m.Kind)
		}
	case "\\save":
		if len(fields) != 2 {
			fmt.Fprintln(os.Stderr, "usage: \\save <file>")
			return true
		}
		// Atomic replace: a failed save leaves the previous file intact.
		if err := pager.AtomicWrite(pager.OSFS, fields[1], eng.DB().Save); err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			return true
		}
		fmt.Printf("database saved to %s\n", fields[1])
	case "\\restore":
		if len(fields) != 2 {
			fmt.Fprintln(os.Stderr, "usage: \\restore <file>")
			return true
		}
		f, err := os.Open(fields[1])
		if err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			return true
		}
		db, err := spatialtf.Restore(f, 0)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			return true
		}
		*eng = *sqlmini.NewEngineOn(db)
		// The restore swapped the database out from under the registry;
		// re-attach a fresh one and carry the tracing toggle over.
		tracing := (*st).tracing
		*st = attachTelemetry(eng.DB())
		if tracing {
			(*st).tracer.SetThreshold(0)
			(*st).tracing = true
		}
		fmt.Printf("database restored from %s\n", fields[1])
	case "\\load":
		if len(fields) < 3 {
			fmt.Fprintln(os.Stderr, "usage: \\load <counties|stars|blockgroups> <n> [seed]")
			return true
		}
		n, err := strconv.Atoi(fields[2])
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "bad count %q\n", fields[2])
			return true
		}
		seed := int64(1)
		if len(fields) > 3 {
			s, err := strconv.ParseInt(fields[3], 10, 64)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bad seed %q\n", fields[3])
				return true
			}
			seed = s
		}
		ds, err := datagen.ByName(fields[1], n, seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return true
		}
		t0 := time.Now()
		if _, err := eng.DB().LoadDataset(fields[1], ds); err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			return true
		}
		fmt.Printf("loaded %d rows into table %s in %s\n", n, fields[1], time.Since(t0).Round(time.Millisecond))
	default:
		fmt.Fprintf(os.Stderr, "unknown command %s\n", fields[0])
	}
	return true
}

// remoteShell runs the REPL against a spatialserverd at addr.
func remoteShell(addr string) error {
	cli, err := wire.Dial(addr)
	if err != nil {
		return err
	}
	defer cli.Close()
	interactive := isatty()
	if interactive {
		fmt.Printf("spatialtf SQL shell — connected to %s; \\q to quit, \\stats for server stats, \\metrics for the full snapshot\n", addr)
	}
	batch := 0 // 0 = server default
	repl(os.Stdin, interactive,
		func(sql string) { runRemoteStatement(cli, sql, batch) },
		func(cmd string) bool { return remoteMeta(cli, cmd, &batch) })
	return nil
}

// runRemoteStatement executes one statement over the wire, streaming
// cursor batches to stdout as they arrive.
func runRemoteStatement(cli *wire.Client, sql string, batch int) {
	t0 := time.Now()
	res, err := cli.Query(sql)
	if err != nil {
		fmt.Fprintf(os.Stderr, "error: %v\n", err)
		return
	}
	if res.Cursor == nil {
		fmt.Print((&sqlmini.Result{Message: res.Message, Columns: res.Columns, Rows: res.Rows}).Format())
		fmt.Printf("elapsed: %s\n", time.Since(t0).Round(time.Microsecond))
		return
	}
	cur := res.Cursor
	defer cur.Close()
	cols := cur.Columns()
	for i, c := range cols {
		if i > 0 {
			fmt.Print("  ")
		}
		fmt.Print(c.Name)
	}
	fmt.Println()
	n := 0
	for {
		rows, done, err := cur.Fetch(batch)
		if err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			return
		}
		for _, row := range rows {
			for i, v := range row {
				if i > 0 {
					fmt.Print("  ")
				}
				s := v.String()
				if len(s) > 48 {
					s = s[:45] + "..."
				}
				fmt.Print(s)
			}
			fmt.Println()
			n++
		}
		if done {
			break
		}
	}
	fmt.Printf("(%d rows)\nelapsed: %s\n", n, time.Since(t0).Round(time.Microsecond))
}

// remoteMeta handles backslash commands in connect mode; returns false
// to quit.
func remoteMeta(cli *wire.Client, cmd string, batch *int) bool {
	fields := strings.Fields(cmd)
	switch fields[0] {
	case "\\q", "\\quit", "\\exit":
		return false
	case "\\stats":
		s, err := cli.Stats()
		if err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			return true
		}
		fmt.Printf("connections: %d active / %d accepted / %d rejected\n",
			s.ConnsActive, s.ConnsAccepted, s.ConnsRejected)
		fmt.Printf("cursors:     %d open / %d opened\n", s.CursorsOpen, s.CursorsOpened)
		fmt.Printf("queries:     %d (%d errors)\n", s.Queries, s.Errors)
		mean := time.Duration(0)
		if s.Fetches > 0 {
			mean = time.Duration(s.FetchNanos / s.Fetches)
		}
		fmt.Printf("streaming:   %d rows over %d fetches (mean fetch %s)\n",
			s.RowsStreamed, s.Fetches, mean.Round(time.Microsecond))
		fmt.Printf("geom cache:  %d hits / %d misses, %d entries (%d bytes)\n",
			s.GeomCacheHits, s.GeomCacheMisses, s.GeomCacheEntries, s.GeomCacheBytes)
		// Histogram summaries ride on the metrics frame; a pre-metrics
		// server answers it with an error, in which case the basic stats
		// above are all there is.
		pts, err := cli.Metrics()
		if err != nil {
			return true
		}
		for _, p := range pts {
			if p.Kind != telemetry.KindHistogram || p.Count == 0 {
				continue
			}
			fmt.Printf("%-30s %s\n", p.Name+":", histSummary(p))
		}
	case "\\metrics":
		pts, err := cli.Metrics()
		if err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			return true
		}
		printPoints(pts)
	case "\\batch":
		if len(fields) != 2 {
			fmt.Fprintln(os.Stderr, "usage: \\batch <rows> (0 = server default)")
			return true
		}
		n, err := strconv.Atoi(fields[1])
		if err != nil || n < 0 {
			fmt.Fprintf(os.Stderr, "bad batch size %q\n", fields[1])
			return true
		}
		*batch = n
	default:
		fmt.Fprintf(os.Stderr, "unknown command %s (remote mode supports \\q, \\stats, \\metrics, \\batch)\n", fields[0])
	}
	return true
}

// printPoints renders a metrics snapshot as a compact table: counters
// and gauges one per line, histograms with count/mean/quantiles.
func printPoints(pts []telemetry.Point) {
	for _, p := range pts {
		switch p.Kind {
		case telemetry.KindHistogram:
			fmt.Printf("%-34s %s\n", p.Name, histSummary(p))
		default:
			fmt.Printf("%-34s %v\n", p.Name, p.Value)
		}
	}
}

// histSummary formats one histogram point as count, mean and estimated
// p50/p99 (linear interpolation within buckets).
func histSummary(p telemetry.Point) string {
	if p.Count == 0 {
		return "count=0"
	}
	mean := p.Sum / float64(p.Count)
	return fmt.Sprintf("count=%d mean=%s p50=%s p99=%s",
		p.Count, histUnit(p.Name, mean),
		histUnit(p.Name, p.Quantile(0.5)), histUnit(p.Name, p.Quantile(0.99)))
}

// histUnit renders a histogram sample in its natural unit: *_seconds
// metrics as durations, everything else as a bare number.
func histUnit(name string, v float64) string {
	if strings.HasSuffix(name, "_seconds") {
		return time.Duration(v * float64(time.Second)).Round(time.Microsecond).String()
	}
	return strconv.FormatFloat(v, 'g', 4, 64)
}

// isatty reports whether stdin looks interactive (best effort, stdlib
// only).
func isatty() bool {
	fi, err := os.Stdin.Stat()
	if err != nil {
		return false
	}
	return fi.Mode()&os.ModeCharDevice != 0
}
