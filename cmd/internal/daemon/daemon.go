// Package daemon is the serve-and-drain loop of the two server
// commands, spatialserverd and spatialrouterd: their common flags, the
// observability endpoint and the graceful shutdown. What differs
// between them — the backend behind the server and what must happen
// once it has drained — stays in each command.
//
// It lives under cmd/ rather than in internal/server because it
// imports net/http/pprof, whose init registers handlers on
// http.DefaultServeMux in every program that links it.
package daemon

import (
	"context"
	"flag"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"sync"
	"time"

	"spatialtf/internal/server"
)

// Flags are the listen address and the serving flags both daemons take.
// Server holds everything of server.Config but Telemetry, which the
// command sets to its process-wide registry before building the server.
type Flags struct {
	Addr         string
	MetricsAddr  string
	DrainTimeout time.Duration
	Server       server.Config
}

// RegisterFlags defines -addr, defaulting to addr, and the serving
// flags (-max-conns to -slow-query) on the command line. The returned
// Flags hold their values once flag.Parse has run.
func RegisterFlags(addr string) *Flags {
	f := &Flags{}
	flag.StringVar(&f.Addr, "addr", addr, "listen address")
	flag.IntVar(&f.Server.MaxConns, "max-conns", 64, "concurrent client connection limit")
	flag.IntVar(&f.Server.MaxCursorsPerConn, "max-cursors", 8, "open cursor limit per connection")
	flag.IntVar(&f.Server.DefaultBatch, "batch", 256, "default client fetch batch size (rows)")
	flag.IntVar(&f.Server.MaxBatch, "max-batch", 4096, "largest fetch batch a client may request")
	flag.Int64Var(&f.Server.MaxRowsPerQuery, "max-rows", 0, "per-query row limit (0 = unlimited)")
	flag.DurationVar(&f.Server.QueryTimeout, "query-timeout", 0, "per-query time limit (0 = none)")
	flag.DurationVar(&f.DrainTimeout, "drain-timeout", 30*time.Second, "graceful shutdown drain limit")
	flag.StringVar(&f.MetricsAddr, "metrics-addr", "", "HTTP address for /metrics and /debug/pprof/ (empty = disabled)")
	flag.DurationVar(&f.Server.SlowQuery, "slow-query", 0, "log a span trace for queries at least this slow (0 = off)")
	return f
}

// Run serves srv on f.Addr, and /metrics and pprof on f.MetricsAddr
// when it is set, until a signal arrives on stop. Then it drains srv
// within f.DrainTimeout, stops the metrics endpoint, calls drained,
// waits for every goroutine it started and logs the exit stats line,
// "<verb> N queries, ...". If srv stops serving before any signal — its
// address is taken, say — Run stops the metrics endpoint and returns
// that error without calling drained.
func Run(srv *server.Server, f *Flags, stop <-chan os.Signal, verb string, drained func()) error {
	var wg sync.WaitGroup
	defer wg.Wait()
	var metrics *http.Server
	if f.MetricsAddr != "" {
		metrics = serveMetrics(&wg, f.MetricsAddr, srv)
	}
	served := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		served <- srv.ListenAndServe(f.Addr)
	}()

	var sig os.Signal
	select {
	case err := <-served:
		shutdownMetrics(context.Background(), metrics)
		return err
	case sig = <-stop:
	}
	log.Printf("received %s; draining connections (limit %s)", sig, f.DrainTimeout)
	ctx, cancel := context.WithTimeout(context.Background(), f.DrainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("forced shutdown: %v", err)
	}
	shutdownMetrics(ctx, metrics)
	drained()
	if err := <-served; err != server.ErrServerClosed {
		return err
	}
	wg.Wait()
	s := srv.Stats().Snapshot()
	log.Printf("%s %d queries, %d rows streamed over %d fetches, %d connections",
		verb, s.Queries, s.RowsStreamed, s.Fetches, s.ConnsAccepted)
	return nil
}

// serveMetrics serves srv's registry on /metrics and the pprof
// handlers on /debug/pprof/ at addr, on a mux of its own (never the
// default one) so nothing else in the process can widen the endpoint.
// A failure to listen is logged and leaves the daemon without the
// endpoint, as a failure to serve does: it is not fatal.
func serveMetrics(wg *sync.WaitGroup, addr string, srv *server.Server) *http.Server {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Printf("metrics server: %v", err)
		return nil
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", srv.Telemetry().Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	hs := &http.Server{Handler: mux}
	log.Printf("metrics on http://%s/metrics (pprof on /debug/pprof/)", ln.Addr())
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := hs.Serve(ln); err != http.ErrServerClosed {
			log.Printf("metrics server: %v", err)
		}
	}()
	return hs
}

// shutdownMetrics stops the metrics endpoint, if one is serving.
func shutdownMetrics(ctx context.Context, hs *http.Server) {
	if hs == nil {
		return
	}
	if err := hs.Shutdown(ctx); err != nil {
		log.Printf("metrics server shutdown: %v", err)
	}
}
