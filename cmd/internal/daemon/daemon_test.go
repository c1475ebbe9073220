package daemon

import (
	"bytes"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"spatialtf"
	"spatialtf/internal/server"
	"spatialtf/internal/wire"
)

// logSink captures the standard logger, which Run's goroutines write
// to while the test reads.
type logSink struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *logSink) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

func (l *logSink) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

func captureLog(t *testing.T) *logSink {
	t.Helper()
	sink := &logSink{}
	log.SetOutput(sink)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
	return sink
}

// waitFor polls cond until it holds or a few seconds pass.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// get fetches url on a connection of its own, so no idle keep-alive
// outlives the test.
func get(url string) (int, string, error) {
	cl := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := cl.Get(url)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body), err
}

// TestRunServesAndDrains runs the loop over an in-memory database on
// ephemeral ports: one query answers over the wire, /metrics and pprof
// answer, and a signal on the stop channel shuts the server down, then
// the metrics endpoint, then calls the hook, and Run returns after
// logging the exit stats line.
func TestRunServesAndDrains(t *testing.T) {
	logs := captureLog(t)
	db := spatialtf.Open()
	defer db.Close()
	if _, err := db.LoadDataset("counties", spatialtf.Counties(16, 1)); err != nil {
		t.Fatal(err)
	}
	srv := server.New(db, server.Config{})
	f := &Flags{Addr: "127.0.0.1:0", MetricsAddr: "127.0.0.1:0", DrainTimeout: 5 * time.Second}
	stop := make(chan os.Signal, 1)
	hookErr := make(chan string, 1)
	var addr, metrics string
	ran := make(chan error, 1)
	go func() {
		ran <- Run(srv, f, stop, "served", func() {
			// By now the listener and the metrics endpoint are closed.
			var problems []string
			if c, err := net.Dial("tcp", addr); err == nil {
				c.Close()
				problems = append(problems, "server still accepts connections")
			}
			if _, _, err := get("http://" + metrics + "/metrics"); err == nil {
				problems = append(problems, "metrics endpoint still answers")
			}
			hookErr <- strings.Join(problems, "; ")
		})
	}()

	waitFor(t, "the server to listen", func() bool { return srv.Addr() != nil })
	addr = srv.Addr().String()
	metricsLine := regexp.MustCompile(`metrics on http://(\S+)/metrics`)
	waitFor(t, "the metrics endpoint", func() bool { return metricsLine.MatchString(logs.String()) })
	metrics = metricsLine.FindStringSubmatch(logs.String())[1]

	cli, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cli.Query("SELECT count(*) FROM counties")
	if err != nil {
		t.Fatal(err)
	}
	if !res.HasCount || res.Count != 16 {
		t.Errorf("count(*) = %+v, want 16", res)
	}
	cli.Close()

	code, body, err := get("http://" + metrics + "/metrics")
	if err != nil || code != http.StatusOK || !strings.Contains(body, "server_queries_total 1") {
		t.Errorf("/metrics: status %d, err %v, body:\n%s", code, err, body)
	}
	if code, _, err := get("http://" + metrics + "/debug/pprof/"); err != nil || code != http.StatusOK {
		t.Errorf("/debug/pprof/: status %d, err %v", code, err)
	}

	stop <- syscall.SIGTERM
	select {
	case err := <-ran:
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after the stop signal")
	}
	select {
	case p := <-hookErr:
		if p != "" {
			t.Errorf("hook ran before the drain finished: %s", p)
		}
	default:
		t.Error("Run returned without calling the hook")
	}
	out := logs.String()
	for _, want := range []string{"received terminated; draining connections (limit 5s)", "served 1 queries, 0 rows streamed over 0 fetches, 1 connections"} {
		if !strings.Contains(out, want) {
			t.Errorf("log lacks %q:\n%s", want, out)
		}
	}
}

// TestRunListenFailure: an address already taken ends Run with the
// listen error, the metrics endpoint stopped and the hook not called.
func TestRunListenFailure(t *testing.T) {
	captureLog(t)
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	srv := server.New(spatialtf.Open(), server.Config{})
	f := &Flags{Addr: taken.Addr().String(), MetricsAddr: "127.0.0.1:0", DrainTimeout: time.Second}
	err = Run(srv, f, make(chan os.Signal), "served", func() { t.Error("hook called after a listen failure") })
	if err == nil || !strings.Contains(err.Error(), "address already in use") {
		t.Errorf("Run on a taken address: %v", err)
	}
}
