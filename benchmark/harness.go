package main

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"slices"
	"strconv"
	"time"

	"spatialtf/internal/geom"
	"spatialtf/internal/server"
	"spatialtf/internal/storage"
	"spatialtf/internal/wire"
)

// Statement classes. Every workload sorts its statements into a primary
// class (the one the workload is named for) and a secondary class (the
// statement that runs between them), so the same end-to-end metric names
// mean something on all five workloads.
const (
	primary   = 0
	secondary = 1
)

type queryKind uint8

const (
	qJoin      queryKind = iota // streamed spatial_join rows
	qJoinCount                  // count(*) over the same spatial_join
	qRelate                     // sdo_relate window
	qWithin                     // sdo_within_distance
	qNearest                    // sdo_nn
	qInsert
	qUpdate
	qDelete
)

// query is what a statement asks, kept beside its SQL text so the
// verifier can compute the reference answer without parsing SQL.
type query struct {
	kind  queryKind
	table string        // window statements: the table; joins: the join name
	wkt   string        // window statements: the window as the statement spells it
	g     geom.Geometry // window polygon or query point
	d     float64       // within-distance / join distance
	k     int           // sdo_nn k
	id    int64         // insert: the row id
	name  string        // insert/update: the name written
	bytes int           // insert: size of the stored row image
}

// op is one statement of a client's list.
type op struct {
	sql   string
	class uint8
	check bool  // the answer is compared with a reference after the timed phase
	q     query // meaningful when check is set
}

// opSource yields the client's i-th statement. List-backed sources
// cycle; the ingest client composes statements on demand (its INSERT
// texts are too large to hold at once).
type opSource func(i int) *op

func cycle(ops []op) opSource {
	return func(i int) *op { return &ops[i%len(ops)] }
}

// clientPlan is the workload's one closed-loop client: it sends its next
// statement when the previous one is fully drained. One connection and
// one statement in flight, so a latency is the statement's own service
// time and never a wait behind another client (the benchmark runs on one
// processor; main.go says why).
type clientPlan struct {
	src  opSource
	warm int // leading statements run during set-up, before timing
	// composed marks a source that builds each statement on demand; its
	// SQL text is dropped once sent, so a long run does not hold every
	// INSERT it ever composed.
	composed bool
}

// answer is what a checked statement returned.
type answer struct {
	op   *op
	rows int
	sum  uint64 // order-independent checksum of the rows
}

// sample is one completed statement.
type sample struct {
	lat  int64 // nanoseconds, statement sent -> last row drained
	rows int32
}

// clientLog is everything the client observed in the timed phase.
type clientLog struct {
	samples [2][]sample // per class
	answers []answer
	n       int
	failed  int
	errs    []string
}

func (l *clientLog) fail(err error) {
	l.failed++
	if len(l.errs) < 3 {
		l.errs = append(l.errs, err.Error())
	}
}

// execOp sends one statement and drains its result.
func execOp(cli *wire.Client, sql string) (rows int, sum uint64, err error) {
	res, err := cli.Query(sql)
	if err != nil {
		return 0, 0, err
	}
	if res.Cursor == nil {
		if len(res.Rows) > 0 {
			for _, r := range res.Rows {
				sum += hashCells(r...)
			}
			return len(res.Rows), sum, nil
		}
		// DML: "3 rows deleted", "1 row inserted (2 replicas)", ...
		return leadingInt(res.Message), 0, nil
	}
	var scratch []byte
	for {
		batch, done, err := res.Cursor.Fetch(0)
		if err != nil {
			return rows, sum, err
		}
		for _, row := range batch {
			var h uint64
			h, scratch = hashRow(row, scratch)
			sum += h
		}
		rows += len(batch)
		if done {
			return rows, sum, nil
		}
	}
}

// leadingInt is the number a DML message starts with (0 if none).
func leadingInt(s string) int {
	i := 0
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		i++
	}
	n, _ := strconv.Atoi(s[:i]) // digits only; "" gives 0
	return n
}

// FNV-1a over the cells' text with a separator, then a finalizer, so a
// sum of row hashes is an order-independent checksum that still tells
// {ab,c} from {a,bc}.
func hashBytes(h uint64, b []byte) uint64 {
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return (h ^ 0xff) * 1099511628211
}

func mix(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

const fnvOffset = 14695981039346656037

func hashCells(cells ...string) uint64 {
	h := uint64(fnvOffset)
	for _, c := range cells {
		h = hashBytes(h, []byte(c))
	}
	return mix(h)
}

// hashRow hashes a wire row exactly as hashCells hashes its text form.
func hashRow(row storage.Row, scratch []byte) (uint64, []byte) {
	h := uint64(fnvOffset)
	for _, v := range row {
		switch v.Type {
		case storage.TString:
			scratch = append(scratch[:0], v.S...)
		case storage.TInt64:
			scratch = strconv.AppendInt(scratch[:0], v.I, 10)
		default:
			scratch = append(scratch[:0], v.String()...)
		}
		h = hashBytes(h, scratch)
	}
	return mix(h), scratch
}

// warmUp runs the plan's warm-up statements on a connection of its own.
func warmUp(addr string, plan clientPlan) error {
	cli, err := wire.Dial(addr)
	if err != nil {
		return err
	}
	defer cli.Close()
	for i := 0; i < plan.warm; i++ {
		o := plan.src(i)
		if _, _, err := execOp(cli, o.sql); err != nil {
			return fmt.Errorf("warm-up %q: %w", clip(o.sql), err)
		}
	}
	return nil
}

// runClient drives the plan from its first statement for maxOps
// statements, or until d has passed, whichever comes first. It returns
// what the client saw and the wall time of the loop.
func runClient(addr string, plan clientPlan, d time.Duration, maxOps int) (*clientLog, time.Duration, error) {
	cli, err := wire.Dial(addr)
	if err != nil {
		return nil, 0, err
	}
	defer cli.Close()
	log := &clientLog{}
	t0 := time.Now()
	for log.n < maxOps && time.Since(t0) < d {
		o := plan.src(log.n)
		start := time.Now()
		rows, sum, err := execOp(cli, o.sql)
		lat := time.Since(start)
		log.n++
		if err != nil {
			log.fail(fmt.Errorf("%q: %w", clip(o.sql), err))
			continue
		}
		if plan.composed {
			o.sql = ""
		}
		log.samples[o.class] = append(log.samples[o.class],
			sample{lat: int64(lat), rows: int32(rows)})
		if o.check {
			log.answers = append(log.answers, answer{op: o, rows: rows, sum: sum})
		}
	}
	return log, time.Since(t0), nil
}

func clip(s string) string {
	if len(s) > 96 {
		return s[:93] + "..."
	}
	return s
}

// timedPhase runs a share of a run (1 = all of it): that share of the
// workload's frozen statement count, or until that share of the run
// length is over, whichever comes first.
func timedPhase(inst *instance, rc runConfig, share float64) (*clientLog, time.Duration, error) {
	maxOps := rc.maxOps
	if maxOps == 0 {
		maxOps = max(1, int(share*rc.seconds/refSeconds*float64(inst.stmts)))
	}
	src, warm := inst.plan.src, inst.plan.warm
	timed := clientPlan{composed: inst.plan.composed, src: func(i int) *op { return src(i + warm) }}
	return runClient(inst.addr, timed, time.Duration(share*rc.seconds*float64(time.Second)), maxOps)
}

// listener is a served stack's front door: a server on a loopback port.
type listener struct {
	srv  *server.Server
	ln   net.Listener
	addr string
	done chan struct{}
}

func serve(srv *server.Server) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{srv: srv, ln: ln, addr: ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		_ = srv.Serve(ln) // returns ErrServerClosed after shutdown
	}()
	return l, nil
}

// shutdown stops the server and waits for its accept loop and handlers.
func (l *listener) shutdown() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = l.srv.Shutdown(ctx) // a timeout force-closes; nothing else to do with it
	// Shutdown closes only a listener Serve has already registered; one
	// called right after serve() can miss it, and Accept would block on.
	_ = l.ln.Close()
	<-l.done
}

// percentile is the nearest-rank percentile of sorted nanosecond
// samples, in milliseconds; 0 when there are none.
func percentile(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p/100*float64(len(sorted))+0.999999) - 1
	rank = min(max(rank, 0), len(sorted)-1)
	return float64(sorted[rank]) / 1e6
}

// heapLiveMB is HeapAlloc after a forced collection.
func heapLiveMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
