package cluster

import (
	"errors"
	"fmt"
	"hash/fnv"
	"strings"
	"sync"
	"time"

	"spatialtf/internal/geom"
	"spatialtf/internal/sqlmini"
	"spatialtf/internal/storage"
	"spatialtf/internal/telemetry"
	"spatialtf/internal/wire"
)

// Loss policies: what a scatter query does when a shard cannot be
// reached (after retries).
const (
	// LossFail fails the whole query on the first unreachable shard.
	LossFail = "fail"
	// LossPartial streams the surviving shards' rows and ends the
	// stream with a *PartialError so the caller knows the result is
	// incomplete. Counts and writes never degrade.
	LossPartial = "partial"
)

// Typed routing errors (match with errors.Is).
var (
	// ErrDistanceExceedsMargin rejects a cluster join whose distance is
	// larger than the shard map's replication margin: the replicas
	// needed to evaluate it were never written.
	ErrDistanceExceedsMargin = errors.New("cluster: join distance exceeds the shard map's replication margin")
	// ErrNeedJoinKeys rejects a cluster join without a 'keys=' hint:
	// rowids are shard-local addresses, so a cluster join must project
	// user-key columns to mean anything.
	ErrNeedJoinKeys = errors.New("cluster: a cluster spatial_join needs a 'keys=colA:colB' hint (rowids are shard-local)")
	// ErrNearestUnsupported rejects sdo_nn: a k-nearest result is not
	// spatially decomposable across shards.
	ErrNearestUnsupported = errors.New("cluster: sdo_nn is not supported on a cluster (k-nearest does not decompose by tile)")
	// ErrGeometryUpdate rejects UPDATE of a geometry column: moving a
	// row can change its replica set, which requires a re-insert.
	ErrGeometryUpdate = errors.New("cluster: UPDATE of a geometry column is not supported (delete and re-insert to move a row)")
)

// Options tunes a Coordinator.
type Options struct {
	// DialTimeout, ReadTimeout, WriteTimeout bound shard I/O (zero = no
	// deadline, the single-node default).
	DialTimeout  time.Duration
	ReadTimeout  time.Duration
	WriteTimeout time.Duration
	// Retries is how many times a failed shard dial/request is retried
	// (transport failures only — a server-reported error is final).
	Retries int
	// RetryBackoff is the sleep before the first retry, doubling per
	// attempt. Zero selects 50ms when Retries > 0.
	RetryBackoff time.Duration
	// OnShardLoss selects LossFail (default) or LossPartial.
	OnShardLoss string
	// FetchBatch is the remote fetch batch size (0 = server default).
	FetchBatch int
	// Registry receives the coordinator's metrics (nil = disabled).
	Registry *telemetry.Registry
}

// Coordinator routes single-node SQL across a shard cluster: DDL and
// writes are broadcast or replicated by the shard map, reads scatter as
// scoped queries and gather through a parallel table function. It is
// safe for concurrent use; per-connection state lives in Session.
type Coordinator struct {
	m   *ShardMap
	opt Options

	mu      sync.Mutex
	clients []*wire.Client
	schemas map[string][]storage.Column

	tracerMu sync.Mutex
	tr       *telemetry.Tracer

	scatterTotal   *telemetry.Counter
	scatterShards  *telemetry.Counter
	shardLossTotal *telemetry.Counter
	redialTotal    *telemetry.Counter
	broadcastTotal *telemetry.Counter
	replicasTotal  *telemetry.Counter
}

// New builds a coordinator over a validated shard map.
func New(m *ShardMap, opt Options) (*Coordinator, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	switch opt.OnShardLoss {
	case "":
		opt.OnShardLoss = LossFail
	case LossFail, LossPartial:
	default:
		return nil, fmt.Errorf("cluster: unknown shard-loss policy %q (want %q or %q)", opt.OnShardLoss, LossFail, LossPartial)
	}
	if opt.Retries < 0 {
		opt.Retries = 0
	}
	if opt.RetryBackoff <= 0 {
		opt.RetryBackoff = 50 * time.Millisecond
	}
	reg := opt.Registry
	return &Coordinator{
		m:       m,
		opt:     opt,
		clients: make([]*wire.Client, len(m.Shards)),
		schemas: make(map[string][]storage.Column),
		scatterTotal: reg.NewCounter("cluster_scatter_total",
			"scatter-gather queries dispatched by the coordinator"),
		scatterShards: reg.NewCounter("cluster_scatter_shards_total",
			"per-shard cursor opens across all scatter queries"),
		shardLossTotal: reg.NewCounter("cluster_shard_loss_total",
			"shards dropped from partial-result queries after transport failures"),
		redialTotal: reg.NewCounter("cluster_redial_total",
			"shard reconnect attempts after transport failures"),
		broadcastTotal: reg.NewCounter("cluster_broadcast_total",
			"statements broadcast to every shard (DDL, DELETE, UPDATE)"),
		replicasTotal: reg.NewCounter("cluster_insert_replicas_total",
			"row replicas written by INSERT routing"),
	}, nil
}

// Map returns the shard map the coordinator routes by.
func (c *Coordinator) Map() *ShardMap { return c.m }

// SetTracer attaches the query tracer scatter/merge spans report to
// (typically the serving layer's tracer, attached after the server is
// built so both observe the same registry).
func (c *Coordinator) SetTracer(tr *telemetry.Tracer) {
	c.tracerMu.Lock()
	c.tr = tr
	c.tracerMu.Unlock()
}

func (c *Coordinator) tracer() *telemetry.Tracer {
	c.tracerMu.Lock()
	defer c.tracerMu.Unlock()
	return c.tr
}

// Close drops every shard connection.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var first error
	for i, cl := range c.clients {
		if cl != nil {
			if err := cl.Close(); err != nil && first == nil {
				first = err
			}
			c.clients[i] = nil
		}
	}
	return first
}

// client returns the cached connection to a shard, dialling on first
// use (and after dropClient).
func (c *Coordinator) client(shard int) (*wire.Client, error) {
	c.mu.Lock()
	cl := c.clients[shard]
	c.mu.Unlock()
	if cl != nil {
		return cl, nil
	}
	// Dial unlocked: a slow or dead shard must not stall lookups for
	// the healthy ones. Concurrent first dials to the same shard race
	// benignly — the loser closes its connection and adopts the winner's.
	nc, err := wire.DialWith(c.m.Shards[shard], wire.Options{
		DialTimeout:  c.opt.DialTimeout,
		ReadTimeout:  c.opt.ReadTimeout,
		WriteTimeout: c.opt.WriteTimeout,
	})
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if cl := c.clients[shard]; cl != nil {
		c.mu.Unlock()
		nc.Close()
		return cl, nil
	}
	c.clients[shard] = nc
	c.mu.Unlock()
	return nc, nil
}

// dropClient discards a shard's cached connection after a transport
// failure so the next use redials instead of reusing a dead socket.
func (c *Coordinator) dropClient(shard int) {
	c.mu.Lock()
	cl := c.clients[shard]
	c.clients[shard] = nil
	c.mu.Unlock()
	if cl != nil {
		cl.Close()
	}
}

// shardQuery runs one request against one shard with bounded
// retry+backoff on transport failures. A *wire.RemoteError is the
// server answering — final, never retried. The returned error is
// already wrapped as a *ShardError.
func (c *Coordinator) shardQuery(shard int, run func(cl *wire.Client) (*wire.QueryResult, error)) (*wire.QueryResult, error) {
	var lastErr error
	backoff := c.opt.RetryBackoff
	for attempt := 0; attempt <= c.opt.Retries; attempt++ {
		if attempt > 0 {
			c.redialTotal.Inc()
			time.Sleep(backoff)
			backoff *= 2
		}
		cl, err := c.client(shard)
		if err != nil {
			lastErr = err
			continue
		}
		res, err := run(cl)
		if err == nil {
			return res, nil
		}
		if _, remote := err.(*wire.RemoteError); remote {
			return nil, &ShardError{Shard: shard, Addr: c.m.Shards[shard], Err: err}
		}
		c.dropClient(shard)
		lastErr = err
	}
	return nil, &ShardError{Shard: shard, Addr: c.m.Shards[shard], Err: lastErr}
}

// plainQuery runs an unscoped statement on one shard.
func (c *Coordinator) plainQuery(shard int, sql string) (*wire.QueryResult, error) {
	return c.shardQuery(shard, func(cl *wire.Client) (*wire.QueryResult, error) {
		return cl.Query(sql)
	})
}

// scopedQuery runs a statement on one shard under its cluster scope.
func (c *Coordinator) scopedQuery(shard int, sql string) (*wire.QueryResult, error) {
	return c.shardQuery(shard, func(cl *wire.Client) (*wire.QueryResult, error) {
		return cl.QueryScoped(sql, c.m.Scope(shard))
	})
}

// homeShard places a table's non-spatial rows: stable hash of the
// table name (no geometry column means no spatial placement).
func (c *Coordinator) homeShard(table string) int {
	h := fnv.New32a()
	h.Write([]byte(strings.ToLower(table)))
	return int(h.Sum32() % uint32(len(c.m.Shards)))
}

// tableSchema discovers (and caches) a table's schema by opening a
// zero-cost scan cursor on the first reachable shard. DDL is broadcast,
// so every shard agrees on it.
func (c *Coordinator) tableSchema(table string) ([]storage.Column, error) {
	key := strings.ToLower(table)
	c.mu.Lock()
	cached, ok := c.schemas[key]
	c.mu.Unlock()
	if ok {
		return cached, nil
	}
	var lastErr error
	for shard := range c.m.Shards {
		res, err := c.plainQuery(shard, "SELECT * FROM "+table)
		if err != nil {
			if errors.As(err, new(*wire.RemoteError)) {
				return nil, err // the server answered: table is missing
			}
			lastErr = err
			continue
		}
		if res.Cursor == nil {
			return nil, fmt.Errorf("cluster: shard %d answered a scan of %q without a cursor", shard, table)
		}
		schema := res.Cursor.Columns()
		res.Cursor.Close()
		c.mu.Lock()
		c.schemas[key] = schema
		c.mu.Unlock()
		return schema, nil
	}
	return nil, fmt.Errorf("cluster: no shard reachable to describe table %q: %w", table, lastErr)
}

// invalidateSchema drops a table's cached schema (after DDL).
func (c *Coordinator) invalidateSchema(table string) {
	c.mu.Lock()
	delete(c.schemas, strings.ToLower(table))
	c.mu.Unlock()
}

// geomColumn returns the index of the first GEOMETRY column, -1 if
// none.
func geomColumn(schema []storage.Column) int {
	for i, col := range schema {
		if col.Type == storage.TGeometry {
			return i
		}
	}
	return -1
}

// NewSession opens one routed session. Sessions share the
// coordinator's shard connections; each is used by one goroutine at a
// time (the server's per-connection contract).
func (c *Coordinator) NewSession() *Session {
	return &Session{co: c}
}

// Session is the per-connection face of the coordinator: it satisfies
// the serving layer's Session contract, so a router daemon speaks the
// exact wire protocol of a single node.
type Session struct {
	co *Coordinator
}

// Close releases per-session state (none: connections belong to the
// coordinator).
func (s *Session) Close() error { return nil }

// ExecuteStream routes one statement across the cluster.
func (s *Session) ExecuteStream(sql string) (*sqlmini.Stream, error) {
	c := s.co
	stmt, err := sqlmini.Parse(sql)
	if err != nil {
		return nil, err
	}
	switch st := stmt.(type) {
	case sqlmini.CreateTable:
		c.invalidateSchema(st.Name)
		return c.broadcastAgree(sql)
	case sqlmini.CreateIndex:
		return c.broadcastAgree(sql)
	case sqlmini.Insert:
		return c.routeInsert(sql, st)
	case sqlmini.Delete:
		if st.Where != nil && st.Where.Op == "nearest" {
			return nil, ErrNearestUnsupported
		}
		return c.broadcastCounted(sql, "deleted")
	case sqlmini.Update:
		if st.Where != nil && st.Where.Op == "nearest" {
			return nil, ErrNearestUnsupported
		}
		if err := c.checkUpdateColumns(st); err != nil {
			return nil, err
		}
		return c.broadcastCounted(sql, "updated")
	case sqlmini.Select:
		return c.routeSelect(sql, st)
	default:
		return nil, fmt.Errorf("cluster: statement %T is not routable", stmt)
	}
}

// broadcastAgree runs a statement on every shard; all must succeed
// (cluster DDL is all-or-error, there is no partial CREATE).
func (c *Coordinator) broadcastAgree(sql string) (*sqlmini.Stream, error) {
	c.broadcastTotal.Inc()
	var msg string
	for shard := range c.m.Shards {
		res, err := c.plainQuery(shard, sql)
		if err != nil {
			return nil, err
		}
		msg = res.Message
	}
	return messageStream(fmt.Sprintf("%s (on %d shards)", msg, len(c.m.Shards))), nil
}

// broadcastCounted broadcasts a DELETE/UPDATE and sums the per-shard
// row counts. The sum counts replica rows, so with a replication
// margin it can exceed the logical row count; the message says so.
func (c *Coordinator) broadcastCounted(sql, verb string) (*sqlmini.Stream, error) {
	c.broadcastTotal.Inc()
	total := 0
	for shard := range c.m.Shards {
		res, err := c.plainQuery(shard, sql)
		if err != nil {
			return nil, err
		}
		var n int
		if _, err := fmt.Sscanf(res.Message, "%d rows", &n); err == nil {
			total += n
		}
	}
	return messageStream(fmt.Sprintf("%d replica rows %s across %d shards", total, verb, len(c.m.Shards))), nil
}

// checkUpdateColumns rejects geometry-column SETs (they would change
// the row's replica set).
func (c *Coordinator) checkUpdateColumns(st sqlmini.Update) error {
	schema, err := c.tableSchema(st.Table)
	if err != nil {
		return err
	}
	for _, set := range st.Sets {
		for _, col := range schema {
			if strings.EqualFold(col.Name, set.Column) && col.Type == storage.TGeometry {
				return fmt.Errorf("%w (column %q of table %q)", ErrGeometryUpdate, set.Column, st.Table)
			}
		}
	}
	return nil
}

// routeInsert replicates one row to every shard whose tiles its
// geometry's margin-grown MBR touches; rows without geometry go to the
// table's home shard. All replica writes must succeed.
func (c *Coordinator) routeInsert(sql string, st sqlmini.Insert) (*sqlmini.Stream, error) {
	schema, err := c.tableSchema(st.Table)
	if err != nil {
		return nil, err
	}
	gi := geomColumn(schema)
	var targets []int
	switch {
	case gi < 0:
		targets = []int{c.homeShard(st.Table)}
	case gi >= len(st.Values) || !st.Values[gi].IsString:
		return nil, fmt.Errorf("cluster: INSERT into %q needs a WKT literal for geometry column %q to route it", st.Table, schema[gi].Name)
	default:
		g, err := geom.ParseWKT(st.Values[gi].Str)
		if err != nil {
			return nil, fmt.Errorf("cluster: INSERT geometry: %w", err)
		}
		targets = c.m.ShardsForMBR(geom.MBROf(g), c.m.Margin)
	}
	for _, shard := range targets {
		if _, err := c.plainQuery(shard, sql); err != nil {
			return nil, err
		}
	}
	c.replicasTotal.Add(int64(len(targets)))
	return messageStream(fmt.Sprintf("1 row inserted (%d replicas)", len(targets))), nil
}

// routeSelect scatters a read. Window/distance predicates prune the
// shard set by the query MBR; scans and joins touch every shard.
func (c *Coordinator) routeSelect(sql string, st sqlmini.Select) (*sqlmini.Stream, error) {
	targets := c.m.AllShards()
	if st.From.Join != nil {
		call := st.From.Join
		if call.Distance > c.m.Margin {
			return nil, fmt.Errorf("%w (distance %g, margin %g)", ErrDistanceExceedsMargin, call.Distance, c.m.Margin)
		}
		if !st.Count && call.KeyA == "" {
			return nil, ErrNeedJoinKeys
		}
	} else if st.Where != nil {
		if st.Where.Op == "nearest" {
			return nil, ErrNearestUnsupported
		}
		q, err := geom.ParseWKT(st.Where.QueryWKT)
		if err != nil {
			return nil, fmt.Errorf("cluster: query geometry: %w", err)
		}
		d := 0.0
		if st.Where.Op == "withindistance" {
			d = st.Where.Distance
		}
		targets = c.m.ShardsForMBR(geom.MBROf(q), d)
	}
	if st.Count {
		return c.scatterCount(sql, targets)
	}
	return c.scatterStream(sql, targets)
}

// scatterCount sums the shard-local counts of a scoped COUNT. Any
// shard failure fails the query — a partial count is a wrong number,
// not a degraded one, so the loss policy does not apply here.
func (c *Coordinator) scatterCount(sql string, targets []int) (*sqlmini.Stream, error) {
	c.scatterTotal.Inc()
	total := int64(0)
	for _, shard := range targets {
		res, err := c.scopedQuery(shard, sql)
		if err != nil {
			return nil, err
		}
		if !res.HasCount {
			return nil, fmt.Errorf("cluster: shard %d answered a COUNT without a count", shard)
		}
		total += res.Count
	}
	return &sqlmini.Stream{Result: sqlmini.CountResult(int(total))}, nil
}

// scatterStream opens one scoped cursor per target shard and merges
// them through a parallel table function — the remote instances ARE
// the paper's parallel table function, with the network inside Fetch.
func (c *Coordinator) scatterStream(sql string, targets []int) (*sqlmini.Stream, error) {
	c.scatterTotal.Inc()
	trace := c.tracer().Begin("cluster scatter: " + truncateSQL(sql))
	var tracker *lossTracker
	if c.opt.OnShardLoss == LossPartial {
		tracker = &lossTracker{}
	}
	var tfs []*remoteTF
	var schema []storage.Column
	abort := func() {
		for _, tf := range tfs {
			tf.Close()
		}
		trace.Finish()
	}
	for _, shard := range targets {
		end := trace.Span(telemetry.StageScatter)
		res, err := c.scopedQuery(shard, sql)
		end()
		if err != nil {
			var se *ShardError
			transient := errors.As(err, &se) && !errors.As(err, new(*wire.RemoteError))
			if transient && tracker != nil {
				c.shardLossTotal.Inc()
				tracker.record(se)
				continue
			}
			abort()
			return nil, err
		}
		if res.Cursor == nil {
			abort()
			return nil, fmt.Errorf("cluster: shard %d answered a streaming SELECT with an immediate result", shard)
		}
		c.scatterShards.Inc()
		if schema == nil {
			schema = res.Cursor.Columns()
		}
		tfs = append(tfs, &remoteTF{
			co:      c,
			shard:   shard,
			addr:    c.m.Shards[shard],
			cur:     res.Cursor,
			tracker: tracker,
		})
	}
	if len(tfs) == 0 {
		trace.Finish()
		if tracker != nil {
			if pe := tracker.partial(); pe != nil {
				return nil, pe
			}
		}
		return nil, fmt.Errorf("cluster: no shard produced a cursor for %q", truncateSQL(sql))
	}
	return &sqlmini.Stream{
		Schema: schema,
		Cursor: gather(c, tfs, tracker, trace),
	}, nil
}

// messageStream wraps a routing outcome as an immediate result.
func messageStream(msg string) *sqlmini.Stream {
	return &sqlmini.Stream{Result: &sqlmini.Result{Message: msg}}
}

// truncateSQL bounds a statement for trace labels.
func truncateSQL(sql string) string {
	if len(sql) > 64 {
		return sql[:61] + "..."
	}
	return sql
}
