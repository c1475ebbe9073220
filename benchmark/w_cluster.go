package main

import (
	"fmt"
	"time"

	"spatialtf"
	"spatialtf/internal/cluster"
	"spatialtf/internal/server"
	"spatialtf/internal/sqlmini"
	"spatialtf/internal/telemetry"
	"spatialtf/internal/wire"
)

// routerBackend adapts the coordinator to server.Backend, as
// cmd/spatialrouterd does.
type routerBackend struct{ co *cluster.Coordinator }

func (b routerBackend) NewSession() server.Session         { return b.co.NewSession() }
func (b routerBackend) MetricsSnapshot() []telemetry.Point { return b.co.MetricsSnapshot() }

// clusterInstance is the 3-shard cluster behind a router.
type clusterInstance struct {
	shards []*listener
	co     *cluster.Coordinator
	router *listener
	load   []string // the statements that built the cluster's tables
	rows   int
}

// clusterJoin is the keyed join the router scatters; rowids are
// shard-local, so a cluster join projects user keys.
var clusterJoin = joinDef{name: "bl_d3_br", a: "bl", b: "br", pred: "distance=3", dist: 3, keys: "id:id"}

func setupClusterMixed(rc runConfig) (*instance, error) {
	nCounties, nSmall, perJoin, checkOneIn, joins := 225, 625, 100, 100, 165
	if rc.tiny {
		nCounties, nSmall, perJoin, checkOneIn, joins = 36, 100, 20, 5, 4
	}
	ci := &clusterInstance{}
	fail := func(err error) (*instance, error) {
		ci.close()
		return nil, err
	}
	const nShards = 3
	addrs := make([]string, nShards)
	for i := range addrs {
		db := spatialtf.Open()
		rc.tr.attachDB(db)
		ln, err := serveDB(db)
		if err != nil {
			return fail(err)
		}
		ci.shards = append(ci.shards, ln)
		addrs[i] = ln.addr
	}
	co, err := cluster.New(&cluster.ShardMap{
		Bounds: spatialtf.World, Cols: 4, Rows: 4, Margin: 6, Shards: addrs,
	}, cluster.Options{DialTimeout: 5 * time.Second, ReadTimeout: 60 * time.Second, Registry: rc.tr.registry()})
	if err != nil {
		return fail(err)
	}
	ci.co = co
	rc.tr.attachCoordinator(co)
	if ci.router, err = serve(server.NewWith(routerBackend{co}, server.Config{})); err != nil {
		return fail(err)
	}

	// Both tables go in through the router, statement by statement, so
	// margin replication is paid (and priced in setup_s).
	ci.load = append(datasetInserts("bl", spatialtf.Counties(nCounties, rc.seed)),
		datasetInserts("br", spatialtf.Counties(nSmall, rc.seed+1))...)
	ci.rows = nCounties + nSmall
	cli, err := wire.Dial(ci.router.addr)
	if err != nil {
		return fail(err)
	}
	for _, sql := range ci.load {
		if _, _, err := execOp(cli, sql); err != nil {
			cli.Close()
			return fail(fmt.Errorf("cluster load %q: %w", clip(sql), err))
		}
	}
	cli.Close()

	// One keyed join per perJoin window statements. sdo_nn does not
	// decompose by tile, so the router refuses it and the list has none.
	gen := newWindowGen(rc.seed+5, "bl", "br")
	rng := gen.rng
	var ops []op
	for j := 0; j < 16; j++ {
		ops = append(ops, op{sql: clusterJoin.sql(false), class: primary, check: true,
			q: query{kind: qJoin, table: clusterJoin.name}})
		for i := 0; i < perJoin; i++ {
			check := rng.Intn(checkOneIn) == 0
			if rng.Intn(5) == 0 {
				ops = append(ops, gen.within(check, secondary))
			} else {
				ops = append(ops, gen.relate(check, secondary))
			}
		}
	}
	return &instance{
		addr:  ci.router.addr,
		plan:  clientPlan{src: cycle(ops), warm: perJoin + 1},
		stmts: joins * (perJoin + 1),
		sizes: map[string]any{
			"shards": nShards, "grid": "4x4", "margin": 6, "bl_counties": nCounties, "br_counties": nSmall,
			"windows_per_join": perJoin, "op_list": len(ops), "checked_one_in": checkOneIn,
			"rows_loaded_through_router": ci.rows,
		},
		verify: ci.verify,
		ladder: func(tr *tracer, rc runConfig) error { return ci.ladder(tr, rc) },
		close:  ci.close,
	}, nil
}

// verify loads a single-node database with the same statements and
// requires the cluster's answers to equal its answers.
func (ci *clusterInstance) verify(log *clientLog) (verdict, error) {
	var v verdict
	single := sqlmini.NewEngineOn(spatialtf.Open())
	for _, sql := range ci.load {
		if _, err := single.Execute(sql); err != nil {
			return v, fmt.Errorf("single-node load: %w", err)
		}
	}
	memo := map[string]result{}
	for _, a := range log.answers {
		want, ok := memo[a.op.sql]
		if !ok {
			res, err := single.Execute(a.op.sql)
			if err != nil {
				return v, fmt.Errorf("single-node %q: %w", clip(a.op.sql), err)
			}
			want.rows = len(res.Rows)
			for _, r := range res.Rows {
				want.sum += hashCells(r...)
			}
			memo[a.op.sql] = want
		}
		v.checked++
		if a.rows != want.rows || a.sum != want.sum {
			v.wrong++
			v.note("kind %d on %s: cluster %d rows, single node %d", a.op.q.kind, a.op.q.table, a.rows, want.rows)
		}
	}
	return v, nil
}

func (ci *clusterInstance) close() {
	if ci.router != nil {
		ci.router.shutdown()
	}
	if ci.co != nil {
		_ = ci.co.Close() // shard connections; the shards stop next
	}
	for _, s := range ci.shards {
		s.shutdown()
	}
}
