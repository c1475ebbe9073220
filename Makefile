# Developer entry points. `make ci` is the full gate: formatting, vet,
# build, the spatiallint analyzer suite, the allocation floor tests, the
# complete test suite under the race detector, a fuzz smoke pass over
# the wire/SQL/WAL/snapshot/catalog/geometry/shard-map decoders, and a
# one-iteration benchmark smoke run (so benchmarks cannot silently rot).

GO ?= go

.PHONY: ci fmt-check vet build lint floors test race race-hot fuzz-smoke bench bench-smoke bench-module bench-wire obs-smoke crash-smoke cluster-smoke loc

ci: fmt-check vet build lint floors race-hot race fuzz-smoke bench-smoke bench-module obs-smoke crash-smoke cluster-smoke

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# The project's own analyzer suite (cmd/spatiallint), four rules:
# acquire => release on every path (tree pins, cursors, buffer-pool
# frames, returned release funcs), locks across blocking calls and
# lock-order cycles (interprocedural), discarded wire errors, and exact
# float comparison. Zero findings required. Goroutine joins and
# decoded-size bounds are held at run time instead, inside the test,
# race and fuzz-smoke lanes (internal/leakcheck, internal/allocbound).
# Timing budget, enforced: the CFG/summary engine must keep a warm
# full-repo run under 10s. The binary is built first so the budget
# times the analysis, not the compiler.
LINT_BUDGET_SECS ?= 10
lint:
	@$(GO) build -o /tmp/spatiallint.$$$$ ./cmd/spatiallint; \
	bin=/tmp/spatiallint.$$$$; \
	start=$$(date +%s); \
	$$bin ./... ; status=$$?; \
	end=$$(date +%s); rm -f $$bin; \
	elapsed=$$((end - start)); \
	if [ $$status -ne 0 ]; then exit $$status; fi; \
	if [ $$elapsed -gt $(LINT_BUDGET_SECS) ]; then \
		echo "lint: FAIL: spatiallint took $${elapsed}s, budget $(LINT_BUDGET_SECS)s"; exit 1; \
	fi; \
	echo "lint: clean in $${elapsed}s (budget $(LINT_BUDGET_SECS)s)"

# The allocation floors (DESIGN.md §16): the testing.AllocsPerRun
# budgets on the fetch, sweep, refine, pin, WAL and wire paths. They
# skip under the race detector, whose instrumentation allocates, so
# this lane runs them without it.
floors:
	$(GO) test -run 'Alloc(Floor|Free|Budget)' ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Focused race lane over the concurrency-heavy surfaces — the root
# package's reader/writer tests (TestConcurrentDeleteJoin among them:
# the join's read-committed contract beside a concurrent deleter, on
# the fetched and the index-decided route), the pager's
# checkpoint-under-load churn, the parallel joins' shared claim queue
# (grid tiles and subtree pairs, TestGridJoinRace and
# TestClaimQueueLongestFirst among the sjoin tests), the server
# (TestWindowSelectSkipsConcurrentlyDeletedRows among its tests: window
# SELECTs over the wire beside a deleter and an updater), window
# statements beside a concurrent deleter (TestWindowBesideDeleter: SELECT
# id, SELECT * and count(*), scoped and not, through an R-tree and a
# quadtree), count(*) over every join plan beside a concurrent deleter
# (TestJoinCountBesideDeleter: nested, subtree and grid on 1, 2 and 4
# instances, scoped and not, counted inside the join), the keyed join
# projection beside a concurrent deleter (TestKeyedJoinBesideDeleter:
# its key fetches skip a deleted row through storage's one read by
# rowid), the heap under concurrent readers and the table cursor, which
# takes the heap lock once per page and releases it between pages,
# beside concurrent inserts (TestHeapConcurrentReaders,
# TestCursorSeesConcurrentInserts), windows, nearest-neighbour queries
# and DML on one indexed table at once (TestConcurrentQueriesAndDML),
# the router's remote instances, which decode shard rows straight into the batches
# circulating between them and the gather consumer (TestScatterMergeRace:
# concurrent scatter/merge streams; TestShardLossAfterFirstBatch: a shard
# killed after its whole answer came with its query reply, so its rows
# are handed on from the cursor's first batch), the wire client's
# cursors, each reading its replies into frame buffers of its own, two
# of them on one client fetched from two goroutines
# (TestCursorsShareClient), and the parallel join — so races there fail
# fast before the full -race sweep.
race-hot:
	$(GO) test -race -run 'TestConcurrent|TestSnapshot' .
	$(GO) test -race -run 'TestWindowBesideDeleter|TestJoinCountBesideDeleter|TestKeyedJoinBesideDeleter' ./internal/sqlmini
	$(GO) test -race -run 'TestHeapConcurrentReaders|TestCursorSeesConcurrentInserts' ./internal/storage
	$(GO) test -race -run 'TestConcurrentQueriesAndDML' ./internal/extidx
	$(GO) test -race -run 'TestCheckpointUnderLoad' ./internal/pager
	$(GO) test -race -run 'TestGridJoinRace' ./internal/sjoin
	$(GO) test -race -run 'TestScatterMergeRace|TestShardLossAfterFirstBatch' ./internal/cluster
	$(GO) test -race ./internal/server ./internal/sjoin ./internal/wire

# A few seconds of coverage-guided fuzzing per target: enough to catch
# decoder regressions that panic or over-allocate on the seed corpus's
# immediate neighbourhood. Each decoder target also asserts the
# allocation bound on every input (internal/allocbound: at most
# K x input length + C bytes a decode). Long runs stay a manual
# `go test -fuzz` away.
fuzz-smoke:
	$(GO) test -run NONE -fuzz FuzzWireDecode -fuzztime 5s ./internal/wire
	$(GO) test -run NONE -fuzz FuzzParse -fuzztime 5s ./internal/sqlmini
	$(GO) test -run NONE -fuzz FuzzWALDecode -fuzztime 5s ./internal/pager
	$(GO) test -run NONE -fuzz FuzzImport -fuzztime 5s .
	$(GO) test -run NONE -fuzz FuzzCatalog -fuzztime 5s .
	$(GO) test -run NONE -fuzz FuzzGeomBinary -fuzztime 5s ./internal/geom
	$(GO) test -run NONE -fuzz FuzzParseWKT -fuzztime 5s ./internal/geom
	$(GO) test -run NONE -fuzz FuzzBoxSide -fuzztime 5s ./internal/geom
	$(GO) test -run NONE -fuzz FuzzManifest -fuzztime 5s ./internal/cluster

bench:
	$(GO) test -bench=. -benchmem ./...

# Compile-and-run smoke over every benchmark: one iteration each, no
# timing fidelity, just proof they still execute. Timings that carry a
# claim come from the repository benchmark (BENCHMARK.json, benchmark/).
# The allocs/op lane re-runs the two headline join benchmarks (the
# serial index join at each Table 2 size, and the real grid-partitioned
# join's instances on 1-8 goroutines), join_refine's two statements in
# miniature, each on a shared warm geometry cache and on a private one
# (BenchmarkSelfJoinRefine, the counties self-join at distance 7, and
# BenchmarkZonesJoinRefine, block groups × zones), the
# benchmark's join_stream and window_lookup statements in miniature (the
# point cross-match and one window SELECT over loopback,
# BenchmarkWirePointJoinStream and BenchmarkWireWindowLookup) and the secondary
# filter's kernels (one sub-benchmark per join pair shape), and the
# county generator behind three workloads' set-up (BenchmarkCounties) with
# -benchmem: allocation counts, unlike one-iteration timings,
# repeat exactly, so a regression on the fetch/sweep/refine hot paths
# shows up in CI output next to the floors lane (see DESIGN.md §16).
bench-smoke:
	$(GO) test -run NONE -bench . -benchtime 1x -count 1 ./...
	$(GO) test -run NONE -bench 'Table2IndexJoin$$|Table2GridJoin|JoinRefine|PointSelfJoinGrid|WirePointJoinStream|WireWindowLookup' -benchmem -benchtime 2x -count 1 .
	$(GO) test -run NONE -bench 'Intersects|WithinDistance|BoxSide|Refine' -benchmem -benchtime 2x -count 1 ./internal/geom
	$(GO) test -run NONE -bench 'Counties' -benchmem -benchtime 2x -count 1 ./internal/datagen

# The repository benchmark (BENCHMARK.json, benchmark/) is a module of
# its own, so the root `./...` patterns above neither vet nor test it:
# this lane does, and with it proves every workload still builds against
# the packages it drives, runs at tiny scale, and verifies its answers.
bench-module:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# End-to-end observability check: boot spatialserverd with -metrics-addr,
# run a join over the wire, scrape /metrics and assert the core series
# moved, hit pprof, then SIGTERM and require a clean drain.
obs-smoke:
	./scripts/obs_smoke.sh

# End-to-end crash recovery: boot spatialserverd on a -data-dir, load
# and mutate over the wire, SIGKILL, reboot on the same directory, and
# require identical counts and join answers after WAL redo.
crash-smoke:
	./scripts/crash_smoke.sh

# End-to-end cluster check: three shards behind spatialrouterd must
# answer counts, a cross-shard join, and a window query exactly like a
# single node; the router's /metrics must count the scatters and its
# pprof answer; SIGKILL one shard and require typed degradation
# (partial result on streams, hard failure on counts); clean SIGTERM
# drain.
cluster-smoke:
	./scripts/cluster_smoke.sh

# Wire-protocol streaming throughput (loopback server + client).
bench-wire:
	$(GO) test -run NONE -bench BenchmarkWireJoinStream -benchmem .

# Go line counts for the simplicity rule (ROADMAP.md): total and
# non-blank non-comment lines of non-test Go outside benchmark/ and
# testdata/, and the product spatiallint:ignore directives. Reporting
# only, not part of ci.
loc:
	./scripts/loc.sh
