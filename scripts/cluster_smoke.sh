#!/bin/sh
# Cluster smoke test: boot three spatialserverd shards and a
# spatialrouterd in front of them, check that scatter-gather answers
# over the router match a single node bit for bit (counts, a
# cross-shard spatial join, a window query), then SIGKILL one shard and
# require typed degradation — a partial-result error on streams, a hard
# error on counts, never a hang or a silently short answer — and a
# clean SIGTERM drain of everything left. The router's /metrics must
# count the scatters and its pprof must answer. Dependency-free: POSIX
# sh + curl.
set -eu

cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
pids=""
cleanup() {
	for p in $pids; do kill "$p" 2>/dev/null || true; done
	rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

go build -o "$tmp/spatialserverd" ./cmd/spatialserverd
go build -o "$tmp/spatialrouterd" ./cmd/spatialrouterd
go build -o "$tmp/spatialsql" ./cmd/spatialsql

# Every shard holds a full replica of the two datasets; the scoped
# scatter protocol must still return each result exactly once.
loads="-load counties:240:1 -load stars:400:2"
shard_addrs="127.0.0.1:7951,127.0.0.1:7952,127.0.0.1:7953"
router="127.0.0.1:7950"
router_metrics="127.0.0.1:7958"
single="127.0.0.1:7959"

for port in 7951 7952 7953 7959; do
	# shellcheck disable=SC2086
	"$tmp/spatialserverd" -addr "127.0.0.1:$port" $loads \
		>"$tmp/shard-$port.log" 2>&1 &
	pids="$pids $!"
	eval "pid_$port=$!"
done

"$tmp/spatialrouterd" -addr "$router" -manifest "$tmp/cluster.stf" \
	-shards "$shard_addrs" -bounds 0,0,1000,1000 -grid 8x8 -margin 6 \
	-retries 1 -retry-backoff 20ms -on-shard-loss partial \
	-metrics-addr "$router_metrics" \
	>"$tmp/router.log" 2>&1 &
router_pid=$!
pids="$pids $router_pid"

run_sql() { # addr sql -> combined output
	printf '%s;\n\\q\n' "$2" | "$tmp/spatialsql" -connect "$1" 2>&1
}

wait_up() { # addr
	i=0
	until run_sql "$1" 'SELECT count(*) FROM counties' | grep -q '(1 rows)'; do
		i=$((i + 1))
		if [ "$i" -ge 100 ]; then
			echo "cluster-smoke: $1 never became ready" >&2
			cat "$tmp"/*.log >&2
			exit 1
		fi
		sleep 0.1
	done
}
wait_up "$single"
wait_up "$router"

# The router must answer exactly like one node. Row order across a
# parallel merge is not deterministic, so compare sorted rows.
norm() { grep -v '^elapsed:' | sort; }
for sql in \
	'SELECT count(*) FROM counties' \
	"SELECT count(*) FROM TABLE(spatial_join('counties','geom','stars','geom','distance=5'))" \
	"SELECT id, name FROM counties WHERE sdo_within_distance(geom, 'POINT (500 500)', 'distance=150') = 'TRUE'"; do
	run_sql "$single" "$sql" | norm >"$tmp/want.txt"
	run_sql "$router" "$sql" | norm >"$tmp/got.txt"
	if grep -q '^error:' "$tmp/got.txt"; then
		echo "cluster-smoke: router errored on: $sql" >&2
		cat "$tmp/got.txt" >&2
		exit 1
	fi
	if ! cmp -s "$tmp/want.txt" "$tmp/got.txt"; then
		echo "cluster-smoke: router answer differs from single node for: $sql" >&2
		diff "$tmp/want.txt" "$tmp/got.txt" >&2 || true
		exit 1
	fi
	if [ "$(wc -l <"$tmp/got.txt")" -lt 2 ]; then
		echo "cluster-smoke: suspiciously empty answer for: $sql" >&2
		cat "$tmp/got.txt" >&2
		exit 1
	fi
done

# The router's observability endpoint: the queries above scattered, so
# its scatter counter has moved, and pprof answers on the same mux.
scrape="$tmp/router-metrics.txt"
curl -fsS "http://$router_metrics/metrics" >"$scrape" || {
	echo "cluster-smoke: router /metrics not serving" >&2
	cat "$tmp/router.log" >&2
	exit 1
}
grep -q '^cluster_scatter_total [1-9]' "$scrape" || {
	echo "cluster-smoke: router /metrics has no cluster_scatter_total >= 1:" >&2
	cat "$scrape" >&2
	exit 1
}
curl -fsS "http://$router_metrics/debug/pprof/" >/dev/null || {
	echo "cluster-smoke: router pprof endpoint not serving" >&2
	exit 1
}

# Crash one shard. Streams must now end in a typed partial-result
# error (the surviving shards' rows still flow), and counts must fail
# hard — a partial count would just be a wrong number.
kill -9 "$pid_7952"
wait "$pid_7952" 2>/dev/null || true

out="$(run_sql "$router" 'SELECT id FROM counties')"
echo "$out" | grep -q 'partial result' || {
	echo "cluster-smoke: stream after shard loss did not report a partial result:" >&2
	echo "$out" >&2
	exit 1
}
echo "$out" | grep -q '^[0-9]' || {
	echo "cluster-smoke: partial stream delivered no surviving rows:" >&2
	echo "$out" >&2
	exit 1
}
out="$(run_sql "$router" 'SELECT count(*) FROM counties')"
echo "$out" | grep -q '^error:.*shard' || {
	echo "cluster-smoke: count after shard loss did not fail:" >&2
	echo "$out" >&2
	exit 1
}

# Clean shutdown: the router and the surviving shards drain on SIGTERM
# and leave their final stats lines behind.
kill "$router_pid"
wait "$router_pid" 2>/dev/null || true
grep -q 'routed .* queries' "$tmp/router.log" || {
	echo "cluster-smoke: router did not log its final stats line:" >&2
	cat "$tmp/router.log" >&2
	exit 1
}
for port in 7951 7953 7959; do
	eval "p=\$pid_$port"
	kill "$p"
	wait "$p" 2>/dev/null || true
	grep -q 'served .* queries' "$tmp/shard-$port.log" || {
		echo "cluster-smoke: shard $port did not drain cleanly:" >&2
		cat "$tmp/shard-$port.log" >&2
		exit 1
	}
done
pids=""

echo "cluster-smoke: ok (3-shard scatter matches single node, router metrics and pprof, typed degradation on shard loss, clean drain)"
