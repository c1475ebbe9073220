#!/bin/sh
# Crash-recovery smoke test: boot spatialserverd on a durable -data-dir,
# load datasets and run a join over the wire, SIGKILL the daemon (no
# drain, no checkpoint), reboot on the same directory, and require the
# recovered database to answer the same counts and the same join —
# proving WAL redo recovery end to end, not just in unit tests. A second
# leg walks the migration path: an in-memory daemon saves a -snapshot on
# SIGTERM, a daemon on an empty -data-dir imports it, and after a
# SIGKILL the data directory alone answers the same.
# Dependency-free: POSIX sh.
set -eu

cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
ssd_pid=""
cleanup() {
	[ -n "$ssd_pid" ] && kill -9 "$ssd_pid" 2>/dev/null || true
	rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

go build -o "$tmp/spatialserverd" ./cmd/spatialserverd
go build -o "$tmp/spatialsql" ./cmd/spatialsql

addr="127.0.0.1:7879"
datadir="$tmp/data"

log="$tmp/ssd.log"
# Unquoted on purpose where used: a flag list.
loads="-load counties:300:1 -load stars:900:2"

# boot starts the daemon with the given flags and waits until it serves.
boot() {
	"$tmp/spatialserverd" -addr "$addr" "$@" >>"$log" 2>&1 &
	ssd_pid=$!
	i=0
	until printf '\\q\n' | "$tmp/spatialsql" -connect "$addr" >/dev/null 2>&1; do
		i=$((i + 1))
		if [ "$i" -ge 100 ]; then
			echo "crash-smoke: daemon never came up" >&2
			cat "$log" >&2
			exit 1
		fi
		sleep 0.1
	done
}

# query runs one statement and prints the result rows (the varying
# "elapsed:" line is stripped so outputs compare byte-for-byte).
query() {
	printf '%s\n\\q\n' "$1" | "$tmp/spatialsql" -connect "$addr" | grep -v '^elapsed:'
}

# stop sends the daemon a signal and reaps it.
stop() {
	kill "-$1" "$ssd_pid"
	wait "$ssd_pid" 2>/dev/null || true
	ssd_pid=""
}

# answers records the counts and the join under one name.
answers() {
	{
		query "SELECT count(*) FROM counties;"
		query "SELECT count(*) FROM stars;"
		query "SELECT count(*) FROM TABLE(spatial_join('counties','geom','stars','geom','anyinteract', 2));"
	} >"$tmp/$1.out"
}
# same_answers fails unless two recorded answer sets are identical.
same_answers() {
	cmp -s "$tmp/$1.out" "$tmp/$2.out" || {
		echo "crash-smoke: $3:" >&2
		diff "$tmp/$1.out" "$tmp/$2.out" >&2 || true
		exit 1
	}
}

boot -data-dir "$datadir" -wal-sync always $loads

# A write after load, so recovery must replay WAL past the load batch;
# then the baseline: row counts and a join answer.
query "INSERT INTO counties VALUES (100000, 'smoke', 'POLYGON((0 0, 1 0, 1 1, 0 1, 0 0))');" >"$tmp/ins.out"
answers base
[ "$(grep -c '(1 rows)' "$tmp/base.out")" -eq 3 ] || {
	echo "crash-smoke: baseline queries failed:" >&2
	cat "$tmp/base.out" >&2
	exit 1
}

# SIGKILL: no drain, no checkpoint, no snapshot. Recovery has only the
# page file and the WAL.
stop KILL

boot -data-dir "$datadir" -wal-sync always $loads
grep -q 'already holds' "$tmp/ssd.log" || {
	echo "crash-smoke: reboot did not recover tables (reloaded instead):" >&2
	cat "$tmp/ssd.log" >&2
	exit 1
}
answers recovered
same_answers base recovered "counts or join answer changed across crash"

stop TERM
grep -q 'data directory checkpointed' "$tmp/ssd.log" || {
	echo "crash-smoke: clean shutdown did not checkpoint:" >&2
	cat "$tmp/ssd.log" >&2
	exit 1
}

# --- migration leg: in-memory + -snapshot  →  -data-dir ---------------
snap="$tmp/db.snap"
migdir="$tmp/migrated"

# 1. In-memory daemon: load, answer, SIGTERM writes the snapshot.
log="$tmp/mem.log"
boot -snapshot "$snap" $loads
answers mig_base
stop TERM
[ -s "$snap" ] || {
	echo "crash-smoke: in-memory daemon left no snapshot on SIGTERM:" >&2
	cat "$log" >&2
	exit 1
}

# 2. Empty data directory + the snapshot: imported once, same answers.
log="$tmp/import.log"
boot -data-dir "$migdir" -wal-sync always -snapshot "$snap"
grep -q "snapshot $snap imported" "$log" || {
	echo "crash-smoke: empty data directory did not import the snapshot:" >&2
	cat "$log" >&2
	exit 1
}
answers mig_imported
same_answers mig_base mig_imported "answers changed across snapshot import"
stop KILL

# 3. The data directory alone: recovered, not imported, same answers.
log="$tmp/recovered.log"
boot -data-dir "$migdir" -wal-sync always
grep -q 'tables recovered' "$log" && ! grep -q 'imported' "$log" || {
	echo "crash-smoke: migrated data directory was not recovered on its own:" >&2
	cat "$log" >&2
	exit 1
}
answers mig_recovered
same_answers mig_base mig_recovered "answers changed across SIGKILL of the migrated directory"
stop TERM

echo "crash-smoke: ok (SIGKILL survived, counts and join identical after WAL recovery; snapshot migrated into a data directory and recovered)"
