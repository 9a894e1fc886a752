#!/usr/bin/env bash
# The process-level drills: real tkvd processes, driven and judged by tkvload.
#
#   bash ci/e2e.sh [smoke|backpressure|replication|crash|all]...   (default: all)
#
# Each step is one function below and exits non-zero on its first failure:
# tkvload itself fails on a lost update, on a blob holding another key's
# value and on a server that committed nothing, and tkvd fails on an unclean
# shutdown. Called by .github/workflows/ci.yml and named in
# .claude/skills/verify/SKILL.md; run it from anywhere in the repository.
# The binaries and the crash drill's log directories go to a directory under
# ${TMPDIR:-/tmp} that is removed on exit, as is every tkvd still running.
set -euo pipefail
cd "$(dirname "$0")/.."

work=$(mktemp -d)
pids=()
cleanup() {
	for pid in "${pids[@]}"; do kill -KILL "$pid" 2>/dev/null || true; done
	rm -rf "$work"
}
trap cleanup EXIT

go build -o "$work/tkvd" ./cmd/tkvd
go build -o "$work/tkvload" ./cmd/tkvload
tkvload() { "$work/tkvload" "$@"; }

# serve <http port> <tkvd flags...>: start a tkvd in the background, wait for
# its /healthz, leave its pid in $pid.
serve() {
	local port=$1
	shift
	"$work/tkvd" -addr "127.0.0.1:$port" "$@" &
	pid=$!
	pids+=("$pid")
	for _ in $(seq 1 100); do
		curl -sf "http://127.0.0.1:$port/healthz" >/dev/null && return
		sleep 0.1
	done
	echo "tkvd on port $port never became healthy" >&2
	return 1
}

# The zero-lost-update check over both protocols: the default mix; the batch
# workload (key-disjoint batches with cas ops admitted into them, plus /mget
# reads); the same invariant-checked mix over the binary wire protocol,
# pipelined.
smoke() {
	serve 7070 -tcpaddr 127.0.0.1:7071 -shards 4 -sched shrink
	tkvload -url http://127.0.0.1:7070 -dur 2s -conns 8 -keys 64 -blobs 64
	tkvload -url http://127.0.0.1:7070 -dur 2s -conns 8 -keys 64 -blobs 64 \
		-read 0.3 -mget 0.5 -batch 0.8 -batchsize 4 -batchcas 0.3 -overlap 0
	tkvload -url http://127.0.0.1:7070 -tcpaddr 127.0.0.1:7071 \
		-proto tcp -pipeline 8 -dur 2s -conns 8 -keys 64 -blobs 64 \
		-mget 0.3 -batchcas 0.3
	kill -TERM "$pid"
	wait "$pid"
}

# tkvd runs the admission controller in drill mode (-shedknee 0: permanently
# past the overload knee), so writes shed with the explicit backpressure
# status on both surfaces. tkvload asserts that the shed path was exercised
# (-minshed 1), that commits still happened, and that the zero-lost-update
# invariant holds while requests bounce.
backpressure() {
	serve 7074 -tcpaddr 127.0.0.1:7075 -shards 4 -sched shrink \
		-admit -shedknee 0 -admittick 20ms
	tkvload -url http://127.0.0.1:7074 -tcpaddr 127.0.0.1:7075 \
		-proto tcp -pipeline 8 -dur 3s -conns 8 -keys 32 -blobs 32 \
		-zipf 1.1 -addfrac 0.5 -minshed 1
	kill -TERM "$pid"
	wait "$pid"
}

# A primary, a follower streaming from it, and tkvload. First a plain load
# run while the follower replicates, after which the follower's lag must
# drain to zero. Then the failover drill: tkvload quits the primary mid-load
# (fence, drain, close), promotes the follower, redirects the load and
# verifies the counter sum against its acks; the follower must say that it
# read the stream to the primary's fence and took over no gap.
replication() {
	serve 7080 -tcpaddr 127.0.0.1:7081 -shards 4 -sched shrink
	local primary=$pid
	serve 7082 -tcpaddr 127.0.0.1:7083 -shards 4 -sched shrink \
		-role follower -follow 127.0.0.1:7081 >"$work/follower.out"
	local follower=$pid
	tkvload -url http://127.0.0.1:7080 -dur 2s -conns 8 -keys 64 -blobs 64
	local lag=unknown
	for _ in $(seq 1 100); do
		lag=$(curl -sf http://127.0.0.1:7082/stats |
			python3 -c 'import json,sys; print(json.load(sys.stdin)["repl"]["lag"])')
		[ "$lag" = 0 ] && break
		sleep 0.1
	done
	[ "$lag" = 0 ] || { echo "follower lag never drained: $lag" >&2; return 1; }
	tkvload -scenario failover -url http://127.0.0.1:7080 \
		-url2 http://127.0.0.1:7082 -keys 64 -conns 8 -dur 2s
	wait "$primary"
	# The promoted follower is now a writable primary; shut it down.
	curl -sf -X POST http://127.0.0.1:7082/quit >/dev/null
	wait "$follower"
	cat "$work/follower.out"
	grep -q 'promoted to primary fenced=true gap=\[0 0 0 0\]' "$work/follower.out"
}

# tkvload -scenario crash SIGKILLs a WAL-backed tkvd mid-load, restarts it
# over the same log directory, and fails unless every acknowledged increment
# survived and every restart recovered through the WAL; once per layout.
crash() {
	local mode
	for mode in shared pershard; do
		tkvload -scenario crash -tkvd "$work/tkvd" -waldir "$work/wal-$mode" \
			-walmode "$mode" -keys 32 -conns 4 -kills 2 -dur 500ms
	done
}

[ $# -gt 0 ] || set -- all
for step; do
	case $step in
	smoke | backpressure | replication | crash)
		echo "== e2e: $step"
		"$step"
		;;
	all)
		for step in smoke backpressure replication crash; do
			echo "== e2e: $step"
			"$step"
		done
		;;
	*)
		echo "usage: $0 [smoke|backpressure|replication|crash|all]..." >&2
		exit 2
		;;
	esac
done
echo "== e2e: ok"
