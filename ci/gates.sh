#!/usr/bin/env bash
# The repository's gates: one function per step, in the order CI runs them.
#
#   bash ci/gates.sh [step]...     (default: every step, in order)
#
# .github/workflows/ci.yml runs each step as one YAML step of its own, and
# .claude/skills/verify/SKILL.md says what to look for in each, so a new
# test, bound or retired name goes here (or into ci/retired.txt) and
# nowhere else. A step stops at its first failure and the script with it.
# Run it from anywhere in the repository. What a step writes (benchmark
# output, binaries, the crash drill's log directories) goes to a directory
# under ${TMPDIR:-/tmp} that is removed on exit, as is every tkvd still
# running.
set -euo pipefail
cd "$(dirname "$0")/.."

steps=(vet fmt build test synctest bench-module race batch admission
	bench-smoke examples footprint inline wire log durability smoke backpressure
	replication crash retired selftest)

work=$(mktemp -d)
pids=()
cleanup() {
	for pid in "${pids[@]}"; do kill -KILL "$pid" 2>/dev/null || true; done
	rm -rf "$work"
}
trap cleanup EXIT

# First, so that a transactional variable copied by value fails fast: the
# data structures hold their TVars by value (a bucket in the table's slice,
# a node's vars in the node), and ranging over such a slice by value copies
# the atomic word inside (copylocks).
step_vet() { go vet ./...; }

# Every Go file in the repository is gofmt-clean, bench/'s included.
step_fmt() {
	local out
	out=$(gofmt -l .)
	[ -z "$out" ] || { printf 'not gofmt-clean:\n%s\n' "$out" >&2 && return 1; }
}

step_build() { go build ./...; }

# selects RUN PKG...: fail unless the -run list RUN selects a test in each
# PKG; a step runs it before the go test it guards, in the same environment
# (a GOEXPERIMENT). A list whose every name moved behind a build constraint
# or was renamed would otherwise pass by running nothing.
selects() {
	local run=$1 pkg out
	shift
	for pkg; do
		out=$(go test -list "$run" "$pkg")
		grep -q '^Test' <<<"$out" || { echo "-run '$run' selects no test in $pkg" >&2 && return 1; }
	done
}

# Every package at 1, 2 and 4 processors. The paper's prevent-versus-cure
# result turns on which transactions physically overlap, and so does much of
# what the suites check:
# - The STAMP kernels' contention knobs (kmeans-high vs kmeans-low) are
#   statistical shapes that a single-processor run cannot see inverted.
# - The wire client's cohort flush is a scheduling argument: which caller
#   pays the write depends on who is runnable when, the coalescing test pins
#   one processor, and the failure and id-matching tests must hold on every
#   count.
# - The tree's and the hash map's resident-keys tests (writers rotate,
#   recolour and transplant, or link and unlink, around keys that readers
#   must keep finding in one snapshot) and the engines' conformance suites —
#   the parked-writer case that pins where a snapshot reader waits, and the
#   CommitHook row (once per committed attempt that wrote, never for an
#   aborted, user-aborted, write-less or read-only one, every written var
#   still locked and a snapshot reader of one restarting while it runs),
#   among them — mean something different when transactions overlap
#   physically and when they only interleave, and so does internal/verify's
#   opacity certification of both engines. The predictor and the schedulers
#   hash and compare var addresses; every scheduler counts its serialized
#   starts on the starting thread, and enginecfg's forced-abort case pins
#   Pool's count on each engine.
# - The stripe table (left only for the benchmark's replay probe) races
#   shared and exclusive holds, and the record codec's buffers are shared by
#   the ring, the WAL and the stream.
# - Who reaches a gate first, who restarts a transaction body, who finds the
#   pool empty and which caller flushes a cohort are the scheduler's
#   choices: the whole store suite and the scenario driver's in-process
#   scenarios (real tkvd processes among them) run at every count.
# - The log's own suite (every-cut, every-offset, the fail-stop and crash
#   tests and the held-Sync group-formation tests, all on tkvwal.SimFS):
#   the fence-window false ack (an appender between the fence's two
#   publications) never showed on one processor.
step_test() { go test -count=1 -cpu 1,2,4 ./...; }

# The tests in simulated time. Those whose waiting is timers, channels or
# sync.Cond (the WAL lane's group formation and fallback timer, the
# admission controller's ticks, the wire's shed ramp and replication
# heartbeat, DrainRepl's deadline, and all of the follower's: its redial
# backoff, idle watchdog and drain deadline, and the seeded failover drill)
# run in synctest bubbles through internal/synctime, over in-memory pipes
# and tkvwal.SimFS, and assert exact times and tick counts instead of
# racing the wall clock. The follower's drain (promotion reads the stream to
# the primary's fence before stopping; a primary that never fences costs the
# deadline, not a hang) races the applier by design, so the bubbles run at
# every processor count too. The toolchain builds the package only with
# GOEXPERIMENT=synctest, so every file that uses it carries that build
# constraint and the steps above never see them; this step vets and runs
# their packages with the experiment, at 1, 2 and 4 processors because a
# bubble fakes the clock, not the scheduler, then the bubble tests under
# -race. Tests that wait on real sockets, sync.RWMutex gates or spinning
# engines stay in real time. Only the bubble tests run here: the test step
# ran the rest of their packages. Last, a test may not pace itself by the
# wall clock more than it does now: the time.Sleep calls in the _test.go
# files under internal/ and cmd/ outside bubbles (a bubble's sleep is fake
# time) may not rise above sleepMax. The count is of call sites, not of
# time slept: one polling helper counts once however many loops call it.
step_synctest() {
	local sleepMax=6 pkgs tests n
	mapfile -t pkgs < <(grep -rlx --include='*.go' '//go:build goexperiment.synctest' internal cmd |
		xargs -n1 dirname | sort -u | sed 's|^|./|')
	tests=$(grep -rlx --include='*_test.go' '//go:build goexperiment.synctest' internal cmd |
		xargs grep -ho '^func Test[A-Za-z0-9_]*' | sed 's/^func //' | paste -sd'|')
	GOEXPERIMENT=synctest go vet "${pkgs[@]}"
	GOEXPERIMENT=synctest selects "^($tests)\$" "${pkgs[@]}"
	GOEXPERIMENT=synctest go test -count=1 -cpu 1,2,4 -run "^($tests)\$" "${pkgs[@]}"
	GOEXPERIMENT=synctest go test -race -count=1 -cpu 1,2,4 -run "^($tests)\$" "${pkgs[@]}"
	n=$(grep -rLx --include='*_test.go' '//go:build goexperiment.synctest' internal cmd |
		xargs grep -ho 'time\.Sleep(' | wc -l)
	echo "synctest: $n time.Sleep calls in real-time tests under internal/ and cmd/ (at most $sleepMax)"
	[ "$n" -le "$sleepMax" ] || { echo "a test paces itself by the wall clock again: use a bubble (internal/synctime) or wait on the event" >&2 && return 1; }
}

# bench/ is a module of its own (BENCHMARK.json's program), so the steps
# above neither build nor test it. It imports internal/* through their
# exported API; an API change that breaks it must fail here, not in whoever
# runs the benchmark next.
step_bench_module() { go -C bench vet ./... && go -C bench test ./...; }

# The race detector over the engines and the serving path at 1, 2 and 4
# processors, for the reasons the test step lists, then over the engines,
# the structures and the serving path once more at the default count.
step_race() {
	go test -race -count=1 -cpu 1,2,4 ./internal/stm/... ./internal/stmds/... ./internal/predict/... ./internal/sched/... ./internal/enginecfg/... ./internal/verify/... ./internal/keylock/... ./internal/tkvlog/... ./internal/tkv/... ./internal/tkvwire/... ./internal/tkvrepl/... ./internal/tkvwal/...
	go test -race -count=1 ./internal/stm/... ./internal/stmds/... ./internal/keylock/... ./internal/tkv/... ./internal/tkvwire/... ./internal/tkvlog/... ./internal/tkvrepl/... ./internal/tkvwal/...
}

# Batches and single-key writes: race stress, the one-transaction promises
# and the alloc gates. The stress tests assert (a) a batch over keys of a shard where
# a write is parked before its commit admits concurrently, and one over the
# parked write's key waits for it, logged or not, (b) overlapping batches
# and batch-cas lose no updates, (c) a batch cas mismatch leaves no partial
# writes, (d) a pooled batch state carries nothing from one call to the
# next, a batch whose one transaction restarts applies its adds once and
# records its writes once, and a batch reads its own writes back across
# shards, (e) the store is one engine: an unlogged cross-shard MGet or
# snapshot never sees part of a cross-shard batch, SetReadOnly waits out a
# batch that holds only its gates, and the shards' engine counts sum to the
# engine's with a 4-shard batch one commit, (f) a contended gate is reported
# in its mode on its shard only, and the gate's freezes exclude writers and
# each other, (g) the shard's thread pool holds its bound, loses no wakeup
# and gets its thread back from a panicking body (and under a single-key
# write the gate and a cleared commit hook with it), (h) the one single-key
# write path gives the same results, records and recovered contents
# whatever log is attached, enters its shard's gate exactly when a log is
# attached (reads take nothing on any store, and hot reads under hot writers
# still finish), parks on durability only after leaving it, and is fenced by
# read-only on every kind of store, (i) that fence is a barrier:
# SetReadOnly(true) waits out a write (or a batch) that passed the flag and
# refuses one that had not entered its gate yet, so the head a draining
# shipper reads afterwards is final, (j) a closed, dropped store is garbage
# at the next collection, its shards' maps with it (the pooled per-call
# state is process-wide and binds its store per call), and one pooled state
# serves stores of 2 and 16 shards interleaved with every result right, (k)
# a record enters the log inside its commit: a delete cannot overtake a put
# that is parked in its commit (the delete reads the value cell first), a
# read never returns a write whose record is not yet at or below the head,
# and each shard's window replays to the store — plain and under -race at
# one, two and four processors, because who restarts whom, and who finds
# the pool empty, is the scheduler's choice. The alloc gates run without
# -race (the tests skip themselves under it): a batch allocates what a call
# hands away, nothing for its grouping (the line without a -N suffix is the
# one-processor run; measured 16 allocs/op for the 8-add batch, MGet 1), and
# a single-key write exactly its count (PutRef 0, Add and a swapping CAS 1;
# 1, 2, 2 with a ring; no-ops 0).
step_batch() {
	local run='TestConcurrentDisjointBatches|TestOverlappingBatchesNoLostUpdates|TestBatchCASMismatchNoPartialWrites|TestBatchStateReuse|TestBatchRestartAppliesOnce|TestBatchReadsOwnWrites|TestMGetAtomicAcrossShards|TestSnapshotNeverSplitsABatch|TestReadOnlyWaitsOutGateOnlyBatch|TestShardStatsSumToEngine|TestStripeWaitsReported|TestGateFreeze|TestThreadPoolBound|TestThreadPoolNoLostWakeup|TestThreadReturnedOnPanic|TestSingleKeyWriteMatrix|TestSingleKeyWriteStripeMode|TestReplReadOnly|TestReadOnlyFenceIsBarrier|TestDroppedStoreIsCollected|TestPooledStateAcrossStores|TestUnloggedOpsTakeNoStripe|TestHotReadsStayLive|TestPutDeleteOrderedInLog|TestRecordNeverTrailsARead|TestLogReplaysToStore'
	selects "$run" ./internal/tkv/
	go test -count=2 -cpu 1,2,4 -run "$run" ./internal/tkv/
	go test -race -count=2 -cpu 1,2,4 -run "$run" ./internal/tkv/
	selects 'TestBatchAllocBudget|TestMGetOneAlloc|TestSingleKeyWriteAllocs' ./internal/tkv/
	go test -count=1 -run 'TestBatchAllocBudget|TestMGetOneAlloc|TestSingleKeyWriteAllocs' ./internal/tkv/
	go test -run=NONE -bench 'BenchmarkBatchDisjoint/workers=1$|BenchmarkMGet8' -cpu 1 -benchtime=2000x -benchmem ./internal/tkv/ | tee "$work/batchbench.txt"
	awk '$1 == "BenchmarkBatchDisjoint/workers=1" { for (i = 2; i <= NF; i++) if ($i == "allocs/op") { batch = 1; if ($(i-1) > 20) bad = 1 } } $1 == "BenchmarkMGet8" { for (i = 2; i <= NF; i++) if ($i == "allocs/op") { mget = 1; if ($(i-1) > 1) bad = 1 } } END { exit bad || !batch || !mget }' "$work/batchbench.txt"
	go test -run=NONE -bench 'BenchmarkBatchDisjoint' -benchtime=50x ./internal/tkv/
}

# The admission layer is one shed controller per shard. Past its knee it
# sheds (drill mode, and a knee crossed by real gate waits), ramping and
# decaying the AIMD way, and a shed write or batch writes nothing and logs
# nothing; below it it refuses nothing, even to callers racing on hot keys,
# missing CASes and running 32-key cross-shard batches (the idle test, a
# race between those callers, so every processor count). The ramp and the
# idle test run on the controller's own ticker in bubbles, hence the
# experiment (see synctest). The benchmarks assert the idle and shed paths
# stay cheap.
step_admission() {
	GOEXPERIMENT=synctest selects 'TestShed|TestAdmi' ./internal/tkv/
	GOEXPERIMENT=synctest go test -count=2 -cpu 1,2,4 -run 'TestShed|TestAdmi' ./internal/tkv/
	GOEXPERIMENT=synctest go test -race -count=2 -cpu 1,2,4 -run 'TestShed|TestAdmi' ./internal/tkv/
	go test -run=NONE -bench 'BenchmarkAdmission' -benchtime=50x ./internal/tkv/
}

# Compile and run every benchmark once. The second line runs the two
# benchmarks that build nodes from several goroutines at once on two
# processors as well: node construction must touch nothing the goroutines
# share (a var's identity is its address, not a process-wide counter).
step_bench_smoke() {
	go test -run=NONE -bench=. -benchtime=1x ./...
	go test -run=NONE -bench 'BenchmarkRBTreeInsertParallel|BenchmarkHashMapPutParallel' -cpu 1,2 -benchtime=1x ./internal/stmds/
}

# Every program under examples/ runs to the end: they have no tests, so
# nothing else would notice one that stops building or fails. Each prints
# its wall time (go run's link included); a non-zero exit fails the step
# and shows what the example printed.
step_examples() {
	local dir name start
	for dir in examples/*/; do
		name=$(basename "$dir")
		start=$(date +%s%N)
		go run "./$dir" >"$work/$name.out" 2>&1 || {
			cat "$work/$name.out" >&2
			echo "examples: $name exited non-zero" >&2
			return 1
		}
		echo "examples: $name ran in $((($(date +%s%N) - start) / 1000000)) ms"
	done
}

# The read-only fast path (BenchmarkReadOnlyTx) and the structures'
# footprint. The alloc gates run without -race (testing.AllocsPerRun counts
# the detector's own allocations; the tests skip themselves under -race).
# The tree's gates hold an update to its search path plus a few neighbours
# in reads, to what changes in writes, and to the node and value cell in
# allocations. The hash map's gates hold every operation to its allocations
# exactly (a new key its node and value cell, an overwrite its value cell, a
# delete one copy per node ahead of its key, links nothing), a table of any
# size to two, a loaded map to 176 B per key + 16 B per bucket, and a stale
# chain head to keeping nothing removed after it. The size gates hold the
# engine word at 16 bytes and the nodes at 80 and 32 exactly.
step_footprint() {
	go test -run=NONE -bench 'BenchmarkReadOnlyTx' -benchtime=100x .
	selects 'TestROSingleReadZeroAllocs|TestROScanZeroAllocs|TestRONoClockRMW|TestVarSize' ./internal/stm/
	go test -run 'TestROSingleReadZeroAllocs|TestROScanZeroAllocs|TestRONoClockRMW|TestVarSize' -count=1 ./internal/stm/
	selects 'TestRBTreeFootprint|TestRBTreeUpdateAllocs|TestRBTreeRemovedNodesAreCollected' ./internal/stmds/
	go test -run 'TestRBTreeFootprint|TestRBTreeUpdateAllocs|TestRBTreeRemovedNodesAreCollected' -count=1 -v ./internal/stmds/
	selects 'TestNodeSizes|TestHashMapAllocs|TestConstructorAllocs|TestHashMapBytesPerKey|TestHashMapRemovedNodesAreCollected' ./internal/stmds/
	go test -run 'TestNodeSizes|TestHashMapAllocs|TestConstructorAllocs|TestHashMapBytesPerKey|TestHashMapRemovedNodesAreCollected' -count=1 -v ./internal/stmds/
}

# The snapshot reads must inline into the traversals that call them.
# stm.ReadTRO and stm.ReadRefTRO are written to cost less than the
# compiler's inlining budget (63 and 58 against 80 on go1.24), and stm_tree's and
# wire_read's throughput rest on them being inlined at every hop of
# RBTree.GetRO, at HashMap.GetRO's value read and at HashMap.findRO's bucket
# read: the next edit that pushes one past the budget would otherwise cost a
# fifth of that silently. The structures are generic, so the compiler
# reports on them where they are instantiated; internal/tkv
# (HashMap[string]) and internal/microbench (RBTree[int64]) are built along
# for that.
step_inline() {
	local fail=0 site file method fn
	gcout=$(go build -gcflags=-m ./internal/stmds/ ./internal/tkv/ ./internal/microbench/ 2>&1)
	for fn in ReadTRO ReadRefTRO; do
		if ! grep -q "can inline stm\.$fn\[" <<<"$gcout"; then
			echo "inline gate: the compiler does not report 'can inline stm.$fn'" >&2
			fail=1
		fi
	done
	for site in internal/stmds/rbtree.go:GetRO:ReadTRO internal/stmds/hashmap.go:GetRO:ReadTRO \
		internal/stmds/hashmap.go:findRO:ReadRefTRO; do
		IFS=: read -r file method fn <<<"$site"
		if ! inlined_in "$file" "$method" "$fn"; then
			echo "inline gate: no 'inlining call to stm.$fn' inside $method ($file)" >&2
			fail=1
		fi
	done
	if [ "$fail" -ne 0 ]; then
		echo "inline gate: FAILED — see 'go build -gcflags=-m=2 ./internal/tkv/ 2>&1 | grep TRO' for the cost" >&2
		return 1
	fi
	echo "inline gate: stm.ReadTRO inlines into RBTree.GetRO and HashMap.GetRO, stm.ReadRefTRO into HashMap.findRO"
}

# inlined_in FILE METHOD FUNC: some call to stm.FUNC between METHOD's func
# line and its closing brace is reported as inlined in $gcout.
inlined_in() {
	local file=$1 method=$2 fn=$3 lo hi
	read -r lo hi < <(awk -v m="$method" \
		'!s && $0 ~ "^func \\([^)]*\\) " m "\\(" { s = NR } s && /^}/ { print s, NR; exit }' "$file")
	if [ -z "${lo:-}" ]; then
		echo "inline gate: no method $method in $file" >&2
		return 1
	fi
	# (A cached build replays the compiler's output with the paths of the
	# directory it first ran in, hence the optional prefix.)
	grep -E "^([^:]*/)?$file:[0-9]+:[0-9]+: inlining call to stm\.$fn\[" <<<"$gcout" |
		awk -F: -v lo="$lo" -v hi="$hi" '$2 >= lo && $2 <= hi { n++ } END { exit !n }'
}

# The wire protocol. The serving loop's get/put path must stay
# allocation-free in steady state, a pipelined cohort of eight gets included
# (the read loop warms their key paths first, and the row fails if it never
# did), and so must the shed path: the gates measure whole-process mallocs
# across a run over loopback (the shed path's in a bubble, whose clock
# ramps the controller first: hence the experiment, see synctest). They
# skip themselves under -race, where the detector's own allocations would
# drown the signal, and the benchmarks assert the same per-op through
# -benchmem. The fuzzers chew on frame round-trips and adversarial server
# input (truncated frames, lying length fields) for a few seconds each. The
# Conn benchmarks report transport writes per call: eight pipelined callers
# on one processor must share them (the line without a -N suffix is the
# one-processor run; measured 0.14).
step_wire() {
	GOEXPERIMENT=synctest selects 'TestWireGetPutZeroAlloc|TestWireShedZeroAlloc' ./internal/tkvwire/
	GOEXPERIMENT=synctest go test -run 'TestWireGetPutZeroAlloc|TestWireShedZeroAlloc' -count=1 ./internal/tkvwire/
	go test -run=NONE -bench 'BenchmarkWireGet|BenchmarkWirePut' -benchtime=1000x -benchmem ./internal/tkvwire/ | tee "$work/wirebench.txt"
	grep -E 'BenchmarkWire(Get|Put).* 0 allocs/op' "$work/wirebench.txt"
	test "$(grep -cE 'BenchmarkWire(Get|Put).* 0 allocs/op' "$work/wirebench.txt")" -eq 2
	go test -run=NONE -bench 'BenchmarkConnGet(Serial|Pipelined8)' -cpu 1,2 -benchtime=2000x ./internal/tkvwire/ | tee "$work/connbench.txt"
	awk '$1 == "BenchmarkConnGetPipelined8" { for (i = 2; i <= NF; i++) if ($i == "writes/op") { seen = 1; if ($(i-1) >= 0.5) bad = 1 } } END { exit bad || !seen }' "$work/connbench.txt"
	go test -fuzz 'FuzzFrameRoundTrip' -fuzztime 5s -run=NONE ./internal/tkvwire/
	go test -fuzz 'FuzzServerDecode' -fuzztime 5s -run=NONE ./internal/tkvwire/
}

# The write-set record format the replication window, the stream and the
# WAL share: encode must stay allocation-free, and the decoder must
# classify every truncation or bit-flip as ErrShort/ErrCorrupt.
step_log() {
	go test -run=NONE -bench 'BenchmarkAppend' -benchtime=1000x -benchmem ./internal/tkvlog/ | tee "$work/logbench.txt"
	grep -E 'BenchmarkAppend.* 0 allocs/op' "$work/logbench.txt"
	go test -fuzz 'FuzzLogDecode' -fuzztime 5s -run=NONE ./internal/tkvlog/
}

# Durability: the WAL's alloc gate, the streaming reader's fuzz and the
# store-level drills. A logged write appends its record from inside its
# commit, through the engine's commit hook, while the vars it wrote are still
# locked (logCommit, internal/tkv/wal.go), so WAL.Append must not allocate:
# the gate pins it at 0 allocs/op. The streaming reader (recovery's
# decoder) gets fuzzed on adversarial segment bytes — every torn tail must
# classify as ErrShort, every bit-flip as ErrCorrupt, never a bad record or
# a panic. The log's own suite runs in the test and race steps. The store's
# shards each have one record sequence (one append numbers a record for the
# replication window and the WAL alike), and the store-level lines pin what
# it promises at 1, 2 and 4 processors, plain and under the race detector:
# a reopened or restored log serves nothing from before its restart (a
# fresh follower of a reopened primary is resynced from cuts), a restore to
# a lower sequence takes the WAL's watermark down with it, and a follower
# reports a record applied only once its own log made it durable. The crash
# lines run on tkvwal.SimFS, which keeps across a power cut only what an
# fsync made durable, and of the bytes a file grew by since, a prefix its
# tear picks: the two drills cut the power between a group's write and its
# fsync, the checkpoint sweep at every operation of a checkpoint (rotation,
# file, rename, directory fsyncs, GC) and of the appends around it, and the
# recovery sweep, once per tear, at every operation of an Open that cuts a
# torn tail (MANIFEST check, tmp removal, replay, truncate and its fsync,
# new segment, directory fsync) and of an append after it; recovery must not
# refuse, and every acked record, and a checkpoint that returned nil, must
# come back. A torn tail's cut must be durable before the next segment is,
# or it comes back behind that segment and the next Open refuses. The
# follower's lines are bubble tests, so they run with the experiment (see
# the synctest step), with the seeded failover drill: a quit in tkvd's
# order, a promotion that took over everything, and a power cut that tears
# both disks under the promoted primary's writers.
step_durability() {
	local run='TestWALDurableRoundTrip|TestWALCheckpointTruncates|TestWALReplSharedSequence|TestWALReplRestore|TestReplRestoreShard|TestWALFailStopStore|TestWALCrashDrill|TestAbandonSimulatesCrash|TestCheckpointEveryCrashPoint|TestTornTailCutSurvivesPowerCut|TestRecoveryEveryCrashPoint'
	local repl='TestFreshFollowerOfReopenedPrimary|TestFollowerAppliedWaitsForItsLog|TestFailoverGracefulZeroLoss'
	go test -run=NONE -bench 'BenchmarkWalAppend' -benchtime=1000x -benchmem ./internal/tkvwal/ | tee "$work/walbench.txt"
	test "$(grep -cE '^BenchmarkWalAppend(-[0-9]+)? .* 0 allocs/op' "$work/walbench.txt")" -eq 1
	go test -fuzz 'FuzzLogReader' -fuzztime 5s -run=NONE ./internal/tkvlog/
	selects "$run" ./internal/tkv/ ./internal/tkvwal/
	go test -count=1 -cpu 1,2,4 -run "$run" ./internal/tkv/ ./internal/tkvwal/
	go test -race -count=1 -cpu 1,2,4 -run "$run" ./internal/tkv/ ./internal/tkvwal/
	GOEXPERIMENT=synctest selects "$repl" ./internal/tkvrepl/
	GOEXPERIMENT=synctest go test -count=1 -cpu 1,2,4 -run "$repl" ./internal/tkvrepl/
	GOEXPERIMENT=synctest go test -race -count=1 -cpu 1,2,4 -run "$repl" ./internal/tkvrepl/
}

# The process-level drills: real tkvd processes, driven and judged by
# tkvload over the wire protocol (tkvd -tcpaddr); tkvd's HTTP (-addr) is only
# the control surface: /healthz, /stats, /promote and /quit. Every scenario
# runs tkvload's one load driver and ends in its one verdict: each increment's
# ack carries the value it produced, so a key's acked values must be distinct
# and at most its final value, and a lost acknowledged write is named by key,
# value and phase. tkvload also fails on a blob holding another key's value
# and on a server that committed nothing, and tkvd fails on an unclean
# shutdown. e2e_build builds the two binaries once a run.
e2e_build() {
	[ -x "$work/tkvload" ] && return
	go build -o "$work/tkvd" ./cmd/tkvd
	go build -o "$work/tkvload" ./cmd/tkvload
}
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

# The zero-lost-update check: the default mix, one request in flight per
# connection; the batch workload (key-disjoint batches with cas ops admitted
# into them, plus multi-key reads); the same invariant-checked mix pipelined.
# The server warms the gets of a pipelined cohort and never a lone get, so
# the store's warmed count on the verify line is 0 until the pipelined run.
step_smoke() {
	e2e_build
	serve 7070 -tcpaddr 127.0.0.1:7071 -shards 4 -sched shrink
	tkvload -tcpaddr 127.0.0.1:7071 -pipeline 1 -dur 2s -conns 8 -keys 64 -blobs 64
	tkvload -tcpaddr 127.0.0.1:7071 -pipeline 1 -dur 2s -conns 8 -keys 64 -blobs 64 \
		-read 0.3 -mget 0.5 -batch 0.8 -batchsize 4 -batchcas 0.3 -overlap 0 |
		tee "$work/serial.out"
	grep -q ' warmed=0 ' "$work/serial.out" || { echo "a lone get was warmed" >&2 && return 1; }
	tkvload -tcpaddr 127.0.0.1:7071 -pipeline 8 -dur 2s -conns 8 -keys 64 -blobs 64 \
		-mget 0.3 -batchcas 0.3 | tee "$work/pipelined.out"
	grep -qE ' warmed=[1-9]' "$work/pipelined.out" || { echo "no pipelined get was warmed" >&2 && return 1; }
	kill -TERM "$pid"
	wait "$pid"
}

# tkvd runs the admission controller in drill mode (-shedknee 0:
# permanently past the overload knee), so writes shed with the explicit
# backpressure status. tkvload asserts that the shed path was exercised
# (-minshed 1), that commits still happened, and that the zero-lost-update
# invariant holds while requests bounce.
step_backpressure() {
	e2e_build
	serve 7074 -tcpaddr 127.0.0.1:7075 -shards 4 -sched shrink \
		-admit -shedknee 0 -admittick 20ms
	tkvload -tcpaddr 127.0.0.1:7075 -pipeline 8 -dur 3s -conns 8 -keys 32 -blobs 32 \
		-zipf 1.1 -addfrac 0.5 -minshed 1
	kill -TERM "$pid"
	wait "$pid"
}

# A primary, a follower streaming from it, and tkvload. First a plain load
# run while the follower replicates, after which the follower's lag must
# drain to zero. Then the failover drill: tkvload quits the primary mid-load
# (fence, drain, close), promotes the follower, redirects the load and judges
# every ack on the promoted follower, naming a lost one as acked before the
# quit or after the promote; the follower must say that it read the stream to
# the primary's fence and took over no gap. The drill learns both wire
# addresses from the servers' /healthz.
step_replication() {
	e2e_build
	serve 7080 -tcpaddr 127.0.0.1:7081 -shards 4 -sched shrink
	local primary=$pid
	serve 7082 -tcpaddr 127.0.0.1:7083 -shards 4 -sched shrink \
		-role follower -follow 127.0.0.1:7081 >"$work/follower.out"
	local follower=$pid
	tkvload -tcpaddr 127.0.0.1:7081 -pipeline 1 -dur 2s -conns 8 -keys 64 -blobs 64
	local lag=unknown
	for _ in $(seq 1 100); do
		lag=$(curl -sf http://127.0.0.1:7082/stats |
			python3 -c 'import json,sys; print(json.load(sys.stdin)["repl"]["lag"])')
		[ "$lag" = 0 ] && break
		sleep 0.1
	done
	[ "$lag" = 0 ] || { echo "follower lag never drained: $lag" >&2 && return 1; }
	tkvload -scenario failover -url http://127.0.0.1:7080 \
		-url2 http://127.0.0.1:7082 -keys 64 -conns 8 -dur 2s
	wait "$primary"
	# The promoted follower is now a writable primary; shut it down.
	curl -sf -X POST http://127.0.0.1:7082/quit >/dev/null
	wait "$follower"
	cat "$work/follower.out"
	grep -q 'promoted to primary fenced=true gap=\[0 0 0 0\]' "$work/follower.out"
}

# tkvload -scenario crash SIGKILLs a real WAL-backed tkvd mid-load, twice,
# restarts it over the same log directory, and fails unless every
# acknowledged increment survived (a lost one is named with the kill it was
# acked before or after) and every restart recovered through the WAL.
step_crash() {
	e2e_build
	tkvload -scenario crash -tkvd "$work/tkvd" -waldir "$work/wal" \
		-keys 32 -conns 4 -kills 2 -dur 500ms
}

# The names ci/retired.txt lists stay gone.
step_retired() { retired_check ci/retired.txt; }

# retired_check LIST: fail when a check of LIST (in ci/retired.txt's format)
# matches under its roots, relative to the current directory. Only grep's
# status 1, no match, passes: a match, or a root that is not there, fails.
retired_check() {
	local line roots pattern rc fail=0
	while IFS= read -r line; do
		case $line in '' | '#'*) continue ;; esac
		roots=${line%%: *} pattern=${line#*: } rc=0
		# shellcheck disable=SC2086 # the roots split and glob
		grep -rnE --exclude=retired.txt -- "$pattern" $roots || rc=$?
		if [ "$rc" -ne 1 ]; then
			echo "retired: '$pattern' under $roots (grep status $rc)" >&2
			fail=1
		fi
	done <"$1"
	return "$fail"
}

# The retired check catches every name it lists. Each alternative of each
# pattern in ci/retired.txt, reduced to the text it names, is planted in
# turn under each of the check's roots in a scratch tree, and the check must
# fail on it; the same roots with nothing planted must pass, and so must the
# real tree. A reduced name that still holds a quote or a backslash comes
# from a mis-quoted pattern, and an empty one from a stray '|'.
step_selftest() {
	local line roots pattern name root rootv n=0
	while IFS= read -r line; do
		case $line in '' | '#'*) continue ;; esac
		roots=${line%%: *} pattern=${line#*: }
		printf '%s\n' "$line" >"$work/check.txt"
		rm -rf "$work/tree" && plant "$work/tree" "$roots" "" ""
		if ! (cd "$work/tree" && retired_check "$work/check.txt"); then
			echo "selftest: fails with nothing planted: $line" >&2
			return 1
		fi
		while IFS= read -r name; do
			case $name in '' | *[\'\"\\]*)
				echo "selftest: alternative '$name' of a mis-quoted pattern: $line" >&2
				return 1
				;;
			esac
			read -ra rootv <<<"$roots"
			for root in "${rootv[@]}"; do
				rm -rf "$work/tree" && plant "$work/tree" "$roots" "$root" "$name"
				if (cd "$work/tree" && retired_check "$work/check.txt" >/dev/null 2>&1); then
					echo "selftest: '$name' planted under $root is not caught by: $line" >&2
					return 1
				fi
				n=$((n + 1))
			done
		done < <(names "$pattern")
	done <ci/retired.txt
	retired_check ci/retired.txt
	echo "selftest: $n planted names caught, and the tree is clean"
}

# plant TREE ROOTS TARGET NAME: create each of ROOTS under TREE (a file root
# as that file, a glob as the file 'planted' matching it, a directory as
# planted.go in it), holding the line NAME in TARGET's file, empty
# otherwise.
plant() {
	local tree=$1 target=$3 name=$4 root file rootv
	read -ra rootv <<<"$2"
	for root in "${rootv[@]}"; do
		case $root in
		*'*'*) file=${root//\*/planted} ;;
		*/) file=${root}planted.go ;;
		*.*) file=$root ;;
		*) file=$root/planted.go ;;
		esac
		mkdir -p "$(dirname "$tree/$file")"
		if [ "$root" = "$target" ]; then printf '%s\n' "$name"; else echo; fi >"$tree/$file"
	done
}

# names PATTERN: each top-level alternative of an extended regular
# expression, reduced to a line it matches: a group to its first
# alternative, a bracket expression to its first character, \b dropped, an
# escaped character to itself.
names() {
	RE=$1 awk 'BEGIN {
		re = ENVIRON["RE"]
		for (i = 1; i <= length(re); i++) {
			c = substr(re, i, 1)
			if (c == "\\") {
				c = substr(re, ++i, 1)
				if (c != "b" && !skip) out = out c
			} else if (c == "[") {
				if (!skip) out = out substr(re, i + 1, 1)
				i += index(substr(re, i + 1), "]")
			} else if (c == "(") {
				depth++
			} else if (c == ")") {
				if (skip == depth) skip = 0
				depth--
			} else if (c == "|" && depth == 0) {
				print out
				out = ""
			} else if (c == "|") {
				if (!skip) skip = depth
			} else if (!skip) {
				out = out c
			}
		}
		print out
	}'
}

[ $# -gt 0 ] || set -- "${steps[@]}"
for step; do
	if [[ " ${steps[*]} " != *" $step "* ]]; then
		echo "usage: $0 [step]...   steps: ${steps[*]}" >&2
		exit 2
	fi
done
for step; do
	echo "== $step"
	"step_${step//-/_}"
done
echo "== ok: $*"
