// Package shrink is a Go reproduction of "Preventing versus Curing:
// Avoiding Conflicts in Transactional Memories" (Dragojević, Singh,
// Guerraoui, Singh; PODC 2009): the Shrink prediction-based transaction
// scheduler, two word-based STM engines (SwissTM-like and TinySTM-like) it
// attaches to, the baseline schedulers and contention managers it is
// evaluated against, the benchmarks of the paper's evaluation (STMBench7,
// ten STAMP kernels, a red-black tree microbenchmark), and a simulator for
// the paper's scheduling theory (Theorems 1-3).
//
// The implementation lives under internal/; the runnable entry points are
// the commands under cmd/ (one per figure family), the examples under
// examples/, and the per-figure benchmarks in bench_test.go. See README.md
// for a map and EXPERIMENTS.md for measured-versus-paper results.
//
// Transactional state is held in typed variables (stm.TVar[T], read and
// written with stm.ReadT/stm.WriteT), which move values through the
// engines unboxed: an uncontended typed read allocates nothing. The
// untyped stm.Var API remains as a compatibility shim for code that does
// not know its value types statically.
//
// The serving subsystem internal/tkv layers a sharded transactional
// key-value store over the substrate: N shards, each with its own engine
// instance, scheduler (per-shard Shrink by default) and wait policy,
// single-key fast paths, batched multi-key reads (MGet), cross-shard
// atomic batches, and serializable (per-shard-atomic) snapshots. Batch
// admission is key-granular: each shard carries a striped key-lock table
// (internal/keylock), a batch determines its key set up front and holds
// exactly those stripes — exclusively, in one global (shard, stripe)
// order — across a plan phase (read-only transactions, writes into an
// overlay) and an apply phase (one update transaction per shard). Batches
// over disjoint key sets commit concurrently even within a shard, per-key
// exclusion makes cas safe inside batches (a failed compare aborts the
// whole batch before any write), single-key traffic takes only its own
// key's stripe in shared mode, and snapshots freeze each table's
// exclusive-session gate in O(1) instead of walking stripes. Batch, MGet
// and the follower's replay share one pooled planner, so a multi-key call
// allocates only what it hands away (results, stored values). cmd/tkvd
// serves it over HTTP/JSON and cmd/tkvload is its scenario driver: it
// puts a real tkvd under load with configurable skew, read ratio, mget
// and batch mix, cas-in-batch fraction and batch key overlap, closed- or
// open-loop, and fails unless the zero-lost-update invariant held — also
// while requests are shed, across a kill -9 and across a failover — the
// paper's "many threads hammering shared state" regime as a live server.
// How fast the store is belongs to the repository benchmark, bench/.
//
// The serving edge itself is internal/tkvwire: a length-prefixed binary
// wire protocol (fixed 16-byte little-endian headers, fixed-width
// payloads, a 1 MiB request frame limit enforced before any allocation)
// over persistent pipelined TCP connections, with a reader/writer
// goroutine pair per connection, pooled size-classed frame buffers and
// zero-copy parses making the server's get/put path allocation-free in
// steady state. Single-key responses stay in request order; multi-key
// ops complete out of order, matched by an echoed request id, and the
// bundled client multiplexes concurrent callers over one connection,
// the callers woken by one batch of responses sharing one write
// syscall for their next requests. tkvd serves it on -tcpaddr next to
// HTTP (which remains the debug surface); against the HTTP/JSON stack's
// ~50 µs per op of transport overhead, the binary edge is roughly 6×
// the throughput on the same store and host, with an unpipelined
// latency floor in the tens of microseconds.
//
// tkvd processes form a replicated group. A primary captures every
// committed write set — under the same key-lock stripes (taken
// exclusively once a log is attached: that mode is all a log changes in
// the one single-key write path), after STM commit but before stripe
// release, so ring order equals commit order per key — as an
// internal/tkvlog record: length-prefixed, versioned,
// CRC32-C-sealed, allocation-free to encode, with torn tails (ErrShort)
// distinguished from corruption (ErrCorrupt); the same record is the
// planned on-disk WAL format. Per-shard bounded rings decouple commits
// from the network, a per-subscription shipper on the wire port (behind
// a version/feature handshake that leaves old clients untouched)
// replays backlog and tails live commits, and a wrapped ring degrades
// to a consistent per-shard snapshot cut instead of a lost follower.
// The follower side (internal/tkvrepl) replays the stream through the
// same stripe-exclusive commit path, serves stale-bounded reads
// (writes bounce with "not primary"), reports lag watermarks in /stats,
// and promotes to a writable primary on POST /promote. Graceful
// shutdown fences writes — a barrier: when Store.SetReadOnly(true)
// returns, no write that passed the gate is still in flight — and drains
// the stream through a flush barrier before closing listeners; promotion
// reads the stream to that fence before it stops the applier and prints
// what it took over (fenced, and per shard the primary's head as last
// heard minus what was applied). So planned failover loses no
// acknowledged write (cmd/tkvload -scenario failover drills exactly
// that); a hard kill loses at most the reported lag.
//
// The transaction lifecycle is shared between the engines (stm.Core) and
// allocation-free in steady state under any scheduler: write-set lookups
// go through an inline index (stm.WriteIndex) instead of a map, and
// scheduler hooks observe the write set as a zero-copy stm.WriteSet view
// over the engine's live write log. A committed update transaction costs
// at most the one heap cell per spilled value, and exactly zero
// allocations when writing existing pointers — even with Shrink attached.
//
// The red-black tree of the paper's first figure (stmds.RBTree) is the
// classic bottom-up tree: an update descends once, recording its search
// path on the stack, and its repair loop climbs that path only while a
// violation persists, so it reads the path plus a constant number of
// neighbours and writes only what changes — two updates conflict where
// they meet in the tree, not at the root. A var is two words, the orec
// and the value pointer (its identity, for the Bloom-filter predictors, is
// its address), and a node is one allocation of 80 bytes (its variables
// are TVars laid out by value, stm.TVar.InitRef, the two links first), and
// links and colours publish existing immutable cells, so only a new key's
// node and a written value allocate. The hash map (stmds.HashMap, tkv's
// data plane), the sorted list and the fixed array are laid out the same
// way: bucket and cell vars by value in the table's one slice, a node's
// vars in the node, so a key costs one 48-byte object besides its value,
// a bucket 16 bytes, and a lookup is bucket slot, node, value cell.
//
// Read-only transactions have a dedicated snapshot mode
// (Thread.AtomicallyRO with stm.ReadTRO, the TL2/LSA-style read-only
// path): the body runs against a snapshot timestamp fixed at begin, every
// read validates inline (unlocked and version at most the snapshot; the
// check is small enough that the compiler inlines it into the traversal
// loops), and there is no read log, no commit-phase work and no atomic
// read-modify-write on the global clock — a read that meets a newer
// version or a held lock ends the attempt, and the retry path, not the
// read, waits for the writer before the body restarts on a fresh
// snapshot. The mode cannot be used
// by transactions that write: a write inside AtomicallyRO fails with
// stm.ErrReadOnlyWrite without retry, and the caller reruns under the
// update path (there is no transparent promotion — without a read log the
// preceding reads cannot be revalidated). The stmds structures expose RO
// read variants, and tkv serves Get, MGet, batch plan phases and all
// snapshot reads through this mode. The single- and multi-key read path
// (Get/MGet) is additionally adaptive: after a streak of RO restarts on a
// shard (a write-heavy antagonist repeatedly committing past the
// snapshot), the next read on that shard runs once on the logging update
// path, whose read log and timestamp extension absorb concurrent commits
// instead of restarting. (Batch plans and snapshots always stay RO: they
// run under stripe exclusion or the freeze gate, which bounds what can
// restart them.)
package shrink

// Version identifies the reproduction release.
const Version = "1.0.0"
