// Package shrink is a Go reproduction of "Preventing versus Curing:
// Avoiding Conflicts in Transactional Memories" (Dragojević, Singh,
// Guerraoui, Singh; PODC 2009): the Shrink prediction-based transaction
// scheduler, two word-based STM engines it attaches to (SwissTM-like, which
// resolves conflicts with Greedy, and TinySTM-like, with suicide), the
// baseline schedulers it is evaluated against, the benchmarks of the
// paper's evaluation (STMBench7, ten STAMP kernels, a red-black tree
// microbenchmark), and a simulator for the paper's scheduling theory
// (Theorems 1-3). Every scheduler counts the
// transaction starts it serializes in the starting thread's counters
// (stm.Stats.Serializations), so Shrink's prevention and ATS's and Pool's
// cure are compared on one number.
//
// The implementation lives under internal/; the runnable entry points are
// the commands under cmd/ (cmd/figures prints the paper's figures, one row
// of its list each, and its BenchmarkFigures runs them at CI scale), the
// examples under examples/, and the theorem, ablation and engine benchmarks
// in bench_test.go. See README.md for a map and EXPERIMENTS.md for
// measured-versus-paper results.
//
// Transactional state is held in typed variables (stm.TVar[T], read and
// written with stm.ReadT/stm.WriteT, or read with stm.ReadTRO in a
// read-only transaction), which move values through the engines unboxed:
// an uncontended read allocates nothing. This is the only way to reach a
// transactional word.
//
// The serving subsystem internal/tkv layers a sharded transactional
// key-value store over the substrate: N shards under one engine instance,
// one scheduler (Shrink by default) and one wait policy, single-key fast
// paths, batched multi-key reads (MGet), cross-shard atomic batches, and
// serializable (per-shard-atomic) snapshots. A batch or an MGet is one STM
// transaction across its shards — the engine's one clock orders them all —
// so an MGet is an atomic cut, a failed cas inside a batch aborts the whole
// batch before any write, and no operation takes a key lock: conflicts are
// the engine's to cure and the scheduler's to prevent. A store with a log
// attached keeps one rule: a record enters the log inside its commit (the
// engine's commit hook, after validation and before the write locks are
// released, so log order is commit order per key); observers freeze the
// gate. Each shard has a session gate that every mutating batch, and on a
// logged store every write, holds while it runs, and that snapshots,
// checkpoint and replication cuts and the read-only fence freeze. Batch,
// MGet, the follower's replay and WAL recovery share one pooled state, so a
// multi-key call allocates only what it hands away (results, stored
// values). cmd/tkvd
// serves it over the wire protocol below (HTTP carries only health, stats,
// promote and quit) and cmd/tkvload is its scenario driver: it puts a real
// tkvd under load with configurable skew, read ratio, mget
// and batch mix, cas-in-batch fraction and batch key overlap, closed- or
// open-loop, and fails unless the zero-lost-update invariant held — also
// while requests are shed, across a kill -9 and across a failover — the
// paper's "many threads hammering shared state" regime as a live server.
// tkvd -admit adds one admission controller per shard: it scores the
// shard's cure cost per commit (aborts, the attached scheduler's
// serializations and gate waits) every tick, and past a knee it sheds writes, and batches at twice that
// rate before they are decoded, with backpressure; below the knee it
// refuses nothing. How fast the store is belongs to the repository benchmark, bench/.
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
// syscall for their next requests. The server reads such a cohort in one
// piece and, when it holds two or more gets, walks their key paths in one
// interleaved pass before running them, so that their cache misses
// overlap instead of queueing. tkvd serves it on -tcpaddr as the
// store's one data surface; what it serves is measured by bench/ (see
// EXPERIMENTS.md).
//
// tkvd processes form a replicated group. A primary captures every
// committed write set — inside its commit, while the transaction still
// locks what it wrote, so log order equals commit order per key — as an
// internal/tkvlog record: length-prefixed, versioned,
// CRC32-C-sealed, allocation-free to encode, with torn tails (ErrShort)
// distinguished from corruption (ErrCorrupt); the WAL persists the same
// record, every shard's in one lane that pays one fsync per commit group
// for the whole store. Each shard numbers its records once: one append, under one
// mutex, puts a record in the shard's bounded in-memory window and in the
// WAL, so the two can never disagree about a sequence number. The window
// decouples commits from the network, a per-subscription shipper on the
// wire port (one subscribe frame starts it; clients that never send one
// see the KV opcodes unchanged) replays backlog and tails live commits,
// and a follower asking for a record the window no longer holds — evicted,
// or older than the primary's restart — gets a consistent per-shard
// snapshot cut instead of being lost.
// The follower side (internal/tkvrepl) replays the stream through the
// same logging commit path, serves stale-bounded reads
// (writes bounce with "not primary"), reports lag watermarks in /stats,
// and promotes to a writable primary on POST /promote. Graceful
// shutdown of a replicating primary fences writes — on a logged store a
// barrier: when Store.SetReadOnly(true) returns, no write that passed the
// flag is still in flight — and drains
// the stream through a flush barrier before closing listeners; promotion
// (tkvrepl's Follower.Promote) reads the stream to that fence before it
// stops the applier, and tkvd prints what it took over (fenced, and per
// shard the primary's head as last heard minus what was applied). So planned failover loses no
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
// vars in the node. A hash-map chain is immutable but for its value vars:
// a bucket var holds its first node itself, an insert pushes a node on the
// front, and a delete re-publishes the bucket with copies of the nodes
// ahead of its key.
// So a key costs one 32-byte object besides its value, a bucket 16 bytes,
// and a lookup is bucket slot, node, value cell.
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
// by transactions that write: its descriptor, stm.ROTx, is not an stm.Tx,
// so a write inside AtomicallyRO does not compile, and a caller that must
// write runs the update path (there is no transparent promotion — without
// a read log the preceding reads cannot be revalidated). The stmds structures expose RO
// read variants, and tkv serves Get, MGet, get-only batches and all
// snapshot reads through this mode. The single- and multi-key read path
// (Get/MGet) is additionally adaptive: after a streak of RO restarts on a
// shard (a write-heavy antagonist repeatedly committing past the
// snapshot), the next read on that shard runs once on the logging update
// path, whose read log and timestamp extension absorb concurrent commits
// instead of restarting. (Snapshots always stay RO: they run under the
// freeze gate, which bounds what can restart them.)
package shrink

// Version identifies the reproduction release.
const Version = "1.0.0"
