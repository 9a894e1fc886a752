// Package tkvwal is the write-ahead log: the durability half of ROADMAP
// item 2. It persists tkvlog records — one format for everything that
// ships or persists committed write sets — under the sequence numbers the
// caller assigns (the store has one per shard, and the same append that
// numbers a record puts it in the replication window and here), and makes
// them crash-durable with a group-commit fsync loop, periodic checkpoint
// snapshots with log truncation, and a startup recovery that replays
// checkpoint + log tail.
//
// # The lane
//
// The log is one lane that owns every shard: one active segment file, one
// group-commit goroutine and one group ticket, so the whole store pays one
// fsync per group — on one device, where N fsyncs would serialize anyway,
// sync-ack throughput scales with total writers, not writers per shard.
// Every shard encodes into its own pending buffer under its own mutex
// (staging never contends across shards, and that mutex never spans an
// fsync); the lane's goroutine collects the staged buffers, writes them
// into the segment, fsyncs once, and closes one done channel that releases
// every waiter on every shard. Records carry their shard id and per-shard
// sequence number in the tkvlog header, so the interleaved segment
// demultiplexes naturally at recovery. A directory's MANIFEST pins the
// shard count; reopening with another refuses.
//
// # Group commit
//
// The STM commit is ~0.2 µs; an fsync is ~ms. Acknowledging each write
// with its own fsync would cap the store at fsync rate, so appends park
// on a committing group instead: Append stages the record and returns
// the ticket of the group that will collect it as a Commit handle;
// everything that arrives while one fsync is in flight rides the next
// one — group size scales with load and the per-write fsync cost
// amortizes away (Stats measures both).
//
// A lane forms its groups from arrivals, never from a clock. A lane
// that collected the moment it woke would, whenever the fsync is faster
// than the writers' turnaround, pick up the first arrival of each
// post-ack burst, fsync, and strand the rest for the next round — tiny
// groups, throughput at round-trip rate. A lane that slept a fixed time
// before collecting would serialise on a guess (and a sub-millisecond
// runtime timer on an idle Linux processor returns after more than a
// millisecond). Instead the lane acts on evidence: the writers a group
// just released are the ones about to come back, so it counts records
// as they are staged and holds its next collection until that many new
// ones have arrived on top of what was staged while the group was in
// flight — re-checked on every arrival, by the arriving appender, which
// wakes the lane when the count is there. A lone serial writer's record
// is the whole expectation, so it pays the fsync and nothing else. Only
// when load drops (released writers that do not return) does one
// reusable fallback timer end the wait, bounded by the measured fsync
// cost so the lane never idles the device for longer than one more
// flush would have taken (and never beyond laneWaitMax); the group that
// paid it sets the new, smaller expectation. Stats counts both
// (GroupWaits, GroupWaitTimeouts).
//
// A lane's acks, and its count of the writers a group releases, lean on
// one rule: a record and its ticket are taken under the same shard mutex.
// An appender stages its record and reads its shard's ticket in one
// critical section, and the lane, collecting a shard's buffer into group
// G, hands the shard G+1's ticket in the same critical section. So an
// appender holds G exactly when its record rides flush G: closing G after
// the fsync is an honest ack, and the records G carried are the writers
// it releases, no more and no fewer.
//
// # Fail-stop
//
// A write or fsync error fences the log permanently: every parked and
// future Commit reports the failure, appends are rejected, and Failed()
// fires so the process can exit nonzero. The fence is one published
// value — the pre-failed Commit that Append hands back is itself the
// flag Append checks — so no appender can observe "fenced" without also
// holding a handle that fails (see fail). One fault fences every shard. A
// failed fsync means the page cache and the platter may disagree;
// retrying would risk acknowledging a write the disk silently lost, so
// the only honest move is to stop (the FS indirection is how tests
// inject the fault and prove it).
package tkvwal

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/shrink-tm/shrink/internal/tkvlog"
	"github.com/shrink-tm/shrink/internal/trace"
)

// Mode names the log layout.
//
// Deprecated: the log has one layout; leave Options.Mode unset.
type Mode string

// ModeShared is the one layout, and the "lane" every MANIFEST records.
//
// Deprecated: leave Options.Mode unset.
const ModeShared Mode = "shared"

// Options configures a WAL.
type Options struct {
	// Dir is the log directory, created if absent. Its MANIFEST pins the
	// shard count.
	Dir string
	// Shards is the store's shard count (filled by the store).
	Shards int
	// Deprecated: the log has one layout; Mode must be empty or ModeShared.
	Mode Mode
	// FS is the filesystem to write through; nil means the OS.
	FS FS
	// NoSync disables the fsync wait: appends are still written by the
	// lane's loop but nothing parks on durability, so a crash can lose
	// everything since the last fsync the OS chose to do. The fail-stop
	// fence still holds.
	NoSync bool
	// CheckpointEvery is the store-side checkpoint interval (the WAL
	// itself does not tick; the store drives Checkpoint with a
	// consistent cut). Zero disables periodic checkpoints.
	CheckpointEvery time.Duration
}

// ErrClosed is the fence Close leaves behind: appends after (or racing
// past) the final flush report it.
var ErrClosed = errors.New("tkvwal: closed")

// ErrAbandoned marks a log dropped by Abandon (the in-process crash
// simulation): pending un-synced writes are discarded, as a real crash
// would.
var ErrAbandoned = errors.New("tkvwal: abandoned (simulated crash)")

// Commit is the durability handle for one appended record: a ticket on
// the group-commit batch the record rides. A nil *Commit waits for
// nothing; Append returns one only in async (NoSync) mode, never for a
// log that owes the caller a durability answer.
type Commit struct {
	w    *WAL
	done chan struct{}
	err  error // valid after done closes
}

// Wait parks until the record's batch is durable (or the log has
// failed) and returns the batch outcome. A nil error is the durability
// ack: the record survived an fsync.
func (c *Commit) Wait() error {
	if c == nil {
		return nil
	}
	select {
	case <-c.done:
		return c.err
	case <-c.w.failedc:
		// The log failed, but this batch may have completed first —
		// prefer its own outcome when it has one.
		select {
		case <-c.done:
			return c.err
		default:
			return c.w.Err()
		}
	}
}

// shardLog is one shard's staging state: the pending buffer its appends
// encode into, and its watermarks. mu is held only for an encode or a
// buffer swap, never across I/O, so an append never waits on an fsync;
// the file the buffer drains into is the lane's.
type shardLog struct {
	mu       sync.Mutex
	buf      []byte        // pending encoded records
	spare    []byte        // recycled flushed buffer (double buffering)
	rec      tkvlog.Record // encode scratch, reused under mu
	appended uint64        // last seq encoded into buf
	pending  int           // records in buf
	ticket   *Commit       // the group the records in buf ride (the lane's next collection)

	durable     atomic.Uint64 // last seq the OS has (fsync'd unless NoSync)
	lastCkptSeq atomic.Uint64
}

// laneChunk is one shard's staged buffer as collected by a lane flush.
type laneChunk struct {
	s      *shardLog
	buf    []byte
	target uint64 // shard durable watermark once buf is fsync'd
}

// WAL is a group-commit write-ahead log. Open recovers and returns one;
// Append logs a committed write set; Close flushes and shuts down.
type WAL struct {
	dir  string
	fs   FS
	opts Options // FS filled in

	shards []*shardLog

	notify chan struct{} // wakes the lane loop (capacity 1)

	// Arrival-driven group formation (see awaitArrivals). staged counts
	// records staged and not yet collected; appenders add to it after
	// releasing the shard mutex, so it can trail a collection by the
	// appenders in flight (and dip below zero) until their adds land —
	// each of them still sends its wake-up afterwards. want is the staged
	// count at which the next collection may start: what was staged while
	// the last group was in flight plus the records that group carried.
	// waiting is set while the loop is blocked for that count: appenders
	// then do the per-arrival re-check themselves and wake the loop only
	// when the count is reached, instead of once each.
	staged   atomic.Int64
	want     atomic.Int64
	waiting  atomic.Bool
	fsyncEMA atomic.Int64 // EMA of fsync nanos: the fallback timer's bound
	timer    *time.Timer  // the fallback timer, created on first use (laneLoop only)

	wmu    sync.Mutex  // serializes write/fsync/rotate on f; never held by Append
	group  *Commit     // the ticket every shard holds until it is collected (guarded by wmu)
	f      File        // active segment (guarded by wmu)
	rot    uint64      // active segment's rotation counter (guarded by wmu)
	chunks []laneChunk // collect scratch, reused across flushes (guarded by wmu)

	appends       atomic.Uint64
	bytesAppended atomic.Uint64
	pendingPeak   atomic.Uint64 // max bytes one flush carried
	fsyncs        atomic.Uint64
	fsyncHist     trace.Histogram // µs per fsync
	groupHist     trace.Histogram // records per flushed group
	groupWaits    atomic.Uint64   // collections that waited for returning writers
	groupTimeouts atomic.Uint64   // ... and were ended by the fallback timer
	checkpoints   atomic.Uint64
	lastCkptNS    atomic.Int64 // unix nanos of last checkpoint (0 = none)
	recovered     RecoveryStats

	failOnce sync.Once
	fenced   atomic.Pointer[fence] // non-nil once failed: the flag and the handle in one
	failedc  chan struct{}

	stopOnce sync.Once
	stopc    chan struct{}
	wg       sync.WaitGroup
}

// fence is the log's terminal state, published once by fail: the cause,
// and the pre-failed Commit every later Append returns.
type fence struct {
	cause  error
	commit Commit
}

// Append encodes one committed write set — shard, its per-shard
// sequence number, and the entries in commit order — into the shard's
// pending buffer and returns the Commit handle its batch rides. The
// caller must hold whatever ordering lock assigns seq (the store's
// per-shard log mutex), so buffer order equals sequence order. Append
// itself never blocks on I/O and allocates nothing on the steady path.
//
// After a failure, Abandon or Close, Append returns the pre-failed
// Commit whose Wait reports the fence — never a silent drop, and in sync
// mode never a nil handle.
func (w *WAL) Append(shard int, seq uint64, entries []tkvlog.Entry) *Commit {
	if f := w.fenced.Load(); f != nil {
		return &f.commit
	}
	s := w.shards[shard]
	s.mu.Lock()
	before := len(s.buf)
	s.rec.Shard = uint16(shard)
	s.rec.Seq = seq
	s.rec.Entries = entries
	s.buf = s.rec.Append(s.buf)
	s.rec.Entries = nil
	s.appended = seq
	s.pending++
	c := s.ticket // the group this record rides (the package doc's rule)
	delta := len(s.buf) - before
	s.mu.Unlock()
	w.appends.Add(1)
	w.bytesAppended.Add(uint64(delta))
	// Count the arrival before the wake-up, so the lane's re-check sees
	// it. A lane loop blocked in awaitArrivals needs waking only by the
	// arrival that completes its group (the fallback timer covers the
	// rest); in any other state it needs to hear of every one.
	staged := w.staged.Add(1)
	if !w.waiting.Load() || staged >= w.want.Load() {
		select {
		case w.notify <- struct{}{}:
		default:
		}
	}
	if w.opts.NoSync {
		return nil
	}
	return c
}

// laneLoop is the lane's group-commit goroutine: wake on appends from
// any shard, let the group form (awaitArrivals), flush every staged
// buffer with one fsync, release the whole batch. Every wake-up leads to
// a collection; one that finds nothing staged releases nobody and costs
// no I/O. On a clean stop it flushes what remains; after a failure or
// Abandon it just exits (the fence owns the pending waiters).
func (w *WAL) laneLoop() {
	defer w.wg.Done()
	for {
		stopping := false
		select {
		case <-w.notify:
			// Async mode parks nobody on a group, so there is nothing
			// to form one for.
			stopping = !w.opts.NoSync && w.awaitArrivals()
		case <-w.stopc:
			stopping = true
		}
		if stopping && w.fenced.Load() != nil {
			return
		}
		if err := w.flush(); err != nil {
			w.fail(err)
			return
		}
		if stopping {
			return
		}
	}
}

// laneWaitMax caps the fallback timer whatever the fsync EMA says, so
// one slow fsync cannot turn a drop in load into a long stall.
const laneWaitMax = 2 * time.Millisecond

// awaitArrivals holds the next collection until the group has formed:
// until the staged count reaches the lane's expectation (want, set by
// releaseGroup). It returns at once when the count is already there,
// which is always the case for a lone serial writer and for the first
// group after Open. Otherwise it raises waiting and blocks on the
// wake-up channel; from then on each arriving appender compares the
// count itself and sends the wake-up when it is reached (the flag goes
// up before the loop's own re-check, so an arrival either is seen by
// that check or sees the flag). The fallback timer is armed only on this
// blocking path; the group it ends is smaller, and so is the next
// expectation. Reports whether the log is stopping.
func (w *WAL) awaitArrivals() (stopping bool) {
	if w.staged.Load() >= w.want.Load() {
		return false
	}
	w.groupWaits.Add(1)
	d := min(time.Duration(w.fsyncEMA.Load()), laneWaitMax)
	if w.timer == nil {
		w.timer = time.NewTimer(d)
	} else {
		w.timer.Reset(d)
	}
	w.waiting.Store(true)
	defer func() {
		w.waiting.Store(false)
		w.timer.Stop()
	}()
	// want is re-read each round: a checkpoint's rotation may flush (and
	// set a new expectation) while the loop waits here.
	for w.staged.Load() < w.want.Load() {
		select {
		case <-w.notify:
		case <-w.timer.C:
			w.groupTimeouts.Add(1)
			return false
		case <-w.stopc:
			return true
		}
	}
	return false
}

// flush writes and fsyncs every shard's staged buffer as one group.
func (w *WAL) flush() error {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	return w.flushLocked()
}

// flushLocked is flush with w.wmu held (rotations flush before switching
// files). Each shard's buffer is collected, and the shard handed the next
// group's ticket, in one critical section — the package doc's rule; each
// shard's mutex is held only across that swap, never across the I/O —
// that is the group-commit overlap.
func (w *WAL) flushLocked() error {
	// Take a pending wake-up with us, before collecting: whoever sent it
	// (or found the channel full) staged its record first, so the record
	// is collected below or was by an earlier flush, and this flush is all
	// it is waiting for. Left in the channel it would wake the loop into
	// a wait for returning writers — and start the fallback timer —
	// before any of them has been released.
	select {
	case <-w.notify:
	default:
	}
	g := w.group
	w.group = &Commit{w: w, done: make(chan struct{})}

	chunks := w.chunks[:0]
	total := 0
	n := 0
	for _, s := range w.shards {
		s.mu.Lock()
		s.ticket = w.group
		if len(s.buf) > 0 {
			chunks = append(chunks, laneChunk{s: s, buf: s.buf, target: s.appended})
			total += len(s.buf)
			n += s.pending
			s.buf = s.spare[:0]
			s.spare = nil
			s.pending = 0
		}
		s.mu.Unlock()
	}
	w.chunks = chunks
	w.staged.Add(-int64(n))
	if total == 0 {
		// Nothing was staged, so nobody holds g.
		w.releaseGroup(g, 0, nil)
		return nil
	}

	var err error
	for _, ch := range chunks {
		if _, werr := w.f.Write(ch.buf); werr != nil {
			err = werr
			break
		}
	}
	if err == nil && !w.opts.NoSync {
		t0 := time.Now()
		err = w.f.Sync()
		d := time.Since(t0)
		w.fsyncHist.ObserveDuration(d)
		w.fsyncs.Add(1)
		// Flushes are serialized by wmu, so load+store is race-free.
		if ema := w.fsyncEMA.Load(); ema == 0 {
			w.fsyncEMA.Store(int64(d))
		} else {
			w.fsyncEMA.Store(ema + (int64(d)-ema)/8)
		}
	}
	w.groupHist.Observe(uint64(n))
	w.notePending(uint64(total))
	if err == nil {
		for _, ch := range chunks {
			ch.s.durable.Store(ch.target)
		}
	} else {
		err = fmt.Errorf("tkvwal: flush: %w", err)
	}
	for _, ch := range chunks {
		ch.s.mu.Lock()
		if ch.s.spare == nil {
			ch.s.spare = ch.buf[:0]
		}
		ch.s.mu.Unlock()
	}
	w.releaseGroup(g, n, err)
	return err
}

// releaseGroup closes a group's ticket with its outcome and sets the
// expectation for the next group: the n writers released here are about
// to come back, on top of whatever was staged while the group was in
// flight. The staged count is read before the close, so a
// released writer that is already back is not counted twice — an
// expectation one too low collects a record early, one too high would
// wait for a writer who is not coming.
func (w *WAL) releaseGroup(g *Commit, n int, err error) {
	inFlight := w.staged.Load()
	g.err = err
	close(g.done)
	w.want.Store(inFlight + int64(n))
}

// notePending raises the pending-bytes watermark to n if higher.
func (w *WAL) notePending(n uint64) {
	for {
		cur := w.pendingPeak.Load()
		if n <= cur || w.pendingPeak.CompareAndSwap(cur, n) {
			return
		}
	}
}

// fail fences the log permanently: first failure wins, all current and
// future waiters observe it, Failed() fires, the lane loop stops — one
// fault fences every shard.
//
// Ordering: the fence is published first and in one store. It carries
// both the flag Append checks and the handle Append returns, so an
// appender that runs between this store and the closes below already
// gets a Commit that fails; there is no state in which the log reads as
// failed but has no failed handle to give out (a nil *Commit waits for
// nothing, which is how that window once acknowledged writes that were
// never appended). failedc closes second: it only wakes waiters parked
// on live tickets, and they read the cause through the fence.
func (w *WAL) fail(err error) {
	w.failOnce.Do(func() {
		w.fenced.Store(newFence(w, err))
		close(w.failedc)
		w.stopOnce.Do(func() { close(w.stopc) })
	})
}

func newFence(w *WAL, cause error) *fence {
	return &fence{cause: cause, commit: Commit{
		w:    w,
		done: closedChan,
		err:  fmt.Errorf("tkvwal: fenced: %w", cause),
	}}
}

var closedChan = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// Err returns the fencing failure, or nil while the log is healthy.
func (w *WAL) Err() error {
	if f := w.fenced.Load(); f != nil {
		return f.cause
	}
	return nil
}

// Failed returns a channel closed once the log is fenced: on the first
// write/fsync failure — the process-exit trigger for fail-stop — and
// also by Abandon and at the end of Close.
func (w *WAL) Failed() <-chan struct{} { return w.failedc }

// LastSeq returns the shard's last appended sequence number (after Open
// this is the recovered watermark the store resumes numbering from).
func (w *WAL) LastSeq(shard int) uint64 {
	s := w.shards[shard]
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appended
}

// Close flushes the lane and shuts the log down. Appends racing
// Close are either flushed or report ErrClosed; none park forever.
//
// Ordering: flush first, fence second. The ErrClosed fence is the only
// "closed" state there is — a separate flag raised before the flush
// would be a second publication for a racing Append to fall between (it
// used to fence the log with ErrClosed under an Abandon that had raised
// the flag but not yet fenced). An append that stages after the last
// flush is released by the fence with ErrClosed; its record is dropped
// with the file.
func (w *WAL) Close() error {
	w.stopOnce.Do(func() { close(w.stopc) })
	w.wg.Wait()
	var err error
	if w.fenced.Load() == nil {
		// Catch stragglers that appended after the loop's final flush.
		if err = w.flush(); err != nil {
			w.fail(err)
		}
	}
	if cerr := w.closeFiles(); err == nil {
		err = cerr
	}
	w.fail(ErrClosed)
	if err == nil {
		err = w.Err()
		if errors.Is(err, ErrClosed) || errors.Is(err, ErrAbandoned) {
			err = nil
		}
	}
	return err
}

// Abandon simulates a crash for tests: fence the log with ErrAbandoned
// and drop the files without flushing, discarding pending un-fsynced
// records the way SIGKILL would. Acknowledged records (Wait returned
// nil) are on disk; nothing else is promised. The directory can then be
// reopened by a fresh WAL. The fence is the first thing Abandon does, so
// every appender from here on — racing or later — reports ErrAbandoned.
func (w *WAL) Abandon() {
	w.fail(ErrAbandoned)
	w.wg.Wait()
	w.closeFiles()
}

// closeFiles closes the active segment.
func (w *WAL) closeFiles() (err error) {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	if w.f != nil {
		err = w.f.Close()
		w.f = nil
	}
	return err
}
