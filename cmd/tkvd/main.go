// Command tkvd serves the tkv sharded transactional key-value store over
// the binary wire protocol (internal/tkvwire) on -tcpaddr, its one data
// surface: persistent pipelined connections carrying single-key
// get/put/delete/cas/add fast paths (the get/put serving path allocates
// nothing), cross-shard atomic batches (including cas ops) and multi-key
// reads, each one STM transaction across its shards, consistent snapshots
// and the per-shard engine counters (commits, aborts, scheduler
// serializations, gate waits, read-only fallbacks). The store runs one STM
// engine with one scheduler over all its shards, so this is the serving
// scenario the paper's thesis is about: prediction-based scheduling keeping
// throughput stable while many client connections hammer shared state.
//
// On -addr, tkvd serves the operator's HTTP surface and nothing else:
//
//	GET  /healthz  -> {"status":"ok","wire":"<the wire address>"}
//	GET  /stats    -> the stats as JSON; ?format=text renders the table
//	POST /promote  -> turn a follower into a writable primary
//	POST /quit     -> graceful shutdown, the remote form of SIGTERM
//
// tkvd replicates. A primary streams every committed write set
// (internal/tkvlog records) to followers over the wire port; a follower
// (-role follower -follow primary:port) replays the stream into its own
// store, serves stale-bounded reads, bounces writes with the wire's
// not-primary status, and can be promoted to primary at any time with
// POST /promote. Graceful shutdown
// fences writes (a barrier: no write that passed the gate is still in
// flight when the fence returns) and drains the replication stream first;
// /promote lets the applier read that stream to its fence before stopping
// it and prints what it took over ("promoted to primary fenced=true gap=[0 0]"),
// so a drained follower is exactly up to date — the kill-and-recover drill
// in tkvload -scenario failover loses nothing.
//
// tkvd persists. With -wal <dir> every committed write set is appended to
// a write-ahead log and acknowledged only once its group-commit fsync
// completes; on start the directory is recovered (checkpoints, then log
// tails, truncating a torn tail) before serving, and -walckpt snapshots
// and truncates the log periodically. The log is one lane that owns every
// shard, so the whole store shares one fsync per commit group. A directory
// stays with the shard count it was created with. A write or fsync error
// fail-stops the process — exit nonzero, no ack the disk might have lost
// — and tkvload -scenario crash is the SIGKILL drill proving acknowledged
// writes survive.
//
// Usage:
//
//	tkvd -addr 127.0.0.1:7070 -tcpaddr 127.0.0.1:7071 -shards 8 -sched shrink -stm swiss
//	tkvd -role follower -follow 127.0.0.1:7071 -addr 127.0.0.1:7072 -tcpaddr 127.0.0.1:7073
//	tkvd -wal /var/lib/tkvd/wal -walckpt 30s
//	tkvd -stm tiny -wait busy -sched none -replring 0
//
// The server shuts down gracefully on SIGINT/SIGTERM or POST /quit,
// draining in-flight requests and the replication stream, then printing
// the final shard statistics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"github.com/shrink-tm/shrink/internal/enginecfg"
	"github.com/shrink-tm/shrink/internal/tkv"
	"github.com/shrink-tm/shrink/internal/tkvrepl"
	"github.com/shrink-tm/shrink/internal/tkvwal"
	"github.com/shrink-tm/shrink/internal/tkvwire"
)

// replDrainTimeout bounds both ends of a handover: a stopping primary
// waiting for its followers to take the fence, and a follower being
// promoted waiting for that fence (or the primary's death) to arrive.
const replDrainTimeout = 3 * time.Second

func main() {
	if err := run(os.Args[1:], os.Stdout, nil, nil); err != nil {
		fmt.Fprintln(os.Stderr, "tkvd:", err)
		os.Exit(1)
	}
}

// run starts the servers and blocks until a termination signal (or a close
// of the test-only stop channel, or POST /quit) triggers the graceful
// shutdown. When ready is non-nil the bound HTTP address and then the wire
// address are sent on it once both listeners are up.
func run(args []string, out io.Writer, ready chan<- string, stop <-chan struct{}) error {
	fs := flag.NewFlagSet("tkvd", flag.ContinueOnError)
	var (
		addr = fs.String("addr", "127.0.0.1:7070",
			"HTTP listen address (operator surface: /healthz, /stats, /promote, /quit)")
		tcpaddr = fs.String("tcpaddr", "127.0.0.1:7071",
			"binary wire protocol listen address (the data surface)")
		shards    = fs.Int("shards", 8, "shard count (rounded up to a power of two)")
		pool      = fs.Int("pool", 4, "STM worker threads per shard (at most 64)")
		buckets   = fs.Int("buckets", 512, "hash buckets per shard")
		schedName = fs.String("sched", enginecfg.SchedShrink,
			"per-shard scheduler: none, shrink, ats or pool")
		role = fs.String("role", "primary",
			"replication role: primary (serves writes, streams to followers) or "+
				"follower (replays a primary, serves reads, POST /promote to take over)")
		follow = fs.String("follow", "",
			"primary's wire address to replicate from (required with -role follower)")
		replring = fs.Int("replring", 1024,
			"replicated write sets retained per shard for follower catch-up "+
				"(0 disables replication entirely)")
		waldir = fs.String("wal", "",
			"write-ahead log directory: writes are acknowledged only once "+
				"fsync-durable and the directory is recovered on start "+
				"(empty disables durability)")
		walAsync = fs.Bool("walasync", false,
			"do not park acks on fsync (async WAL): faster, but a crash can "+
				"lose the un-synced tail")
		walCkpt = fs.Duration("walckpt", 0,
			"WAL checkpoint interval: snapshot every shard and truncate "+
				"the log (0 disables periodic checkpoints)")
		admitDefaults = tkv.DefaultAdmitConfig()
		admit         = fs.Bool("admit", false,
			"enable the admission layer: each shard sheds writes, and batches at "+
				"twice the rate, with backpressure once past -shedknee")
		shedKnee = fs.Float64("shedknee", admitDefaults.ShedKnee,
			"overload score past which writes shed (<= 0: drill mode, always past the knee)")
		shedMax = fs.Float64("shedmax", admitDefaults.ShedMax,
			"shed probability ceiling in (0,1]")
		admitTick = fs.Duration("admittick", admitDefaults.Tick,
			"admission controller tick")
	)
	ef := enginecfg.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	wait, err := ef.WaitPolicy()
	if err != nil {
		return err
	}
	if *tcpaddr == "" {
		return fmt.Errorf("-tcpaddr must not be empty: the wire protocol is the store's only data surface")
	}
	switch *role {
	case "primary":
		if *follow != "" {
			return fmt.Errorf("-follow is only meaningful with -role follower")
		}
	case "follower":
		if *follow == "" {
			return fmt.Errorf("-role follower requires -follow (the primary's wire address)")
		}
		if *replring <= 0 {
			return fmt.Errorf("-role follower requires a replication ring (-replring > 0)")
		}
	default:
		return fmt.Errorf("unknown -role %q (primary or follower)", *role)
	}
	var admission *tkv.AdmitConfig
	if *admit {
		ac := admitDefaults
		ac.ShedKnee = *shedKnee
		ac.ShedMax = *shedMax
		ac.Tick = *admitTick
		admission = &ac
	}
	var wopts *tkvwal.Options
	if *waldir != "" {
		wopts = &tkvwal.Options{
			Dir:             *waldir,
			NoSync:          *walAsync,
			CheckpointEvery: *walCkpt,
		}
	}
	store, err := tkv.Open(tkv.Config{
		Shards:    *shards,
		PoolSize:  *pool,
		Buckets:   *buckets,
		Engine:    ef.Engine(),
		Scheduler: *schedName,
		Wait:      wait,
		Admission: admission,
		ReplRing:  *replring,
		WAL:       wopts,
	})
	if err != nil {
		return err
	}
	defer store.Close()
	if ws := store.Stats().Wal; ws != nil {
		r := ws.Recovery
		fmt.Fprintf(out, "tkvd: wal %s recovered: ckpt_entries=%d replayed=%d skipped=%d truncated_bytes=%d segments=%d sync=%v\n",
			*waldir, r.CheckpointEntries, r.Replayed, r.Skipped, r.TruncatedBytes, r.Segments, ws.Sync)
	}
	if *role == "follower" {
		store.SetReadOnly(true)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	wln, err := net.Listen("tcp", *tcpaddr)
	if err != nil {
		ln.Close()
		return err
	}
	admitLabel := "off"
	if admission != nil {
		admitLabel = fmt.Sprintf("knee=%g max=%g", admission.ShedKnee, admission.ShedMax)
	}
	fmt.Fprintf(out, "tkvd: serving wire on %s, http on %s (%d shards, engine=%s, sched=%s, wait=%s, admit=%s, role=%s)\n",
		wln.Addr(), ln.Addr(), store.NumShards(), ef.Engine(), *schedName, ef.WaitLabel(), admitLabel, *role)
	if ready != nil {
		ready <- ln.Addr().String()
		ready <- wln.Addr().String()
	}

	// The operator surface; every data verb is the wire protocol's.
	// /promote turns a follower into a writable primary (stopping its
	// applier), /quit is the remote form of SIGTERM.
	quitc := make(chan struct{})
	var quitOnce sync.Once
	var replMu sync.Mutex // guards follower handoff during promote
	var follower *tkvrepl.Follower
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, map[string]string{"status": "ok", "wire": wln.Addr().String()})
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		stats := store.Stats()
		if r.URL.Query().Get("format") != "text" {
			writeJSON(w, stats)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		stats.Table().WriteText(w)
		fmt.Fprintf(w, "totals: commits=%d aborts=%d userAborts=%d serializations=%d\n",
			stats.Commits, stats.Aborts, stats.UserAborts, stats.Serializations)
	})
	mux.HandleFunc("POST /promote", func(w http.ResponseWriter, r *http.Request) {
		replMu.Lock()
		took := ""
		if follower != nil {
			// Per shard, the gap is the primary's head as last heard minus
			// what was applied: what this promotion did not take over.
			fenced, gap := follower.Promote(replDrainTimeout)
			follower = nil
			took = fmt.Sprintf(" fenced=%v gap=%v", fenced, gap)
		}
		store.SetReadOnly(false)
		replMu.Unlock()
		fmt.Fprintf(out, "tkvd: promoted to primary%s\n", took)
		writeJSON(w, map[string]string{"role": "primary"})
	})
	mux.HandleFunc("POST /quit", func(w http.ResponseWriter, r *http.Request) {
		quitOnce.Do(func() { close(quitc) })
		fmt.Fprintln(w, "shutting down")
	})

	srv := &http.Server{Handler: mux}
	errc := make(chan error, 2)
	go func() { errc <- srv.Serve(ln) }()
	wsrv := tkvwire.NewServer(store)
	go func() {
		if err := wsrv.Serve(wln); err != tkvwire.ErrServerClosed {
			errc <- err
		}
	}()

	if *role == "follower" {
		f, err := tkvrepl.Start(store, func() (net.Conn, error) { return net.Dial("tcp", *follow) })
		if err != nil {
			srv.Close()
			wsrv.Close()
			return err
		}
		replMu.Lock()
		follower = f
		replMu.Unlock()
		fmt.Fprintf(out, "tkvd: following %s\n", *follow)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)

	select {
	case err := <-errc:
		return err
	case <-store.WalFailed():
		// Fail-stop: the log is fenced, no further ack can be honored, and
		// a graceful drain would only pretend otherwise. Exit nonzero at
		// once; the supervisor restarts us into recovery. (A nil channel
		// — no WAL — never fires.)
		return fmt.Errorf("wal failed (fail-stop): %w", store.WalErr())
	case s := <-sig:
		fmt.Fprintf(out, "tkvd: %v, shutting down\n", s)
	case <-quitc:
		fmt.Fprintln(out, "tkvd: quit requested, shutting down")
	case <-stop:
		fmt.Fprintln(out, "tkvd: stop requested, shutting down")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// A stopping follower just detaches; a stopping primary fences writes
	// and drains its streams first, so every acknowledged write reaches
	// the followers before the sockets close — the zero-loss half of the
	// failover contract.
	replMu.Lock()
	if follower != nil {
		follower.Stop()
		follower = nil
	}
	replMu.Unlock()
	// The drain fence below flips the store read-only, which would make
	// the final stats line claim "follower"; report the role served.
	finalRole := "primary"
	if store.ReadOnly() {
		finalRole = "follower"
	}
	if store.Repl() != nil && !store.ReadOnly() {
		store.SetReadOnly(true)
		if !wsrv.DrainRepl(replDrainTimeout) {
			fmt.Fprintln(out, "tkvd: replication drain timed out; followers must resync")
		}
	}
	if err := wsrv.Close(); err != nil {
		return err
	}
	if err := srv.Shutdown(ctx); err != nil {
		return err
	}
	stats := store.Stats()
	replLabel := ""
	if r := stats.Repl; r != nil {
		replLabel = fmt.Sprintf(" repl: role=%s lag=%d applied=%d overflows=%d resyncs=%d",
			finalRole, r.Lag, r.AppliedRecs, r.Overflows, r.Resyncs)
	}
	walLabel := ""
	if w := stats.Wal; w != nil {
		walLabel = fmt.Sprintf(" wal: appends=%d fsyncs=%d group_mean=%.1f group_max=%d fsync_p99=%dµs bytes=%d pending_peak=%d ckpts=%d",
			w.Appends, w.Fsyncs, w.GroupMean, w.GroupMax, w.FsyncP99us, w.BytesAppended, w.PendingPeakBytes, w.Checkpoints)
	}
	fmt.Fprintf(out, "tkvd: drained; commits=%d aborts=%d serializations=%d shed=%d ops: %+v%s%s\n",
		stats.Commits, stats.Aborts, stats.Serializations, stats.Shed, stats.Ops, replLabel, walLabel)
	return nil
}

// writeJSON answers 200 with v as JSON.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
