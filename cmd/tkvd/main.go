// Command tkvd serves the tkv sharded transactional key-value store over
// HTTP/JSON: single-key get/put/delete/cas/add fast paths, cross-shard
// atomic batches (including cas ops) admitted per key through striped
// key locks, batched multi-key reads (/mget), consistent snapshots and a
// /stats endpoint rendering the per-shard engine counters (commits, aborts,
// Shrink serializations, stripe waits, read-only fallbacks) through the
// internal/report table machinery. Each shard runs its own STM
// engine instance with its own scheduler, so this is the serving scenario
// the paper's thesis is about: prediction-based scheduling keeping
// throughput stable while many client connections hammer shared state.
//
// Alongside HTTP, tkvd serves the binary wire protocol (internal/tkvwire)
// on -tcpaddr: persistent pipelined connections with a zero-allocation
// get/put serving path. The binary port is the fast serving edge; HTTP
// stays up as the debug and tooling surface.
//
// tkvd replicates. A primary streams every committed write set
// (internal/tkvlog records) to followers over the wire port; a follower
// (-role follower -follow primary:port) replays the stream into its own
// store, serves stale-bounded reads, bounces writes with 421, and can be
// promoted to primary at any time with POST /promote. Graceful shutdown
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
// and truncates the logs periodically. The log is a set of lanes, each
// with its own file and group commit, and -walmode only says which shards
// share one: "shared" (the default) puts every shard in a single lane so
// the whole store shares one fsync per commit group — on one device, N
// shards' worth of fsyncs collapse into one; "pershard" gives every shard
// its own lane, for deployments that give shards independent media. A
// directory stays with the layout it was created in. A write or fsync error
// fail-stops the process — exit nonzero, no ack the disk might have lost
// — and tkvload -scenario crash is the SIGKILL drill proving acknowledged
// writes survive.
//
// Usage:
//
//	tkvd -addr 127.0.0.1:7070 -tcpaddr 127.0.0.1:7071 -shards 8 -sched shrink -stm swiss
//	tkvd -role follower -follow 127.0.0.1:7071 -addr 127.0.0.1:7072 -tcpaddr 127.0.0.1:7073
//	tkvd -wal /var/lib/tkvd/wal -walckpt 30s
//	tkvd -stm tiny -wait busy -sched none -tcpaddr "" -replring 0
//
// The server shuts down gracefully on SIGINT/SIGTERM or POST /quit,
// draining in-flight requests and the replication stream, then printing
// the final shard statistics.
package main

import (
	"context"
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
// shutdown. When ready is non-nil the bound HTTP address is sent on it once
// the listener is up, followed by the binary-protocol address when -tcpaddr
// is enabled.
func run(args []string, out io.Writer, ready chan<- string, stop <-chan struct{}) error {
	fs := flag.NewFlagSet("tkvd", flag.ContinueOnError)
	var (
		addr    = fs.String("addr", "127.0.0.1:7070", "HTTP listen address (debug surface)")
		tcpaddr = fs.String("tcpaddr", "127.0.0.1:7071",
			"binary wire protocol listen address (empty disables it)")
		shards  = fs.Int("shards", 8, "shard count (rounded up to a power of two)")
		pool    = fs.Int("pool", 4, "STM worker threads per shard (at most 64)")
		buckets = fs.Int("buckets", 512, "hash buckets per shard")
		stripes = fs.Int("stripes", 0,
			"key-lock stripes per shard, rounded up to a power of two (0 = default)")
		schedName = fs.String("sched", enginecfg.SchedShrink,
			"per-shard scheduler: none, shrink, ats, pool or adaptive")
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
			"WAL checkpoint interval: snapshot each lane's shards and "+
				"truncate its log (0 disables periodic checkpoints)")
		walMode = fs.String("walmode", string(tkvwal.ModeShared),
			"WAL layout: shared (one lane, one fsync covers every shard's "+
				"commit group) or pershard (one lane per shard, for "+
				"independent media)")
		admitDefaults = tkv.DefaultAdmitConfig()
		admit         = fs.Bool("admit", false,
			"enable the contention-aware admission layer (overload shedding, "+
				"wound-wait batch admission, adaptive stripes, predictor routing)")
		shedKnee = fs.Float64("shedknee", admitDefaults.ShedKnee,
			"overload score past which writes shed (<= 0: drill mode, always past the knee)")
		shedMax = fs.Float64("shedmax", admitDefaults.ShedMax,
			"shed probability ceiling in (0,1]")
		largeBatch = fs.Int("largebatch", admitDefaults.LargeBatchStripes,
			"stripe count at which a cross-shard batch queues for wound-wait admission")
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
		ac.LargeBatchStripes = *largeBatch
		ac.Tick = *admitTick
		admission = &ac
	}
	var wopts *tkvwal.Options
	if *waldir != "" {
		mode, err := tkvwal.ParseMode(*walMode)
		if err != nil {
			return fmt.Errorf("-walmode: %w", err)
		}
		wopts = &tkvwal.Options{
			Dir:             *waldir,
			NoSync:          *walAsync,
			CheckpointEvery: *walCkpt,
			Mode:            mode,
		}
	}
	store, err := tkv.Open(tkv.Config{
		Shards:      *shards,
		PoolSize:    *pool,
		Buckets:     *buckets,
		LockStripes: *stripes,
		Engine:      ef.Engine(),
		Scheduler:   *schedName,
		Wait:        wait,
		Admission:   admission,
		ReplRing:    *replring,
		WAL:         wopts,
	})
	if err != nil {
		return err
	}
	defer store.Close()
	if ws := store.Stats().Wal; ws != nil {
		r := ws.Recovery
		fmt.Fprintf(out, "tkvd: wal %s recovered: mode=%s ckpt_entries=%d replayed=%d skipped=%d truncated_bytes=%d segments=%d sync=%v\n",
			*waldir, ws.Mode, r.CheckpointEntries, r.Replayed, r.Skipped, r.TruncatedBytes, r.Segments, ws.Sync)
	}
	if *role == "follower" {
		store.SetReadOnly(true)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	admitLabel := "off"
	if admission != nil {
		admitLabel = fmt.Sprintf("knee=%g max=%g", admission.ShedKnee, admission.ShedMax)
	}
	fmt.Fprintf(out, "tkvd: serving on %s (%d shards, engine=%s, sched=%s, wait=%s, admit=%s, role=%s)\n",
		ln.Addr(), store.NumShards(), ef.Engine(), *schedName, ef.WaitLabel(), admitLabel, *role)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	// The operator surface wraps the KV handler: /promote turns a
	// follower into a writable primary (stopping its applier), /quit is
	// the remote form of SIGTERM — both POST-only.
	quitc := make(chan struct{})
	var quitOnce sync.Once
	var replMu sync.Mutex // guards follower handoff during promote
	var follower *tkvrepl.Follower
	mux := http.NewServeMux()
	mux.Handle("/", tkv.NewHandler(store))
	mux.HandleFunc("/promote", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		replMu.Lock()
		took := ""
		if follower != nil {
			// Let the applier finish what the old primary already wrote to
			// the socket (Stop alone would close it under the applier),
			// then say what is being taken ownership of: per shard, the
			// primary's head as last heard minus what was applied.
			fenced := follower.Drain(replDrainTimeout)
			follower.Stop()
			follower = nil
			var gap []uint64
			for _, sh := range store.Stats().Repl.Shards {
				gap = append(gap, sh.Lag)
			}
			took = fmt.Sprintf(" fenced=%v gap=%v", fenced, gap)
		}
		store.SetReadOnly(false)
		replMu.Unlock()
		fmt.Fprintf(out, "tkvd: promoted to primary%s\n", took)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"role":"primary"}`)
	})
	mux.HandleFunc("/quit", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		quitOnce.Do(func() { close(quitc) })
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "shutting down")
	})

	srv := &http.Server{Handler: mux}
	errc := make(chan error, 2)
	go func() { errc <- srv.Serve(ln) }()

	var wsrv *tkvwire.Server
	if *tcpaddr != "" {
		wln, err := net.Listen("tcp", *tcpaddr)
		if err != nil {
			srv.Close()
			return err
		}
		fmt.Fprintf(out, "tkvd: wire protocol on %s\n", wln.Addr())
		if ready != nil {
			ready <- wln.Addr().String()
		}
		wsrv = tkvwire.NewServer(store)
		go func() {
			if err := wsrv.Serve(wln); err != tkvwire.ErrServerClosed {
				errc <- err
			}
		}()
	}

	if *role == "follower" {
		f, err := tkvrepl.Start(store, *follow)
		if err != nil {
			srv.Close()
			if wsrv != nil {
				wsrv.Close()
			}
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
	if store.Repl() != nil && wsrv != nil && !store.ReadOnly() {
		store.SetReadOnly(true)
		if !wsrv.DrainRepl(replDrainTimeout) {
			fmt.Fprintln(out, "tkvd: replication drain timed out; followers must resync")
		}
	}
	if wsrv != nil {
		if err := wsrv.Close(); err != nil {
			return err
		}
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
		walLabel = fmt.Sprintf(" wal: mode=%s appends=%d fsyncs=%d group_mean=%.1f group_max=%d fsync_p99=%dµs bytes=%d pending_peak=%d ckpts=%d",
			w.Mode, w.Appends, w.Fsyncs, w.GroupMean, w.GroupMax, w.FsyncP99us, w.BytesAppended, w.PendingPeakBytes, w.Checkpoints)
	}
	fmt.Fprintf(out, "tkvd: drained; commits=%d aborts=%d serializations=%d shed=%d routed=%d ops: %+v%s%s\n",
		stats.Commits, stats.Aborts, stats.Serializations, stats.Shed, stats.Routed, stats.Ops, replLabel, walLabel)
	return nil
}
