// popserved serves popular-matching solves over HTTP: a daemon wrapping the
// internal/serve request layer (instance registry, LRU result cache, one
// shared solve per (instance, mode) on one solver pool, admission control).
//
// Usage:
//
//	popserved [-addr :8080] [-workers N] [-cache N] [-max-instances N]
//	          [-max-sessions N] [-max-queue N] [-solve-timeout D]
//	          [-store DIR] [-debug-addr ADDR]
//	          [-log-level debug|info|warn|error]
//
// -store persists the instance registry to DIR: uploads are written there
// in the binary format (one <fingerprint>.pmb file each) and mmap'd back on
// the next boot, so a restart re-serves every instance without re-parsing
// anything (the stats counter store_loaded reports how many).
//
// Observability: GET /metrics on the main listener exposes every server
// metric in Prometheus text format (request/solve/flight latency
// histograms, the counter block, per-mode solve counters). -debug-addr
// starts a second listener serving /metrics plus the net/http/pprof
// profiling surface under /debug/pprof/ — kept off the public address so
// profiling is never reachable from solve traffic. Logs are structured
// (log/slog, text format, stderr); -log-level selects the floor, and each
// HTTP request logs one access line at info carrying its request id (the
// X-Request-Id response header).
//
// On startup it prints one line, `popserved listening on <addr>`, to stdout
// (with -addr :0 the kernel-chosen port appears there), then serves until
// SIGINT/SIGTERM, at which point it stops accepting, drains in-flight
// requests and exits 0.
//
// The API (see internal/serve): POST /v1/instances uploads an instance —
// text or binary format, negotiated by Content-Type and sniffed by magic
// for generic types — and returns its content fingerprint as its id; POST /v1/solve
// solves {"instance": id, "mode": m} for any mode of the shared engine enum
// (popular|maxcard|ties|tiesmax|maxweight|minweight|rankmaximal|fair);
// POST /v1/verify checks a per-applicant post vector for popularity;
// GET /v1/instances lists, DELETE /v1/instances/{id} evicts; GET /v1/stats
// and GET /healthz observe.
//
// Delta sessions re-match a mutating instance incrementally: POST
// /v1/sessions forks a mutable session off a registered instance, POST
// /v1/sessions/{id}/mutations applies edits (set_preferences, add_applicant,
// remove_applicant, set_capacity), and POST /v1/sessions/{id}/solve
// re-matches — warm-starting from the previous solution when only a few
// rows changed, bit-identical to a full solve. GET/DELETE /v1/sessions{,/id}
// list, inspect and end sessions.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/serve"
)

// parseLogLevel maps the -log-level flag to a slog level.
func parseLogLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	default:
		return 0, fmt.Errorf("-log-level must be debug, info, warn or error (got %q)", s)
	}
}

// newDebugHandler builds the -debug-addr surface: the pprof profiling
// endpoints and a second /metrics, so an operator can scrape and profile
// without touching the public listener.
func newDebugHandler(srv *serve.Server) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = srv.WriteMetrics(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("popserved: ")
	addr := flag.String("addr", ":8080", "listen address (host:port; :0 = kernel-chosen port)")
	workers := flag.Int("workers", 0, "solver pool size (0 = all CPUs)")
	cache := flag.Int("cache", 1024, "result cache capacity in entries (0 disables)")
	maxInstances := flag.Int("max-instances", 1024, "instance registry capacity (0 = unbounded)")
	maxSessions := flag.Int("max-sessions", 256, "live delta-session capacity (0 = unbounded)")
	maxQueue := flag.Int("max-queue", 1024, "solves that may wait for a solve slot before admission control rejects")
	solveTimeout := flag.Duration("solve-timeout", 0, "server-side cap on a single solve (0 = request context only)")
	storeDir := flag.String("store", "", "persist uploaded instances to this directory and re-serve them on restart")
	debugAddr := flag.String("debug-addr", "", "serve /metrics and /debug/pprof/ on this extra address (empty = off)")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
	flag.Parse()
	if *maxQueue < 1 {
		log.Fatal("-max-queue must be >= 1")
	}
	if *cache < 0 || *maxInstances < 0 || *maxSessions < 0 || *solveTimeout < 0 {
		log.Fatal("-cache, -max-instances, -max-sessions and -solve-timeout must be >= 0")
	}
	level, err := parseLogLevel(*logLevel)
	if err != nil {
		log.Fatal(err)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	// On the flag surface zero means "off" (no cache, no registry bound);
	// serve.Config spells "off" with negative sentinels because its zero
	// value means "use defaults".
	cfg := serve.Config{
		Workers:      *workers,
		CacheSize:    *cache,
		MaxInstances: *maxInstances,
		MaxSessions:  *maxSessions,
		MaxQueue:     *maxQueue,
		SolveTimeout: *solveTimeout,
		StoreDir:     *storeDir,
		Logger:       logger,
	}
	if *cache == 0 {
		cfg.CacheSize = -1
	}
	if *maxInstances == 0 {
		cfg.MaxInstances = -1
	}
	if *maxSessions == 0 {
		cfg.MaxSessions = -1
	}
	// The startup banner logs the resolved configuration once at info, so a
	// deployment's effective knobs are always recoverable from its log head.
	logger.Info("popserved starting",
		slog.String("addr", *addr),
		slog.Int("workers", *workers),
		slog.Int("cache", *cache),
		slog.Int("max_instances", *maxInstances),
		slog.Int("max_sessions", *maxSessions),
		slog.Int("max_queue", *maxQueue),
		slog.Duration("solve_timeout", *solveTimeout),
		slog.String("store", *storeDir),
		slog.String("debug_addr", *debugAddr),
		slog.String("log_level", level.String()),
	)

	srv, err := serve.Open(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if n := srv.Stats()["store_loaded"]; n > 0 {
		logger.Info("restored instances from store", slog.Int64("instances", n), slog.String("store", *storeDir))
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	httpServer := &http.Server{Handler: serve.NewHandler(srv)}

	var debugServer *http.Server
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			log.Fatal(err)
		}
		debugServer = &http.Server{Handler: newDebugHandler(srv)}
		go func() {
			if err := debugServer.Serve(dln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug listener failed", slog.Any("error", err))
			}
		}()
		logger.Info("debug listener up", slog.String("addr", dln.Addr().String()))
	}

	// Catch the shutdown signals before announcing the address: a script
	// that signals as soon as it reads the line must get the orderly
	// shutdown, not the default action.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	// The line CI and scripts wait for; stdout is flushed line-buffered.
	fmt.Printf("popserved listening on %s\n", ln.Addr())
	os.Stdout.Sync()

	errc := make(chan error, 1)
	go func() { errc <- httpServer.Serve(ln) }()

	select {
	case s := <-sig:
		logger.Info("shutting down", slog.String("signal", s.String()))
	case err := <-errc:
		srv.Close()
		log.Fatal(err)
	}

	// Orderly shutdown: stop accepting, give in-flight requests a grace
	// window, then release the serving layer (waiting solves fail, running
	// ones finish, the solver pool stops at quiescence).
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if debugServer != nil {
		_ = debugServer.Shutdown(ctx)
	}
	if err := httpServer.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Warn("shutdown incomplete", slog.Any("error", err))
	}
	srv.Close()
}
