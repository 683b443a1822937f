// poprouter fronts a fleet of popserved shards: a stateless HTTP router that
// places every instance on a shard by rendezvous-hashing its content
// fingerprint and proxies the full popserved API (uploads, solves, verify,
// delta sessions, downloads) to the owning shard. Shards share nothing — each
// runs its own registry, cache and solver pool — so fleet QPS scales with the
// shard count and a shard can be drained or replaced without touching the
// others.
//
// Usage:
//
//	poprouter -shards URL,URL,... [-addr :8090] [-replication N]
//	          [-max-inflight N] [-retry-after D] [-health-interval D]
//	          [-log-level debug|info|warn|error]
//
// -shards lists the popserved base URLs (comma-separated; a bare host:port
// gets http:// prefixed). Placement is a pure function of the shard list and
// the instance fingerprint, so every router over the same list agrees and a
// restart changes nothing.
//
// -replication R writes each upload to the top-R shards of its key's
// preference order and lets reads fail over between them; R=1 (the default)
// is plain partitioning.
//
// -max-inflight bounds the router's in-flight requests per shard; when every
// candidate shard for a request is at the bound the router sheds it with
// 429 and a Retry-After of -retry-after seconds instead of queueing.
//
// -health-interval sets the background /healthz probe period (0 = default
// 2s, negative disables). An unreachable shard is also marked unhealthy
// inline the moment a proxied connection fails; only a successful probe
// restores it.
//
// Observability mirrors popserved: GET /metrics exposes router counters, the
// proxy-latency histogram and per-shard labeled series (requests, errors,
// health, in-flight); GET /healthz reports router plus per-shard health;
// GET /v1/stats aggregates the fleet's counters and appends router_* keys.
// Every request logs one access line carrying its X-Request-Id, which is
// minted if absent and forwarded to the shard so one id follows a request
// across both processes.
//
// On startup it prints `poprouter listening on <addr>` to stdout, then
// serves until SIGINT/SIGTERM, drains in-flight requests and exits 0.
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
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/shard"
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

// parseShards splits the -shards flag into trimmed, non-empty base URLs.
func parseShards(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("poprouter: ")
	addr := flag.String("addr", ":8090", "listen address (host:port; :0 = kernel-chosen port)")
	shardsFlag := flag.String("shards", "", "comma-separated popserved base URLs (required)")
	replication := flag.Int("replication", 1, "write each instance to this many shards; reads fail over between them")
	maxInflight := flag.Int("max-inflight", 256, "in-flight requests per shard before the router sheds (0 = default, negative = unbounded)")
	retryAfter := flag.Duration("retry-after", time.Second, "Retry-After hint on shed (429) responses")
	healthInterval := flag.Duration("health-interval", 2*time.Second, "background /healthz probe period (negative disables)")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
	flag.Parse()

	shards := parseShards(*shardsFlag)
	if len(shards) == 0 {
		log.Fatal("-shards is required: a comma-separated list of popserved base URLs")
	}
	if *replication < 1 {
		log.Fatal("-replication must be >= 1")
	}
	level, err := parseLogLevel(*logLevel)
	if err != nil {
		log.Fatal(err)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	logger.Info("poprouter starting",
		slog.String("addr", *addr),
		slog.Any("shards", shards),
		slog.Int("replication", *replication),
		slog.Int("max_inflight", *maxInflight),
		slog.Duration("retry_after", *retryAfter),
		slog.Duration("health_interval", *healthInterval),
		slog.String("log_level", level.String()),
	)

	rt, err := shard.NewRouter(shard.Config{
		Shards:         shards,
		Replication:    *replication,
		MaxInflight:    *maxInflight,
		RetryAfter:     *retryAfter,
		HealthInterval: *healthInterval,
		Logger:         logger,
	})
	if err != nil {
		log.Fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	httpServer := &http.Server{Handler: shard.NewHandler(rt)}

	// Catch the shutdown signals before announcing the address: a script
	// that signals as soon as it reads the line must get the orderly
	// shutdown, not the default action.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	// The line CI and scripts wait for; stdout is flushed line-buffered.
	fmt.Printf("poprouter listening on %s\n", ln.Addr())
	os.Stdout.Sync()

	errc := make(chan error, 1)
	go func() { errc <- httpServer.Serve(ln) }()

	select {
	case s := <-sig:
		logger.Info("shutting down", slog.String("signal", s.String()))
	case err := <-errc:
		rt.Close()
		log.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpServer.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Warn("shutdown incomplete", slog.Any("error", err))
	}
	rt.Close()
}
