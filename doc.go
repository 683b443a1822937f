// Package repro reproduces Hu & Garg, "NC Algorithms for Popular Matchings
// in One-Sided Preference Systems and Related Problems" (IPDPS 2020).
//
// The public API lives in the popmatch and stablematch packages. Every
// solve is one popmatch.Request, and the recommended entry point for
// anything beyond a single computation is the reusable handle:
//
//	s := popmatch.NewSolver(popmatch.Options{})
//	defer s.Close()
//	res, err := s.SolveRequest(ctx, ins, popmatch.Request{Mode: popmatch.ModeMaxCard}) // context-cancellable
//
// A Solver runs on a persistent execution context (internal/exec): worker
// goroutines and scratch buffers survive across solves, and every parallel
// round boundary checks the context for cancellation. The package-level
// popmatch.SolveRequest runs one request on a throwaway Solver.
//
// Every solve surface dispatches through one mode-driven engine
// (internal/core, engine.go): a Request carries a Mode — popular, maxcard,
// ties, tiesmax, maxweight, minweight, rankmaximal, fair — from the single
// enum that core defines, popmatch re-exports, and internal/serve and the
// CLIs parse, so routing (capacitated clone reduction, strictness checks,
// cancellation, result recycling) exists once. The engine lives on the
// solve session's arena and owns an arena-resident kernel per path: the
// strict kernel (prebound loop closures over the CSR), the §V ties kernel
// (pooled rank-one graph G1 and pruned graph G′, Hopcroft–Karp/EOU scratch
// and the augmenting matching), a clone expansion cached per instance, and a
// pooled big.Int allocator for the positional-profile weights — so a
// reused Solver's SolveRequestInto reaches zero (strict, ties) or
// near-zero (capacitated, weighted) steady-state allocations in every
// mode; see popmatch/alloc_test.go and the CI allocation canary.
//
// Capacitated posts (CHA) are supported end to end: instances built with
// popmatch.NewCapacitated (or carrying a `c` capacity header in the text
// format) route through the post-cloning reduction onto the ties solver and
// fold back to a many-to-one Assignment; see the README's "Capacitated
// posts" section. A brute-force popularity oracle (internal/onesided)
// cross-validates both the unit and capacitated paths in the differential
// test suites, including "no popular matching exists" answers.
//
// On top of the Solver sits the serving layer (internal/serve, exposed by
// the cmd/popserved HTTP daemon): an instance registry keyed by content
// fingerprint (onesided.Instance.Fingerprint) holding immutable
// solver-ready snapshots, an LRU result cache keyed by (fingerprint, mode)
// that answers repeat queries without invoking the kernel, one shared solve
// per (fingerprint, mode) for concurrent cache misses (a flight on one of
// GOMAXPROCS solve slots, kept running while any request still waits for
// it), and admission control that fails fast when too many flights wait
// for a slot. `bash benchmark/run.sh` measures it (see BENCHMARK.json).
// See the README's "Serving" section for the curl walkthrough.
//
// The serving tier scales horizontally through the shard layer
// (internal/shard, exposed by the cmd/poprouter daemon): a stateless
// router that places every instance on a shard by rendezvous-hashing its
// content fingerprint over the shard list and proxies the full popserved
// API to the owner. Shards are shared-nothing popserved processes — each
// owns its registry, cache and solver pool — so placement is
// deterministic across routers and restarts, a solve through the router
// is bit-identical to a solve against the owning shard, and one shard is
// the degenerate case with unchanged single-process behavior. The router
// adds optional replication with read fail-over, per-shard health probes,
// in-flight bounds with 429+Retry-After load shedding, per-shard metric
// series and X-Request-Id propagation; the serve_hit_routed workload of
// bash benchmark/run.sh measures it over two shards. See the README's
// "Sharding" section.
//
// Observability is one dependency-free layer (internal/obs): atomic
// counters and gauges plus lock-free log2-bucketed latency histograms on a
// named registry with Prometheus text exposition. The serving layer hangs
// its counter block and three latency histograms (request duration by
// route, kernel solve, solve flight) on it — GET /metrics scrapes it, and
// popserved's -debug-addr adds a second listener carrying /metrics plus
// net/http/pprof. Per-solve tracing rides the same machinery one level
// down: popmatch.Request.Trace captures a SolveTrace — per-phase rounds,
// work and wall time (validate, build-reduced, peel, promote, splice) plus
// total barrier-wait — from solve-local atomics at <= 1 alloc per traced
// solve (a CI canary pins the overhead within 5% of an untraced solve);
// the HTTP surface exposes it as "trace": true and the CLI as popmatch
// -trace. Logs are structured (log/slog): serve.Config.Logger receives one
// access line per request carrying the X-Request-Id (echoed or minted),
// which error bodies repeat as request_id. See the README's
// "Observability" section.
//
// Mutating workloads use the delta layer instead of re-uploading:
// onesided.Instance carries a mutation API (SetPreferences, AddApplicant,
// RemoveApplicant, SetCapacity) that patches the cached CSR in place,
// journals each edit and advances an epoch with an incrementally-maintained
// fingerprint; popmatch.DeltaSession (Solver.SolveDelta/SolveDeltaInto)
// warm-starts the next solve from the previous matching: it updates (f, s)
// and an index of G′ for the edited rows, searches that index for the G′
// components the edit touches and re-peels only those — bit-identical to a
// full solve, at a cost that follows the edit rather than the instance,
// with a transparent full-solve fallback when the dirty region outgrows the
// warm thresholds. Over HTTP (internal/serve) the same machinery is a
// session: a mutable fork of a registered snapshot with serialized
// mutations and one result-cache line per (session, mode), replaced epoch
// by epoch (POST /v1/sessions, .../mutations, .../solve).
// bash benchmark/run.sh --workload session_churn measures it end to end.
// See the README's "Delta solves" section.
//
// Instances enter the system through two wire formats: the line-oriented
// text format (for humans) and a versioned little-endian columnar binary
// format that mirrors the CSR core exactly (onesided.EncodeBinary /
// DecodeBinary, magic "\x89PMC\r\n\x1a\n"), so an uploaded or on-disk
// instance is validated in one bounds-checking pass and aliased — or
// mmap'd via onesided.MapBinaryFile — straight into the kernel with zero
// conversion, streaming the content fingerprint during that same pass.
// popmatch re-exports ReadAuto/ReadBinary/WriteBinary; every CLI ingest
// path auto-detects the format by magic, the serve upload endpoint
// negotiates it by Content-Type (415 otherwise), and `popserved -store`
// persists the registry as binary files re-mmap'd on restart.
// BenchmarkIngest (internal/onesided) prices the alias decode against the
// text parser.
//
// Internally every solver layer shares one flat instance representation:
// the CSR core (internal/onesided.CSR) — preference lists concatenated into
// three contiguous Off/Post/Rank arrays, derived once per Instance and
// cached (capacitated instances additionally cache their clone expansion,
// Instance.Expanded). An Instance is consequently immutable once solved or
// queried; mutate-then-Invalidate is the documented escape hatch, enforced
// by `-tags debug` builds. See the README's "Architecture" section for the
// layer stack (onesided → core engine → exec → popmatch → serve → shard →
// cmd) and when CSR vs Instance is the right type.
//
// The paper's PRAM rounds run on the internal/par substrate: a persistent
// worker pool driven by a chunk-claiming round scheduler. Each
// bulk-synchronous round publishes one cache-line-padded descriptor;
// workers claim fixed-grain index chunks off a single atomic cursor (no
// per-chunk channel handoff, no full-barrier recruitment), spin briefly
// before parking, and the shared grain policy (par.Grain / par.RowGrain
// with the par.MinGrain floor) sizes chunks to amortize the claim and
// align bit-matrix work to whole cache lines of words. par.Grain keeps an
// element-wise loop shorter than its measured break-even (2¹⁷ elements)
// as one chunk on the caller, where helpers did not pay. Worker count never
// changes results: the corpus-wide differential test pins every engine
// mode bit-identical at workers 1/2/8 under -race, and
// BenchmarkStrictWorkers (popmatch) times one worker against four with the
// same identity check. See the README's "Parallelism" section.
//
// The parallel substrate and algorithm internals are under internal/; see
// README.md for the package map. go test checks the paper's lemmas and
// theorems on generated instances; TestTracerRoundsPolylog (internal/core)
// and TestAlgorithm4RoundsPolylog (internal/stable) pin the NC bounds as
// rounds ≤ c₁·L² and work ≤ c₂·N·L, and print every measured ratio under
// -v. The benchmarks in bench_test.go time the same quantities and gate
// nothing. End-to-end performance is measured by bash benchmark/run.sh.
package repro
