// Command lrserved runs the verification service: an HTTP JSON API over a
// bounded job queue, a lease coordinator that dispatches each job to one
// of -workers in-process verification workers, and a content-addressed
// result cache (see internal/service). A result enters the cache only as
// the outcome of a job the service dispatched; no endpoint stores a
// result by cache key.
//
// Usage:
//
//	lrserved                                  # listen on :8420
//	lrserved -addr :9000 -workers 8 -cache-dir /var/cache/lrserved
//
// Submit a spec and wait for the verdict:
//
//	curl -s localhost:8420/v1/verify -d '{
//	  "spec": "protocol p\ndomain 2\nwindow 0 1\nlegit x[0] == x[1]\naction f: x[0] != x[1] -> x[0] := x[1]\n",
//	  "options": {"cross_validate_max_k": 6},
//	  "wait": true
//	}'
//
// Or submit asynchronously and poll:
//
//	curl -s localhost:8420/v1/verify -d '{"spec": "..."}'   # -> {"id": "job-000001", ...}
//	curl -s localhost:8420/v1/jobs/job-000001
//	curl -s localhost:8420/v1/jobs?state=quarantined
//	curl -s localhost:8420/healthz
//	curl -s localhost:8420/metrics
//
// With -cache-dir set, submissions are journaled before they are
// enqueued: a crash or kill replays unfinished jobs on the next start,
// and jobs whose retries are exhausted land in a persistent quarantine.
//
// Every lrserved is a coordinator: it owns the queue, journal, and lease
// table, and its in-process workers pull jobs under heartbeat-renewed
// leases. -workers, -mem-budget-bytes (a budget the in-process workers
// share), -lease-ttl and -heartbeat-interval tune them the same way on a
// single node and in cluster mode. -coordinator only decides whether
// worker processes may join over HTTP and pull jobs beside them; without
// it the worker protocol (/cluster/v1/*) answers 404:
//
//	lrserved -coordinator -cache-dir /var/cache/lrserved          # coordinator
//	lrserved -join http://coordinator:8420 -addr :8421            # worker node
//
// A -join worker keeps no result cache and no journal: it returns every
// verdict to the coordinator, which alone caches it, so -cache-size and
// -cache-dir apply to the coordinator and the single node only. Its
// listener serves /healthz and nothing else.
//
// A -join worker that dies, hangs, or partitions mid-job loses its lease
// after -lease-ttl without a heartbeat and the job re-dispatches with
// backoff; -heartbeat-interval must stay below -lease-ttl. See
// ARCHITECTURE.md for the lease state machine and failure domains.
//
// With -pprof-addr set, a second listener serves the profiling surface
// (net/http/pprof plus a runtime/trace capture endpoint) separately from
// the public API:
//
//	lrserved -pprof-addr 127.0.0.1:6060
//	go tool pprof http://127.0.0.1:6060/debug/pprof/profile?seconds=10
//	curl -o trace.out 'http://127.0.0.1:6060/debug/trace?seconds=5'
//	go tool trace trace.out
//
// See PERFORMANCE.md for a worked capture session.
//
// SIGINT/SIGTERM drains gracefully: submissions are rejected, queued jobs
// finish, and a second deadline cancels whatever is still running.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"syscall"
	"time"

	"paramring/internal/cli"
	"paramring/internal/service"
)

// validateFlags fails fast — before any socket binds or journal opens —
// on configurations that would otherwise surface as confusing runtime
// behavior: negative resource bounds, inverted timeouts, a cache
// directory the process cannot write (the journal's fsync guarantees are
// worthless on a read-only mount).
func validateFlags(queue, workers, engineWorkers, cacheSize, maxAttempts int,
	jobTimeout, maxTimeout, drain, retryBase time.Duration, cacheDir string) error {
	switch {
	case queue < 0:
		return fmt.Errorf("-queue must be >= 0, got %d", queue)
	case workers < 0:
		return fmt.Errorf("-workers must be >= 0, got %d", workers)
	case engineWorkers < 0:
		return fmt.Errorf("-engine-workers must be >= 0, got %d", engineWorkers)
	case cacheSize < 0:
		return fmt.Errorf("-cache-size must be >= 0, got %d", cacheSize)
	case maxAttempts < 0:
		return fmt.Errorf("-max-attempts must be >= 0, got %d", maxAttempts)
	case jobTimeout <= 0:
		return fmt.Errorf("-job-timeout must be positive, got %v", jobTimeout)
	case maxTimeout <= 0:
		return fmt.Errorf("-max-job-timeout must be positive, got %v", maxTimeout)
	case maxTimeout < jobTimeout:
		return fmt.Errorf("-max-job-timeout %v is below -job-timeout %v", maxTimeout, jobTimeout)
	case drain <= 0:
		return fmt.Errorf("-drain-timeout must be positive, got %v", drain)
	case retryBase < 0:
		return fmt.Errorf("-retry-base-delay must be >= 0, got %v", retryBase)
	}
	if cacheDir != "" {
		if err := os.MkdirAll(cacheDir, 0o755); err != nil {
			return fmt.Errorf("-cache-dir: %w", err)
		}
		probe, err := os.CreateTemp(cacheDir, ".lrserved-probe-*")
		if err != nil {
			return fmt.Errorf("-cache-dir %s is not writable: %w", cacheDir, err)
		}
		probe.Close()
		os.Remove(probe.Name())
	}
	return nil
}

// validateClusterFlags rejects cluster topologies that cannot work: a
// node cannot be coordinator and worker at once, a join target must be a
// well-formed http(s) URL, and a lease that dies faster than its own
// renewal cadence would expire every job mid-heartbeat.
func validateClusterFlags(coordinator bool, join string, leaseTTL, heartbeat time.Duration) error {
	switch {
	case coordinator && join != "":
		return fmt.Errorf("-coordinator and -join are mutually exclusive: a node is either the coordinator or a worker")
	case leaseTTL <= 0:
		return fmt.Errorf("-lease-ttl must be positive, got %v", leaseTTL)
	case heartbeat <= 0:
		return fmt.Errorf("-heartbeat-interval must be positive, got %v", heartbeat)
	case leaseTTL <= heartbeat:
		return fmt.Errorf("-lease-ttl %v must exceed -heartbeat-interval %v (a lease must survive at least one missed renewal)", leaseTTL, heartbeat)
	}
	if join != "" {
		u, err := url.Parse(join)
		if err != nil {
			return fmt.Errorf("-join %q: %v", join, err)
		}
		if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return fmt.Errorf("-join %q: want an http(s) base URL like http://coordinator:8420", join)
		}
	}
	return nil
}

// workerConfig carries the flag subset a -join worker node uses.
type workerConfig struct {
	addr, coordinator, id string
	memBudget             uint64
	slots                 int
	specCacheSize         int
}

// runWorker is the -join main loop: serve the worker's health surface on
// addr, pull tasks from the coordinator until SIGINT/SIGTERM.
func runWorker(cfg workerConfig) {
	node, err := service.NewWorkerNode(service.WorkerNodeConfig{
		Coordinator:    cfg.coordinator,
		ID:             cfg.id,
		MemBudgetBytes: cfg.memBudget,
		Slots:          cfg.slots,
		SpecCacheSize:  cfg.specCacheSize,
	})
	if err != nil {
		cli.Exit("lrserved", 1, err)
	}

	srv := &http.Server{
		Addr:              cfg.addr,
		Handler:           node.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 2)
	go func() { errc <- srv.ListenAndServe() }()
	go func() { errc <- node.Run(ctx) }()
	fmt.Printf("lrserved: worker serving on %s, joining %s\n", cfg.addr, cfg.coordinator)

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			cli.Exit("lrserved", 1, err)
		}
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = srv.Shutdown(shutdownCtx)
	fmt.Println("lrserved: worker stopped")
}

func main() {
	defer cli.ExitOnPanic("lrserved")
	addr := flag.String("addr", ":8420", "listen address")
	queue := flag.Int("queue", 256, "job queue bound")
	workers := flag.Int("workers", 0, "in-process verification workers (0 = GOMAXPROCS); with -join, the tasks this worker runs at once (0 = 1)")
	engineWorkers := flag.Int("engine-workers", 1, "explicit-engine workers per job")
	jobTimeout := flag.Duration("job-timeout", 60*time.Second, "default per-job deadline")
	maxTimeout := flag.Duration("max-job-timeout", 10*time.Minute, "clamp for client-supplied deadlines")
	cacheSize := flag.Int("cache-size", 1024, "in-memory result cache entries (unused with -join: workers keep no result cache)")
	cacheDir := flag.String("cache-dir", "", "directory for the persistent result cache and job journal (empty = memory only, no crash recovery; unused with -join)")
	drain := flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget before in-flight jobs are canceled")
	maxAttempts := flag.Int("max-attempts", 3, "execution attempts per job before poison quarantine")
	retryBase := flag.Duration("retry-base-delay", 100*time.Millisecond, "first retry backoff (doubles per attempt, jittered, capped at 30s)")
	memBudget := flag.Uint64("mem-budget-bytes", 0, "explicit-engine table budget the in-process workers share; jobs estimated over it are rejected or degraded (0 = unlimited); with -join, the budget this worker advertises")
	degrade := flag.Bool("degrade-over-budget", false, "run over-budget jobs degraded (1 engine worker, budget-clamped state limit) instead of rejecting them")
	specCacheSize := flag.Int("spec-cache-size", 1024, "compiled-spec cache entries (parse/compile memoization keyed by the canonical spec rendering)")
	pprofAddr := flag.String("pprof-addr", "", "listen address for the pprof/trace profiling endpoints (empty = profiling off); bind to localhost in production")
	coordinator := flag.Bool("coordinator", false, "let -join worker processes join and pull jobs beside the in-process workers (mounts /cluster/v1/*)")
	join := flag.String("join", "", "coordinator base URL to join as a worker node (mutually exclusive with -coordinator)")
	leaseTTL := flag.Duration("lease-ttl", 10*time.Second, "lease lifetime without a heartbeat, for in-process and joined workers; expiry re-dispatches the job")
	heartbeatInterval := flag.Duration("heartbeat-interval", 2500*time.Millisecond, "lease renewal cadence; must be below -lease-ttl")
	workerID := flag.String("worker-id", "", "cluster worker id (worker mode; default the hostname)")
	flag.Parse()

	if err := validateFlags(*queue, *workers, *engineWorkers, *cacheSize, *maxAttempts,
		*jobTimeout, *maxTimeout, *drain, *retryBase, *cacheDir); err != nil {
		cli.Exit("lrserved", 2, err)
	}
	if *specCacheSize < 0 {
		cli.Exit("lrserved", 2, fmt.Errorf("-spec-cache-size must be >= 0, got %d", *specCacheSize))
	}
	if err := validateClusterFlags(*coordinator, *join, *leaseTTL, *heartbeatInterval); err != nil {
		cli.Exit("lrserved", 2, err)
	}

	if *join != "" {
		runWorker(workerConfig{
			addr: *addr, coordinator: *join, id: *workerID,
			memBudget: *memBudget, slots: *workers, specCacheSize: *specCacheSize,
		})
		return
	}

	var clusterCfg *service.ClusterConfig
	if *coordinator {
		clusterCfg = &service.ClusterConfig{}
	}

	svc, err := service.New(service.Config{
		QueueSize:         *queue,
		Workers:           *workers,
		EngineWorkers:     *engineWorkers,
		DefaultTimeout:    *jobTimeout,
		MaxTimeout:        *maxTimeout,
		CacheSize:         *cacheSize,
		SpecCacheSize:     *specCacheSize,
		CacheDir:          *cacheDir,
		MaxAttempts:       *maxAttempts,
		RetryBaseDelay:    *retryBase,
		MemoryBudgetBytes: *memBudget,
		DegradeOverBudget: *degrade,
		LeaseTTL:          *leaseTTL,
		HeartbeatInterval: *heartbeatInterval,
		Cluster:           clusterCfg,
	})
	if err != nil {
		cli.Exit("lrserved", 1, err)
	}
	svc.Start()

	srv := &http.Server{
		Addr:              *addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// Opt-in profiling on its own listener: profile scrapes and trace
	// captures stay off the public API surface, and a firewall rule (or a
	// localhost bind) keeps them operator-only. The server is deliberately
	// not drained on shutdown — a capture mid-drain is exactly when an
	// operator wants one.
	if *pprofAddr != "" {
		dbg := &http.Server{
			Addr:              *pprofAddr,
			Handler:           service.DebugHandler(),
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			if err := dbg.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(os.Stderr, "lrserved: pprof listener: %v\n", err)
			}
		}()
		fmt.Printf("lrserved: pprof/trace endpoints on %s\n", *pprofAddr)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	remote := "off"
	if *coordinator {
		remote = "may join"
	}
	fmt.Printf("lrserved: listening on %s (queue %d, %d workers, lease TTL %v, remote workers %s)\n",
		*addr, *queue, svc.Stats().Workers, *leaseTTL, remote)

	select {
	case err := <-errc:
		cli.Exit("lrserved", 1, err)
	case <-ctx.Done():
	}

	fmt.Println("lrserved: draining...")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	_ = srv.Shutdown(shutdownCtx)
	if err := svc.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		cli.Exit("lrserved", 1, err)
	}
	fmt.Println("lrserved: drained")
}
