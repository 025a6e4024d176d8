package service

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"os"

	"paramring/internal/cluster"
	"paramring/internal/corpus"
	"paramring/internal/verify"
)

// WorkerNode is the process-level worker role behind `lrserved -join`: a
// node that owns no queue, no journal and no result cache, only a
// verification engine. It joins a coordinator over HTTP, pulls tasks
// under leases, and returns each verdict to the coordinator, which alone
// caches it.
type WorkerNode struct {
	cfg    WorkerNodeConfig
	runner cluster.Runner
}

// WorkerNodeConfig configures a WorkerNode.
type WorkerNodeConfig struct {
	// Coordinator is the coordinator's base URL (http://host:port).
	Coordinator string
	// ID names this worker; must be unique across the cluster (default
	// the hostname, then "worker").
	ID string
	// MemBudgetBytes is the advertised placement budget (0 = unlimited).
	MemBudgetBytes uint64
	// Slots is the concurrent-task capacity (default 1).
	Slots int
	// SpecCacheSize bounds the compiled-spec cache, as the service's
	// knob of the same name does.
	SpecCacheSize int
	Log           *log.Logger
}

func (c WorkerNodeConfig) withDefaults() WorkerNodeConfig {
	if c.ID == "" {
		if host, err := os.Hostname(); err == nil && host != "" {
			c.ID = host
		} else {
			c.ID = "worker"
		}
	}
	if c.SpecCacheSize == 0 {
		c.SpecCacheSize = 1024
	}
	if c.Log == nil {
		c.Log = log.New(os.Stderr, "lrserved: ", log.LstdFlags)
	}
	return c
}

// NewWorkerNode builds a worker node. The verification substrate is the
// same compiled-spec cache + per-family memo pair the service uses, so a
// task produces the identical report no matter which node runs it.
func NewWorkerNode(cfg WorkerNodeConfig) (*WorkerNode, error) {
	cfg = cfg.withDefaults()
	if cfg.Coordinator == "" {
		return nil, fmt.Errorf("service: worker node: coordinator URL required")
	}
	return &WorkerNode{
		cfg: cfg,
		runner: &cluster.LocalRunner{
			Specs: verify.NewSpecCache(cfg.SpecCacheSize),
			Memos: corpus.NewFamilyMemos(0),
		},
	}, nil
}

// Handler returns the worker node's HTTP surface: liveness only.
func (n *WorkerNode) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{
			"status":      "ok",
			"role":        "worker",
			"worker_id":   n.cfg.ID,
			"coordinator": n.cfg.Coordinator,
		})
	})
	return mux
}

// Run joins the coordinator and serves tasks until ctx is done. Join
// failures and dropped registrations (lease expiry on the coordinator)
// are retried/re-joined internally; Run only returns on ctx cancellation
// or a non-recoverable transport setup error.
func (n *WorkerNode) Run(ctx context.Context) error {
	rw := &cluster.Remote{
		Coordinator: n.cfg.Coordinator,
		Info: cluster.WorkerInfo{
			ID:             n.cfg.ID,
			MemBudgetBytes: n.cfg.MemBudgetBytes,
			Slots:          n.cfg.Slots,
		},
		Runner: n.runner,
		Log:    n.cfg.Log,
	}
	err := rw.Run(ctx)
	if ctx.Err() != nil {
		return nil // clean shutdown
	}
	return err
}
