package service

import (
	"context"
	"errors"
	"fmt"
	"time"

	"paramring/internal/cluster"
)

// ClusterConfig turns the service into a cluster coordinator: instead of
// running jobs on a local worker pool, the dispatcher places each job on
// a lease-holding worker — in-process LocalWorkers configured here,
// remote lrserved processes joined over HTTP, or both. The journal gains
// lease records so a coordinator restart knows which jobs were running
// where. The result cache stays the coordinator's own: workers return
// verdicts and cache nothing.
type ClusterConfig struct {
	// LeaseTTL is how long a lease survives without a heartbeat (default
	// 10s). Must exceed HeartbeatInterval; cmd/lrserved validates this at
	// the flag boundary.
	LeaseTTL time.Duration
	// HeartbeatInterval is the renewal cadence (default LeaseTTL/4).
	HeartbeatInterval time.Duration
	// LocalWorkers is the number of in-process cluster workers to start,
	// one task at a time each (0 = serve remote joiners only).
	LocalWorkers int
	// WorkerMemBudgetBytes is each local worker's advertised placement
	// budget (0 = unlimited).
	WorkerMemBudgetBytes uint64

	// Fault-injection seam for the chaos suite (nil in production):
	// HeartbeatFilter gates local workers' renewals (false = blackholed).
	HeartbeatFilter func(workerID, jobID string) bool
	// Observer receives one call per cluster event — the chaos transcript
	// hook (nil = none). Events: lease-granted, lease-renewed,
	// lease-expired, late-result, worker-joined, worker-lost, redispatch.
	Observer func(event, jobID, workerID string)
}

// coordinatorID prefixes the coordinator's in-process worker ids.
const coordinatorID = "coordinator"

// initCluster builds the coordinator. Called from New before replay so
// recovered leases can be reinstalled.
func (s *Service) initCluster() {
	cc := s.cfg.Cluster
	s.coord = cluster.NewCoordinator(cluster.Config{
		LeaseTTL:          cc.LeaseTTL,
		HeartbeatInterval: cc.HeartbeatInterval,
		DegradeOverBudget: s.cfg.DegradeOverBudget,
		Log:               s.cfg.Log,
		Events: cluster.Events{
			LeaseGranted: func(jobID, workerID string, expiry time.Time, renewal bool) {
				if renewal {
					s.metrics.ClusterLeaseRenewals.Add(1)
					s.observeCluster("lease-renewed", jobID, workerID)
				} else {
					s.metrics.ClusterLeasesGranted.Add(1)
					s.observeCluster("lease-granted", jobID, workerID)
				}
				// Fsynced before the worker can act on the task (grants) or
				// before the renewal is acknowledged: the journal never
				// believes a lease the disk does not.
				s.journalAppend(journalRecord{
					Op: opLease, ID: jobID, Worker: workerID, ExpireAtMS: expiry.UnixMilli(),
				})
			},
			LeaseExpired: func(jobID, workerID string) {
				s.metrics.ClusterLeasesExpired.Add(1)
				s.observeCluster("lease-expired", jobID, workerID)
			},
			LateResult: func(jobID, workerID string) {
				s.metrics.ClusterLateResults.Add(1)
				s.observeCluster("late-result", jobID, workerID)
			},
			WorkerJoined: func(info cluster.WorkerInfo) {
				s.metrics.ClusterWorkersJoined.Add(1)
				s.observeCluster("worker-joined", "", info.ID)
			},
			WorkerLost: func(id, reason string) {
				s.metrics.ClusterWorkersLost.Add(1)
				s.observeCluster("worker-lost", reason, id)
			},
		},
	})
}

func (s *Service) observeCluster(event, jobID, workerID string) {
	if cc := s.cfg.Cluster; cc != nil && cc.Observer != nil {
		cc.Observer(event, jobID, workerID)
	}
}

// startCluster launches the coordinator, the configured in-process
// workers, and the single dispatcher goroutine that drains the job queue
// into lease dispatches.
func (s *Service) startCluster() {
	cc := s.cfg.Cluster
	s.coord.Start()
	for i := 0; i < cc.LocalWorkers; i++ {
		w := &cluster.LocalWorker{
			Coord: s.coord,
			Info: cluster.WorkerInfo{
				ID:             fmt.Sprintf("%s-w%d", coordinatorID, i),
				MemBudgetBytes: cc.WorkerMemBudgetBytes,
			},
			Runner:          s.runner,
			Before:          s.beforeVerify,
			HeartbeatFilter: cc.HeartbeatFilter,
		}
		if err := w.Start(); err != nil {
			s.cfg.Log.Printf("cluster: local worker %d: %v", i, err)
			continue
		}
		s.clusterWorkers = append(s.clusterWorkers, w)
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for j := range s.queue {
			s.metrics.JobsQueued.Add(-1)
			s.dispatch(j)
		}
	}()
}

// stopCluster shuts the coordinator down (firing any outstanding lease
// as canceled-replayable) and waits for the local worker loops.
func (s *Service) stopCluster() {
	if s.coord == nil {
		return
	}
	s.coord.Stop()
	for _, w := range s.clusterWorkers {
		w.Wait()
	}
}

// dispatch is the cluster counterpart of run: one attempt, placed on a
// worker under a lease instead of executed inline. The coordinator fires
// the done callback exactly once — completion, lease expiry, or shutdown
// — and the callback routes the outcome through the same finishAttempt
// classification as local execution, so retries, quarantine, journaling,
// and caching behave identically in both modes.
func (s *Service) dispatch(j *Job) {
	attempt := s.startAttempt(j)
	ctx, cancel := context.WithDeadline(s.runCtx, j.deadline)
	err := s.coord.Dispatch(ctx, s.taskForJob(j, attempt), s.leaseDone(j, cancel))
	if err != nil {
		cancel()
		s.metrics.JobsRunning.Add(-1)
		if errors.Is(err, cluster.ErrStopped) {
			s.finalize(j, StateFailed, "shutting down before dispatch; journaled for replay", true)
			return
		}
		// ErrNoWorker (deterministic: no registered worker can ever fit) and
		// context errors flow through the standard classification.
		s.finishAttempt(j, nil, err)
	}
}

// leaseDone builds the exactly-once outcome callback for one dispatched
// attempt. cancel releases the dispatch-scoped context (nil for leases
// recovered from the journal, which have no dispatch context).
func (s *Service) leaseDone(j *Job, cancel context.CancelFunc) cluster.DoneFunc {
	return func(res *Result, workerID string, err error) {
		if cancel != nil {
			cancel()
		}
		s.metrics.JobsRunning.Add(-1)
		if errors.Is(err, cluster.ErrLeaseExpired) {
			s.metrics.ClusterRedispatches.Add(1)
			s.observeCluster("redispatch", j.id, workerID)
			err = fmt.Errorf("%w: %v", ErrTransient, err)
		}
		s.finishAttempt(j, res, err)
	}
}

// recoverLease reinstalls a journaled lease after a coordinator restart:
// the job is indexed as running, and the coordinator either accepts the
// re-joined worker's completion or expires the lease — re-dispatching
// the job through the normal retry path exactly once.
func (s *Service) recoverLease(j *Job, workerID string, expiry time.Time) {
	j.state = StateRunning
	j.attempts = 1
	j.started = time.Now()
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.metrics.JobsReplayed.Add(1)
	s.metrics.JobsRunning.Add(1)
	s.coord.Recover(s.taskForJob(j, 1), workerID, expiry, s.leaseDone(j, nil))
}
