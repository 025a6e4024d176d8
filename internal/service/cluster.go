package service

import (
	"context"
	"errors"
	"fmt"
	"time"

	"paramring/internal/cluster"
)

// ClusterConfig admits remote workers. Every service is a lease
// coordinator over its Config.Workers in-process workers; with a
// ClusterConfig, Handler also mounts the worker protocol, so lrserved
// -join processes can join and pull tasks beside them. Their grants and
// renewals are journaled, so a coordinator restart knows which jobs were
// running where. The result cache stays the coordinator's own: workers
// return verdicts and cache nothing.
type ClusterConfig struct {
	// Fault-injection seam for the chaos suite (nil in production):
	// HeartbeatFilter gates in-process workers' renewals (false =
	// blackholed).
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
	s.coord = cluster.NewCoordinator(cluster.Config{
		LeaseTTL:            s.cfg.LeaseTTL,
		HeartbeatInterval:   s.cfg.HeartbeatInterval,
		LocalMemBudgetBytes: s.cfg.MemoryBudgetBytes,
		DegradeOverBudget:   s.cfg.DegradeOverBudget,
		Log:                 s.cfg.Log,
		Events: cluster.Events{
			LeaseGranted: func(jobID, workerID string, expiry time.Time, renewal, remote bool) {
				if renewal {
					s.metrics.ClusterLeaseRenewals.Add(1)
					s.observeCluster("lease-renewed", jobID, workerID)
				} else {
					s.metrics.ClusterLeasesGranted.Add(1)
					s.observeCluster("lease-granted", jobID, workerID)
				}
				// Fsynced before the worker can act on the task (grants) or
				// before the renewal is acknowledged: the journal never
				// believes a lease the disk does not. An in-process worker
				// dies with this process, so its lease would tell a restart
				// nothing; the job's submit record replays it.
				if remote {
					s.journalAppend(journalRecord{
						Op: opLease, ID: jobID, Worker: workerID, ExpireAtMS: expiry.UnixMilli(),
					})
				}
				if !renewal {
					s.startAttempt(jobID)
				}
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

// Start launches the coordinator, the Config.Workers in-process workers,
// and the single dispatcher goroutine that drains the job queue into
// lease dispatches. Each in-process worker is a one-slot cluster.Worker
// whose Coord is the coordinator itself: the loop a joined worker runs,
// minus the HTTP hop.
func (s *Service) Start() {
	s.coord.Start()
	var filter func(workerID, jobID string) bool
	if cc := s.cfg.Cluster; cc != nil {
		filter = cc.HeartbeatFilter
	}
	ctx, stop := context.WithCancel(context.Background())
	s.stopWorkers = stop
	for i := 0; i < s.cfg.Workers; i++ {
		w := &cluster.Worker{
			Coord:           s.coord,
			Info:            cluster.WorkerInfo{ID: fmt.Sprintf("%s-w%d", coordinatorID, i)},
			Runner:          s.runner,
			Before:          s.beforeVerify,
			HeartbeatFilter: filter,
		}
		if err := w.Start(ctx); err != nil {
			s.cfg.Log.Printf("cluster: local worker %d: %v", i, err)
			continue
		}
		s.workers = append(s.workers, w)
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

// stopCluster stops the in-process workers, each once it has reported its
// attempt in flight, and then the coordinator, which fails the leases
// that are left (remote ones, and grants no worker pulled) as
// canceled-replayable. Reporting first keeps an attempt's real outcome —
// a recovered panic, say — from being overtaken by that cancel.
func (s *Service) stopCluster() {
	if s.stopWorkers != nil {
		s.stopWorkers()
	}
	for _, w := range s.workers {
		w.Wait()
	}
	s.coord.Stop()
}

// dispatch places one attempt of j on a worker under a lease. The job
// stays queued while it waits for a slot or for memory budget, and runs
// from the grant (startAttempt). The coordinator then fires the done
// callback exactly once — completion, lease expiry, or shutdown — and the
// callback routes the outcome through finishAttempt: retries, quarantine,
// journaling, and caching.
func (s *Service) dispatch(j *Job) {
	s.mu.Lock()
	attempt := j.attempts + 1
	s.mu.Unlock()
	ctx, cancel := context.WithDeadline(s.runCtx, j.deadline)
	err := s.coord.Dispatch(ctx, s.taskForJob(j, attempt), s.leaseDone(j, cancel))
	if err != nil {
		cancel()
		if errors.Is(err, cluster.ErrStopped) {
			s.finalize(j, StateFailed, "shutting down before dispatch; journaled for replay", true)
			return
		}
		// ErrNoWorker (deterministic: no registered worker can ever fit) and
		// context errors flow through the standard classification.
		s.finishAttempt(j, nil, err)
	}
}

// startAttempt marks a job running when its lease is granted.
func (s *Service) startAttempt(jobID string) {
	s.mu.Lock()
	j := s.jobs[jobID] // a job in flight is never evicted
	j.state = StateRunning
	j.attempts++
	j.started = time.Now()
	s.mu.Unlock()
	s.metrics.JobsRunning.Add(1)
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
		} else {
			// The attempt ran to an outcome its worker reported (or that
			// shutdown imposed): time it from the grant.
			s.mu.Lock()
			started := j.started
			s.mu.Unlock()
			s.metrics.ObservePhase("verify", time.Since(started))
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
	s.indexLocked(j)
	s.metrics.JobsReplayed.Add(1)
	s.metrics.JobsRunning.Add(1)
	s.coord.Recover(s.taskForJob(j, 1), workerID, expiry, s.leaseDone(j, nil))
}
