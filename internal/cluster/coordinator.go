package cluster

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"paramring/internal/verify"
)

// DoneFunc receives the outcome of one dispatched attempt, exactly once:
// a result, or an error (ErrLeaseExpired, ErrWorkerPanic-wrapped panics,
// context errors, or a deterministic engine error). workerID names the
// worker the attempt ran on ("" when it never ran).
type DoneFunc func(res *verify.Result, workerID string, err error)

// Coordinator owns the lease table and worker registry. The service
// enqueues tasks through Dispatch; workers — in-process or remote — pull
// through Next, renew through Heartbeat, and finish through Complete. The
// first of {Complete, lease expiry, shutdown} fires the task's DoneFunc;
// everything later is dropped as a late result.
type Coordinator struct {
	cfg Config

	mu      sync.Mutex
	cond    *sync.Cond
	workers map[string]*member
	leases  map[string]*lease // by job id
	closed  bool
	started bool // Start launched the scanner; Stop only joins it then
	// lastToken issues lease fencing tokens; see lease.token.
	lastToken uint64
	// localInUse is the part of Config.LocalMemBudgetBytes that grants to
	// in-process workers reserve.
	localInUse uint64

	scanStop chan struct{}
	scanDone chan struct{}
}

// member is one registered worker.
type member struct {
	info   WorkerInfo
	remote bool
	// queue holds granted-but-not-yet-pulled leases. A lease may expire
	// while still queued (worker never pulled); Next skips stale entries.
	queue []*lease
	// held counts leases granted to this worker (queued + running); the
	// placement slot check is held < slots.
	held     int
	lastSeen time.Time
}

// lease is one outstanding task grant.
type lease struct {
	task   Task
	worker string
	// remote marks a joined holder: its grant and renewals are journaled.
	remote bool
	// token fences this grant against every other grant of the same job:
	// Heartbeat and Complete must present it. Without the token a late
	// result is indistinguishable from the current attempt whenever the
	// re-dispatch landed on the same worker (the ABA the chaos suite
	// exercises). Zero never matches — only recovered leases, whose
	// pre-restart token is unknowable, accept any token from their worker.
	token  uint64
	expiry time.Time
	done   DoneFunc
	// ctx/cancel bound the in-process execution; expiry and shutdown
	// cancel it. Remote workers derive their own context from the task
	// deadline — the coordinator cannot reach across the wire, which is
	// exactly what the lease expiry is for.
	ctx    context.Context
	cancel context.CancelFunc
	// holder is the member placement charged a slot (held++) for; nil for
	// leases recovered from the journal, which were never placed here.
	holder *member
	// reserved is the share of Config.LocalMemBudgetBytes the grant holds.
	reserved uint64
	// recovered marks a lease reconstructed from the journal after a
	// coordinator restart: its worker may re-join and complete it, or the
	// expiry re-dispatches the job — exactly once either way.
	recovered bool
}

// NewCoordinator builds a stopped coordinator; Start launches the lease
// expiry scanner.
func NewCoordinator(cfg Config) *Coordinator {
	c := &Coordinator{
		cfg:      cfg.withDefaults(),
		workers:  map[string]*member{},
		leases:   map[string]*lease{},
		scanStop: make(chan struct{}),
		scanDone: make(chan struct{}),
	}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// Start launches the lease-expiry scanner. Idempotent.
func (c *Coordinator) Start() {
	c.mu.Lock()
	if c.started || c.closed {
		c.mu.Unlock()
		return
	}
	c.started = true
	c.mu.Unlock()
	go c.scan()
}

// scanInterval is the expiry-scanner cadence: a fraction of the TTL so an
// expired lease is detected promptly even with test-scale TTLs.
func (c *Coordinator) scanInterval() time.Duration {
	d := c.cfg.LeaseTTL / 8
	if d < time.Millisecond {
		d = time.Millisecond
	}
	if d > time.Second {
		d = time.Second
	}
	return d
}

func (c *Coordinator) scan() {
	defer close(c.scanDone)
	ticker := time.NewTicker(c.scanInterval())
	defer ticker.Stop()
	for {
		select {
		case <-c.scanStop:
			return
		case <-ticker.C:
			c.expireDue(time.Now())
		}
	}
}

// expireDue fires every lease whose expiry has passed: the DoneFunc gets
// ErrLeaseExpired (the service's retry machinery re-dispatches with
// backoff and attempt accounting), the in-process execution context is
// canceled, and a remote worker that let a lease die is presumed dead and
// dropped from the registry — it must re-join.
func (c *Coordinator) expireDue(now time.Time) {
	type expired struct {
		l    *lease
		lost *WorkerInfo // remote worker dropped with the lease
	}
	var due []expired
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	for job, l := range c.leases {
		if now.Before(l.expiry) {
			continue
		}
		delete(c.leases, job)
		c.releaseLocked(l)
		e := expired{l: l}
		if m, ok := c.workers[l.worker]; ok && m.remote {
			delete(c.workers, l.worker)
			info := m.info
			e.lost = &info
		}
		due = append(due, e)
	}
	c.mu.Unlock()

	for _, e := range due {
		if e.l.cancel != nil {
			e.l.cancel()
		}
		if ev := c.cfg.Events.LeaseExpired; ev != nil {
			ev(e.l.task.JobID, e.l.worker)
		}
		if e.lost != nil {
			c.cfg.Log.Printf("worker %s presumed dead: lease %s expired", e.lost.ID, e.l.task.JobID)
			if ev := c.cfg.Events.WorkerLost; ev != nil {
				ev(e.lost.ID, "lease expired")
			}
		}
		e.l.done(nil, e.l.worker, fmt.Errorf("%w: job %s on worker %s", ErrLeaseExpired, e.l.task.JobID, e.l.worker))
	}
}

// waitLocked blocks on the coordinator condition until broadcast or ctx
// done. Called and returns with c.mu held.
func (c *Coordinator) waitLocked(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	stop := context.AfterFunc(ctx, func() {
		c.mu.Lock()
		c.cond.Broadcast()
		c.mu.Unlock()
	})
	defer stop()
	c.cond.Wait()
	return ctx.Err()
}

// Join registers (or refreshes) an in-process worker and returns the
// heartbeat cadence. Joining is idempotent. Workers that join over HTTP
// are registered as remote by the /cluster/v1/join handler instead: their
// leases are journaled, they are placed against their own budgets, and
// they are dropped from the registry when a lease of theirs expires.
func (c *Coordinator) Join(_ context.Context, info WorkerInfo) (time.Duration, error) {
	return c.cfg.HeartbeatInterval, c.register(info, false)
}

// register adds or refreshes a worker of one kind. An id registered by a
// worker of the other kind is refused with ErrIDInUse, so a joined worker
// can neither rewrite an in-process worker's registration nor take over
// its leases.
func (c *Coordinator) register(info WorkerInfo, remote bool) error {
	if info.ID == "" {
		return fmt.Errorf("cluster: join: empty worker id")
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrStopped
	}
	m, known := c.workers[info.ID]
	if known && m.remote != remote {
		c.mu.Unlock()
		return ErrIDInUse
	}
	if known {
		m.info = info
		m.lastSeen = time.Now()
		c.mu.Unlock()
		return nil
	}
	m = &member{info: info, remote: remote, lastSeen: time.Now()}
	c.workers[info.ID] = m
	c.cond.Broadcast()
	c.mu.Unlock()
	if ev := c.cfg.Events.WorkerJoined; ev != nil {
		ev(info)
	}
	return nil
}

// Leave deregisters a joined worker voluntarily (clean worker shutdown).
// Its outstanding leases are left to expire — the worker may still
// complete them on the way out. An in-process worker never leaves: it
// stays registered for the coordinator's lifetime, and no joined worker
// can deregister it by naming its id.
func (c *Coordinator) Leave(id string) {
	c.mu.Lock()
	m, known := c.workers[id]
	known = known && m.remote
	if known {
		delete(c.workers, id)
		c.cond.Broadcast()
	}
	c.mu.Unlock()
	if ev := c.cfg.Events.WorkerLost; known && ev != nil {
		ev(id, "left")
	}
}

// inProcess reports whether id names an in-process worker. The HTTP
// handlers answer a request naming one as for an unknown worker: only a
// joined worker speaks the protocol over HTTP.
func (c *Coordinator) inProcess(id string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.workers[id]
	return ok && !m.remote
}

// Workers returns a point-in-time view of the registry, sorted by id.
func (c *Coordinator) Workers() []WorkerInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]WorkerInfo, 0, len(c.workers))
	for _, m := range c.workers {
		out = append(out, m.info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// liveSortedLocked returns registered members sorted by id, for
// deterministic placement.
func (c *Coordinator) liveSortedLocked() []*member {
	out := make([]*member, 0, len(c.workers))
	for _, m := range c.workers {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].info.ID < out[j].info.ID })
	return out
}

// reservation is what a grant of estimate to an in-process worker
// reserves: the estimate clamped to the shared budget (0 without one).
func (c *Coordinator) reservation(estimate uint64) uint64 {
	return min(estimate, c.cfg.LocalMemBudgetBytes)
}

// freeLocked reports whether m can take a task of the given estimate now:
// it has a free slot and, for an in-process worker, the task's
// reservation fits what other in-process grants left of the shared
// budget.
func (c *Coordinator) freeLocked(m *member, estimate uint64) bool {
	if m.held >= m.info.slots() {
		return false
	}
	budget := c.cfg.LocalMemBudgetBytes
	return m.remote || budget == 0 || c.localInUse+c.reservation(estimate) <= budget
}

// releaseLocked returns a lease's slot and budget reservation, and wakes
// the dispatches waiting for either. The lease is already out of the
// table.
func (c *Coordinator) releaseLocked(l *lease) {
	if l.holder != nil {
		l.holder.held--
	}
	c.localInUse -= l.reserved
	c.cond.Broadcast()
}

// placeLocked picks the dispatch target for t: among free workers whose
// budget fits the estimate, the least-loaded (ties by id). When none fits
// by budget and degradation is on, the largest-budget free worker takes
// the task degraded.
func (c *Coordinator) placeLocked(t Task) (target *member, degraded bool) {
	var best *member
	for _, m := range c.liveSortedLocked() {
		if !c.freeLocked(m, t.Estimate) || !m.info.fits(t.Estimate) {
			continue
		}
		if best == nil || m.held < best.held {
			best = m
		}
	}
	if best != nil {
		return best, false
	}
	if !c.cfg.DegradeOverBudget {
		return nil, false
	}
	for _, m := range c.liveSortedLocked() {
		if !c.freeLocked(m, t.Estimate) || m.info.fits(t.Estimate) {
			// Fitting-but-busy workers were handled above; taking one here
			// degraded would clamp a task that a free slot could run whole.
			continue
		}
		if best == nil || m.info.MemBudgetBytes > best.info.MemBudgetBytes {
			best = m
		}
	}
	return best, best != nil
}

// couldEverFitLocked reports whether any registered worker — busy or not
// — could admit the estimate.
func (c *Coordinator) couldEverFitLocked(estimate uint64) (fits, anyWorker bool) {
	for _, m := range c.workers {
		anyWorker = true
		if m.info.fits(estimate) {
			fits = true
		}
	}
	return fits, anyWorker
}

// Dispatch places t on a worker under a fresh lease and returns once the
// grant is journaled (Events.LeaseGranted) and the task is visible to the
// worker. done fires exactly once with the attempt's outcome; an error
// return means nothing was granted and done never fires. Dispatch blocks
// while every eligible worker is busy or out of budget — or while no
// worker has joined yet — gives up with ctx's error once ctx is done, and
// fails fast with ErrNoWorker when workers exist but none could ever fit
// the estimate (unless DegradeOverBudget).
func (c *Coordinator) Dispatch(ctx context.Context, t Task, done DoneFunc) error {
	c.mu.Lock()
	var target *member
	for {
		if c.closed {
			c.mu.Unlock()
			return ErrStopped
		}
		if err := ctx.Err(); err != nil {
			c.mu.Unlock()
			return err
		}
		var degraded bool
		if target, degraded = c.placeLocked(t); target != nil {
			if degraded {
				t.DegradeBudget = target.info.MemBudgetBytes
			}
			break
		}
		fits, anyWorker := c.couldEverFitLocked(t.Estimate)
		if anyWorker && !fits && !c.cfg.DegradeOverBudget {
			c.mu.Unlock()
			return fmt.Errorf("%w: estimate %d bytes exceeds every worker budget", ErrNoWorker, t.Estimate)
		}
		c.waitLocked(ctx)
	}
	lctx, cancel := context.WithDeadline(ctx, t.Deadline())
	c.lastToken++
	l := &lease{
		task: t, worker: target.info.ID, remote: target.remote, token: c.lastToken,
		expiry: time.Now().Add(c.cfg.LeaseTTL),
		done:   done, ctx: lctx, cancel: cancel, holder: target,
	}
	if !target.remote {
		l.reserved = c.reservation(t.Estimate)
		c.localInUse += l.reserved
	}
	target.held++
	c.mu.Unlock()

	// Journal-before-visibility: the grant event runs before the lease
	// enters the table, so the service fsyncs a remote holder's lease
	// record before any worker can pull the task — a coordinator crash
	// never has a running task the journal knows nothing about — and
	// nothing can complete, expire or stop the lease until it returns.
	if ev := c.cfg.Events.LeaseGranted; ev != nil {
		ev(t.JobID, l.worker, l.expiry, false, l.remote)
	}

	c.mu.Lock()
	if c.closed {
		// Stop ran during the grant event and could not see this lease:
		// fail it as Stop would have.
		c.releaseLocked(l)
		c.mu.Unlock()
		cancel()
		done(nil, l.worker, context.Canceled)
		return nil
	}
	c.leases[t.JobID] = l
	target.queue = append(target.queue, l)
	c.cond.Broadcast()
	c.mu.Unlock()
	return nil
}

// Recover reinstalls a lease reconstructed from the journal after a
// coordinator restart: if the worker re-joins and completes before expiry
// the result is accepted; otherwise the expiry scanner fires done with
// ErrLeaseExpired and the job re-dispatches — exactly once either way.
// Only remote holders' leases are journaled, so the lease is remote.
func (c *Coordinator) Recover(t Task, workerID string, expiry time.Time, done DoneFunc) {
	lctx, cancel := context.WithDeadline(context.Background(), t.Deadline())
	l := &lease{
		task: t, worker: workerID, remote: true, expiry: expiry,
		done: done, ctx: lctx, cancel: cancel, recovered: true,
	}
	c.mu.Lock()
	c.leases[t.JobID] = l
	c.mu.Unlock()
}

// Next blocks until a task is queued for workerID (or ctx is done) and
// returns it with its lease fencing token and the lease-bound execution
// context, which lease expiry, the job deadline and Stop cancel, and the
// worker's own ctx does not. The worker must present the token on every
// Heartbeat and the Complete for this attempt. The poll handler passes a
// ctx bounded by the long-poll window. ErrUnknownWorker means the worker
// was dropped after a lease expiry and must re-join.
func (c *Coordinator) Next(ctx context.Context, workerID string) (Task, uint64, context.Context, error) {
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return Task{}, 0, nil, ErrStopped
		}
		m, ok := c.workers[workerID]
		if !ok {
			c.mu.Unlock()
			return Task{}, 0, nil, ErrUnknownWorker
		}
		m.lastSeen = time.Now()
		for len(m.queue) > 0 {
			l := m.queue[0]
			m.queue = m.queue[1:]
			if c.leases[l.task.JobID] != l {
				continue // expired while queued; its done already fired
			}
			c.mu.Unlock()
			return l.task, l.token, l.ctx, nil
		}
		if err := c.waitLocked(ctx); err != nil {
			c.mu.Unlock()
			return Task{}, 0, nil, err
		}
		c.mu.Unlock()
	}
}

// tokenMatchesLocked reports whether a presented fencing token addresses
// lease l. Recovered leases accept any token from their worker: the grant
// predates the coordinator restart, so the token the surviving worker
// holds is unknowable — and no other holder of that (worker, job) pair
// can exist while the recovered lease does.
func tokenMatchesLocked(l *lease, token uint64) bool {
	return l.token == token || l.recovered
}

// Heartbeat renews the lease for jobID held by workerID under fencing
// token, journaling the new expiry through Events.LeaseGranted before
// returning. ErrLeaseGone tells the worker its lease expired (the job is
// elsewhere — abandon the attempt); ErrUnknownWorker that it must re-join
// first.
func (c *Coordinator) Heartbeat(_ context.Context, workerID, jobID string, token uint64) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrStopped
	}
	if m, ok := c.workers[workerID]; ok {
		m.lastSeen = time.Now()
	} else {
		// A recovered lease's worker may heartbeat before re-joining; the
		// lease check below decides, not registry membership.
		if l := c.leases[jobID]; l == nil || l.worker != workerID {
			c.mu.Unlock()
			return ErrUnknownWorker
		}
	}
	l := c.leases[jobID]
	if l == nil || l.worker != workerID || !tokenMatchesLocked(l, token) {
		c.mu.Unlock()
		return ErrLeaseGone
	}
	l.expiry = time.Now().Add(c.cfg.LeaseTTL)
	expiry := l.expiry
	c.mu.Unlock()
	if ev := c.cfg.Events.LeaseGranted; ev != nil {
		ev(jobID, workerID, expiry, true, l.remote)
	}
	return nil
}

// Complete reports an attempt's outcome. The result is accepted — done
// fired, lease released — only when the lease still exists, is held by
// workerID, and the fencing token matches the grant; anything else is a
// late result, counted and dropped (safe: results are content-addressed,
// the re-dispatched attempt recomputes the identical verdict). The token
// check is what makes this exact: without it, a stale attempt completing
// after its job was re-granted to the same worker would be accepted as
// the current attempt's outcome. ctx is unused: an in-process worker
// reports every attempt, also once its own shutdown has begun.
func (c *Coordinator) Complete(_ context.Context, workerID, jobID string, token uint64, res *verify.Result, err error) bool {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return false
	}
	l := c.leases[jobID]
	if l == nil || l.worker != workerID || !tokenMatchesLocked(l, token) {
		c.mu.Unlock()
		if ev := c.cfg.Events.LateResult; ev != nil {
			ev(jobID, workerID)
		}
		return false
	}
	delete(c.leases, jobID)
	c.releaseLocked(l)
	if m, ok := c.workers[workerID]; ok {
		m.lastSeen = time.Now()
	}
	c.mu.Unlock()
	if l.cancel != nil {
		l.cancel()
	}
	l.done(res, workerID, err)
	return true
}

// Outstanding returns the number of live leases.
func (c *Coordinator) Outstanding() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.leases)
}

// LocalMemInUse returns the bytes of Config.LocalMemBudgetBytes that
// outstanding grants to in-process workers reserve.
func (c *Coordinator) LocalMemInUse() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.localInUse
}

// Quiesce blocks until every outstanding lease has resolved or ctx is
// done — the graceful half of coordinator shutdown.
func (c *Coordinator) Quiesce(ctx context.Context) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.leases) > 0 {
		if err := c.waitLocked(ctx); err != nil {
			return err
		}
	}
	return nil
}

// Stop shuts the coordinator down: the scanner exits, every worker
// blocked in Next is released with ErrStopped, and any lease still
// outstanding releases its reservation and fires its done with
// context.Canceled — the service journals those jobs as replayable, which
// is what makes a coordinator restart recover them.
func (c *Coordinator) Stop() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	started := c.started
	remaining := make([]*lease, 0, len(c.leases))
	for _, l := range c.leases {
		c.releaseLocked(l)
		remaining = append(remaining, l)
	}
	c.leases = map[string]*lease{}
	c.cond.Broadcast()
	c.mu.Unlock()

	close(c.scanStop)
	if started {
		<-c.scanDone
	}
	sort.Slice(remaining, func(i, j int) bool { return remaining[i].task.JobID < remaining[j].task.JobID })
	for _, l := range remaining {
		if l.cancel != nil {
			l.cancel()
		}
		l.done(nil, l.worker, context.Canceled)
	}
}
