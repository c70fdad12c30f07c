package server

// The bounded scheduler: a fixed worker fleet drains the family queue,
// every worker running specs through the shared runspec engine on one
// common state.Pool. Admission control is an explicit backlog counter — a
// full queue rejects at submit time (HTTP 503) instead of buffering
// unboundedly — and the concurrency bound is the worker count, so a burst
// of heavy jobs degrades to latency, never to memory exhaustion.
//
// There is one lifecycle. A job is a family of one task; a sweep is a
// family of one task per point. Both are admitted, run, retried, settled,
// journaled and replayed by the same code; where the wire differs, a
// fixed rule keyed on family.solo() decides.
//
// Fault isolation happens per task: a panicking evaluation is recovered
// in its worker, a wedged one is cancelled by the no-progress watchdog,
// and both are retried on a bounded budget with RetryPolicy backoff
// before settling terminally. Every transition, retries included, is
// journaled first, so the lifecycle survives a daemon crash at any point.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/resilience"
	"repro/internal/runspec"
	"repro/internal/server/journal"
	"repro/internal/telemetry"
)

// Scheduler instruments, in the process-wide scope so /v1/metrics and
// run reports surface them alongside the engine's own counters.
var (
	mJobsRetried       = telemetry.GetCounter("server.jobs.retried")
	mJobsInterrupted   = telemetry.GetCounter("server.jobs.interrupted")
	mJobsPanicked      = telemetry.GetCounter("server.jobs.panics_recovered")
	mWatchdogStalls    = telemetry.GetCounter("server.watchdog.stalls")
	mCacheHits         = telemetry.GetCounter("server.cache.hits")
	mSweepPointsRun    = telemetry.GetCounter("server.sweeps.points_run")
	mSweepPointsCached = telemetry.GetCounter("server.sweeps.points_cached")
	mSweepWarmStarts   = telemetry.GetCounter("server.sweeps.warm_starts")
	mQueueDepth        = telemetry.GetGauge("server.queue.depth")
	mJobsRunning       = telemetry.GetGauge("server.jobs.running")
	mJobRun            = telemetry.GetTimer("server.job.run")

	// Latency rings feed the load harness and capacity planner: recent
	// per-job queue wait, execution time, and end-to-end latency in
	// milliseconds, exported with percentiles through /v1/metrics.
	mQueueWaitMs = telemetry.GetRing("server.job.queue_wait_ms", 512)
	mRunMs       = telemetry.GetRing("server.job.run_ms", 512)
	mE2EMs       = telemetry.GetRing("server.job.e2e_ms", 512)
)

// kindCounters are one family kind's admission and outcome counters:
// server.jobs.* for jobs, server.sweeps.* for sweep families.
type kindCounters struct {
	submitted, rejected, recovered *telemetry.Counter
	settled                        map[Status]*telemetry.Counter
}

var (
	jobCounters = kindCounters{
		submitted: telemetry.GetCounter("server.jobs.submitted"),
		rejected:  telemetry.GetCounter("server.jobs.rejected"),
		recovered: telemetry.GetCounter("server.jobs.recovered"),
		settled: map[Status]*telemetry.Counter{
			StatusDone:        telemetry.GetCounter("server.jobs.completed"),
			StatusFailed:      telemetry.GetCounter("server.jobs.failed"),
			StatusInterrupted: mJobsInterrupted,
		},
	}
	sweepCounters = kindCounters{
		submitted: telemetry.GetCounter("server.sweeps.submitted"),
		rejected:  telemetry.GetCounter("server.sweeps.rejected"),
		recovered: telemetry.GetCounter("server.sweeps.recovered"),
		settled: map[Status]*telemetry.Counter{
			StatusDone:      telemetry.GetCounter("server.sweeps.completed"),
			StatusFailed:    telemetry.GetCounter("server.sweeps.failed"),
			StatusCancelled: telemetry.GetCounter("server.sweeps.cancelled"),
		},
	}
)

func (f *family) counters() *kindCounters {
	if f.solo() {
		return &jobCounters
	}
	return &sweepCounters
}

// ErrQueueFull is returned by Submit when admission control rejects a
// job; the HTTP layer maps it to 503 + Retry-After.
var ErrQueueFull = errors.New("server: job queue full")

// ErrShuttingDown is returned by Submit after Shutdown has begun.
var ErrShuttingDown = errors.New("server: shutting down")

// errJobPanicked marks an engine panic recovered by the worker; it
// classifies as retryable.
var errJobPanicked = errors.New("server: worker recovered a panic")

// errStalled is the cancellation cause the watchdog attaches when a task
// exceeds the no-progress deadline.
var errStalled = errors.New("server: no engine progress within stall timeout")

// errSweepCancelled is the cancellation cause a client DELETE attaches to
// a running family.
var errSweepCancelled = errors.New("server: sweep cancelled by client")

// Submit validates, deduplicates, journals, and enqueues a spec as a
// family of one, returning the job once its accepted record is durable.
// A spec whose canonical hash matches a completed run is answered from
// the result cache without touching the queue.
func (s *Server) Submit(spec *runspec.RunSpec) (*Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return s.admit(newJob("", spec))
}

// admit is the one admission path. Tasks whose hash sits in the result
// cache settle at admission; only the uncached remainder competes for a
// backlog slot, and a family with nothing left to run settles without
// ever occupying a worker.
func (s *Server) admit(f *family) (*family, error) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, ErrShuttingDown
	}
	cached := make([]*runspec.Result, len(f.tasks))
	uncached := 0
	for i, t := range f.tasks {
		if cached[i] = s.cachedLocked(t.pt.Hash); cached[i] == nil {
			uncached++
		}
	}
	if uncached > 0 && s.queued >= s.cfg.QueueDepth {
		s.mu.Unlock()
		f.counters().rejected.Inc()
		return nil, ErrQueueFull
	}
	s.seq[f.kind()]++
	f.setID(fmt.Sprintf("%s-%06d", f.kind(), s.seq[f.kind()]))
	s.families[f.ID] = f
	s.order = append(s.order, f.ID)
	if uncached > 0 {
		// Reserve the backlog slot under the same lock as the admission
		// check; the enqueue itself happens after the journal write, and
		// the channel's slack guarantees it cannot block.
		s.queued++
	}
	s.mu.Unlock()
	f.counters().submitted.Inc()

	// Durability before acknowledgement: the accepted record (with the
	// full document), plus one record per admission-time cache hit, must
	// be on disk before the client hears 202 — a crash after this point
	// can never lose the family.
	s.journalAppend(f.acceptedRecord())
	f.publish(Event{Type: string(StatusQueued)})
	for i, res := range cached {
		if res != nil {
			s.settleCached(f, f.tasks[i], res)
		}
	}
	if uncached == 0 {
		s.settleFamily(f)
		return f, nil
	}
	select {
	case s.queue <- f:
	case <-s.runCtx.Done():
		// Shutdown raced the enqueue; the accepted record re-enqueues the
		// family on the next start.
	}
	mQueueDepth.Set(int64(len(s.queue)))
	return f, nil
}

// observeRunTime folds one measured job execution time into the EWMA
// (α = 1/8) the admission controller falls back to for wait quoting when
// no cost model is installed.
func (s *Server) observeRunTime(d time.Duration) {
	for {
		old := s.avgRunNs.Load()
		next := int64(d)
		if old != 0 {
			next = old + (int64(d)-old)/8
		}
		if s.avgRunNs.CompareAndSwap(old, next) {
			return
		}
	}
}

// EstimateWait quotes how long a newly arriving job would wait before a
// worker picks it up: the queue backlog divided across the fleet, priced
// per-job by the installed cost model (Config.Estimator) when present,
// else by the measured EWMA of recent executions, else a nominal second.
// The admission controller sends this as Retry-After on 503 rejections so
// clients back off proportionally to actual load instead of thundering
// back on a fixed timer.
func (s *Server) EstimateWait(spec *runspec.RunSpec) time.Duration {
	var svc time.Duration
	if s.cfg.Estimator != nil && spec != nil {
		if d, ok := s.cfg.Estimator(spec); ok && d > 0 {
			svc = d
		}
	}
	if svc <= 0 {
		svc = time.Duration(s.avgRunNs.Load())
	}
	if svc <= 0 {
		svc = time.Second
	}
	backlog := len(s.queue) + 1
	waves := (backlog + s.cfg.MaxConcurrent - 1) / s.cfg.MaxConcurrent
	return time.Duration(waves) * svc
}

// worker is one scheduler slot: it drains the queue until shutdown. A
// family occupies its worker until every task has run, so a sweep's
// points share one build cache and warm-start chain.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.runCtx.Done():
			return
		case f, ok := <-s.queue:
			if !ok {
				return
			}
			s.mu.Lock()
			if s.queued > 0 {
				s.queued--
			}
			s.mu.Unlock()
			mQueueDepth.Set(int64(len(s.queue)))
			s.runFamily(f)
		}
	}
}

// watchdog cancels running tasks whose engine heartbeats have gone silent
// for longer than StallTimeout; the task then classifies as a retryable
// stall and re-runs (or settles on budget exhaustion).
func (s *Server) watchdog() {
	defer s.wg.Done()
	interval := s.cfg.StallTimeout / 4
	if interval < 5*time.Millisecond {
		interval = 5 * time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-s.runCtx.Done():
			return
		case <-tick.C:
			now := time.Now().UnixNano()
			s.mu.Lock()
			for id, e := range s.watch {
				if now-e.beat.Load() > int64(s.cfg.StallTimeout) {
					mWatchdogStalls.Inc()
					e.cancel(errStalled)
					// Cancel exactly once; the worker unregisters on return.
					delete(s.watch, id)
				}
			}
			s.mu.Unlock()
		}
	}
}

func (s *Server) watchAdd(id string, beat *atomic.Int64, cancel context.CancelCauseFunc) {
	s.mu.Lock()
	s.watch[id] = &watchEntry{beat: beat, cancel: cancel}
	s.mu.Unlock()
}

func (s *Server) watchRemove(id string) {
	s.mu.Lock()
	delete(s.watch, id)
	s.mu.Unlock()
}

// runFamily executes one family in the current worker slot: its tasks in
// execution order, each warm-started from the nearest finished neighbor,
// all sharing one Hamiltonian build cache. Task failures are isolated —
// a curve continues past them — and every settled task is journaled
// individually, so a crash loses at most the in-flight task.
func (s *Server) runFamily(f *family) {
	f.mu.Lock()
	if f.status.Terminal() || f.cancelled {
		// A family cancelled while queued: settle it (idempotent) and skip
		// the stale queue item.
		f.mu.Unlock()
		s.settleFamily(f)
		return
	}
	f.status = StatusRunning
	if f.started.IsZero() {
		f.started = time.Now()
	}
	f.mu.Unlock()
	if f.solo() {
		defer mJobRun.Since(telemetry.Now())
	} else {
		// A job's running frame is its task's (see runTask).
		f.publish(Event{Type: string(StatusRunning)})
	}
	mJobsRunning.Set(s.running.Add(1))
	defer func() { mJobsRunning.Set(s.running.Add(-1)) }()

	famCtx, famCancel := context.WithCancelCause(s.runCtx)
	defer famCancel(nil)
	f.mu.Lock()
	f.cancelCause = famCancel
	if f.cancelled {
		// DELETE raced the pickup: cancel before any task runs.
		famCancel(errSweepCancelled)
	}
	// The warm-start pool starts from the tasks already done (cache hits
	// and replayed results).
	var finished []runspec.SweepPoint
	results := map[int]*runspec.Result{}
	for _, t := range f.tasks {
		if t.status == StatusDone && t.result != nil {
			finished = append(finished, t.pt)
			results[t.pt.Index] = t.result
		}
	}
	f.mu.Unlock()
	shared := runspec.NewBuildCache()

	for _, t := range f.tasks {
		if s.runCtx.Err() != nil {
			s.parkFamily(f)
			return
		}
		f.mu.Lock()
		settled, cancelled := t.status.Terminal(), f.cancelled
		f.mu.Unlock()
		if cancelled {
			break
		}
		if settled {
			continue
		}
		// Re-check the result cache: an identical spec may have completed
		// while this family waited in the queue.
		s.mu.Lock()
		res := s.cachedLocked(t.pt.Hash)
		s.mu.Unlock()
		if res != nil {
			s.settleCached(f, t, res)
		} else {
			var parked bool
			res, parked = s.runTask(famCtx, f, t, shared,
				runspec.NearestParams(t.pt.Value, 0, finished, results))
			if parked {
				s.parkFamily(f)
				return
			}
		}
		if res != nil {
			finished = append(finished, t.pt)
			results[t.pt.Index] = res
		}
	}
	s.settleFamily(f)
}

// runTask executes one task, including its retry attempts, and settles
// it. It returns the result when the task settled done (it then joins the
// warm-start pool), or parked when a drain stopped it mid-run.
func (s *Server) runTask(famCtx context.Context, f *family, t *task, shared *runspec.BuildCache, warm []float64) (done *runspec.Result, parked bool) {
	for {
		checkpoint := ""
		if s.spoolOK.Load() {
			checkpoint = s.spoolPath(t)
		}
		f.mu.Lock()
		t.status = StatusRunning
		t.checkpoint = checkpoint
		t.warmStart = len(warm) > 0 && !t.resume
		resume := t.resume
		f.mu.Unlock()
		f.beat()
		f.publishTask(t, Event{Type: string(StatusRunning)})

		ctx, cancel := context.WithCancelCause(famCtx)
		s.watchAdd(f.ID, &f.lastBeat, cancel)
		res, err := s.execute(ctx, f, t, shared, warm, checkpoint, resume)
		s.watchRemove(f.ID)
		stalled := errors.Is(context.Cause(ctx), errStalled)
		cancel(nil)

		var reason string
		switch {
		case s.runCtx.Err() != nil:
			s.parkTask(f, t, res, err, checkpoint)
			return nil, true

		case errors.Is(context.Cause(famCtx), errSweepCancelled):
			s.settleTask(f, t, StatusCancelled, nil, errSweepCancelled.Error())
			return nil, false

		case stalled:
			reason = fmt.Sprintf("stall: %v", errStalled)

		case errors.Is(err, errJobPanicked):
			reason = err.Error()

		case errors.Is(err, resilience.ErrCheckpointWrite):
			// The spool is broken, not the task: shed checkpointing and
			// retry the attempt without durability.
			s.degradeSpool(fmt.Sprintf("checkpoint write failed: %v", err))
			res, checkpoint, reason = nil, "", err.Error()

		case retryableEngineErr(err):
			reason = err.Error()

		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			// Spec-level walltime expired before the optimizer could capture
			// a best-so-far point (e.g. QPE, or pre-loop).
			s.settleHalted(f, t, nil, err.Error())
			return nil, false

		case err != nil:
			s.settleTask(f, t, StatusFailed, nil, err.Error())
			return nil, false

		case res.Interrupted:
			// Graceful walltime halt with a best-so-far result.
			s.settleHalted(f, t, res, "")
			return nil, false

		default:
			s.settleTask(f, t, StatusDone, res, "")
			return res, false
		}

		if s.retry(f, t, checkpoint, reason) {
			continue
		}
		msg := fmt.Sprintf("retry budget exhausted after %d attempt(s): %s", s.cfg.RetryBudget+1, reason)
		if res != nil {
			s.settleHalted(f, t, res, msg)
		} else {
			s.settleTask(f, t, StatusFailed, nil, msg)
		}
		return nil, false
	}
}

// spoolPath is a task's checkpoint file.
func (s *Server) spoolPath(t *task) string {
	return filepath.Join(s.cfg.SpoolDir, t.key+".ckpt")
}

// execute runs one engine attempt with per-task panic isolation. The
// engine's progress observer feeds the watchdog heartbeat, the chaos
// fault hook, and the SSE stream, in that order.
func (s *Server) execute(ctx context.Context, f *family, t *task, shared *runspec.BuildCache, warm []float64, checkpoint string, resume bool) (res *runspec.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			mJobsPanicked.Inc()
			err = fmt.Errorf("%w: %v", errJobPanicked, r)
		}
	}()
	spec := t.pt.Spec
	if resume && checkpoint != "" {
		sp := *spec
		sp.Resilience.CheckpointPath = checkpoint
		sp.Resilience.Resume = true
		spec = &sp
	}
	hook := s.cfg.FaultHook
	return runspec.Run(ctx, spec, runspec.RunOptions{
		Pool:           s.pool,
		CheckpointPath: checkpoint,
		InitialParams:  warm,
		Shared:         shared,
		OnProgress: func(p runspec.Progress) {
			f.beat()
			if hook != nil {
				hook(ctx, t.key, p)
			}
			f.publishTask(t, Event{Type: "progress", Phase: p.Phase,
				Iteration: p.Iteration, Energy: p.Energy, Operator: p.Operator})
		},
	})
}

// retryableEngineErr classifies transient engine failures worth a
// re-run: exhausted comm retries, detected corruption, dropped
// transfers. Spec errors (invalid argument) are always terminal.
func retryableEngineErr(err error) bool {
	if errors.Is(err, core.ErrInvalidArgument) {
		return false
	}
	return errors.Is(err, resilience.ErrRetriesExhausted) ||
		errors.Is(err, resilience.ErrCorrupted) ||
		errors.Is(err, resilience.ErrDropped)
}

// retry consumes one unit of a task's retry budget and reports false once
// the budget is spent. Within budget it arms a checkpoint resume when the
// attempt's snapshot verifies (a torn or mismatched one cold-starts
// instead), journals the retry so a crash cannot refill the budget, and
// backs off before the caller re-attempts.
func (s *Server) retry(f *family, t *task, checkpoint, reason string) bool {
	f.mu.Lock()
	t.attempt++
	attempt := t.attempt
	f.mu.Unlock()
	if attempt > s.cfg.RetryBudget {
		return false
	}
	resume := false
	if checkpoint != "" {
		if _, err := resilience.CheckpointKind(checkpoint); err == nil {
			resume = true
		} else if !os.IsNotExist(err) {
			os.Remove(checkpoint)
		}
	}
	f.mu.Lock()
	t.status = StatusQueued
	t.resume = resume
	f.mu.Unlock()

	rec := f.taskRecord(journal.OpRetrying, t)
	rec.Attempt, rec.Error, rec.Checkpoint = attempt, reason, checkpoint
	s.journalAppend(rec)
	mJobsRetried.Inc()
	s.logf("vqed: %s attempt %d failed retryably (%s), re-queued", t.key, attempt, reason)
	f.publishTask(t, Event{Type: EventRetrying, Error: reason})
	f.publishTask(t, Event{Type: string(StatusQueued)})

	backoff := time.NewTimer(s.cfg.RetryPolicy.Delay(attempt + 1))
	defer backoff.Stop()
	select {
	case <-backoff.C:
	case <-s.runCtx.Done():
	}
	return true
}

// parkTask journals a drained task's resumable checkpoint. The record is
// non-terminal, so the next start re-runs the task from it. A job also
// shows the drain on its task: interrupted, with the best-so-far result
// when the optimizer captured one.
func (s *Server) parkTask(f *family, t *task, res *runspec.Result, err error, checkpoint string) {
	rec := f.taskRecord(journal.OpCheckpointed, t)
	if checkpoint != "" && fileExists(checkpoint) {
		rec.Checkpoint = checkpoint
	}
	s.journalAppend(rec)
	if !f.solo() {
		return
	}
	f.mu.Lock()
	t.status = StatusInterrupted
	if res != nil {
		t.result = res
	} else if err != nil {
		t.err = err.Error()
	}
	f.mu.Unlock()
}

// parkFamily marks a drain-interrupted family in memory without a
// terminal journal record: its accepted record is still live, so the
// next start re-enqueues it and only unfinished tasks re-run.
func (s *Server) parkFamily(f *family) {
	f.mu.Lock()
	if f.status.Terminal() {
		f.mu.Unlock()
		return
	}
	f.status = StatusInterrupted
	f.finished = time.Now()
	f.mu.Unlock()
	mJobsInterrupted.Inc()
	f.publish(Event{Type: string(StatusInterrupted)})
}

// settleHalted settles a task halted with a partial optimum — a walltime
// halt, or the retry budget spent with a best-so-far — by the family's
// fixed rule: a job keeps it as interrupted with its result; a sweep
// point fails, so the partial optimum stays out of the result cache and
// the warm-start chain.
func (s *Server) settleHalted(f *family, t *task, res *runspec.Result, msg string) {
	if f.solo() {
		s.settleTask(f, t, StatusInterrupted, res, msg)
		return
	}
	if msg == "" {
		msg = "interrupted before convergence"
	}
	s.settleTask(f, t, StatusFailed, nil, msg)
}

// settleCached settles a task from the result cache without simulation.
func (s *Server) settleCached(f *family, t *task, res *runspec.Result) {
	f.mu.Lock()
	t.cacheHit = true
	f.mu.Unlock()
	mCacheHits.Inc()
	s.settleTask(f, t, StatusDone, res, "")
}

// settleTask records a task's outcome: state, then the journal record,
// then the result cache (done only — later submissions of the same spec
// now hit) and the point frame. A cancelled task leaves no record; its
// family's cancelled record covers it. A job's outcome frame is its
// family's (see settleFamily).
func (s *Server) settleTask(f *family, t *task, status Status, res *runspec.Result, errMsg string) {
	f.mu.Lock()
	t.status, t.err = status, errMsg
	if res != nil {
		t.result = res
	}
	checkpoint, cacheHit, warm := t.checkpoint, t.cacheHit, t.warmStart
	f.mu.Unlock()
	if status == StatusCancelled {
		return
	}

	rec := f.taskRecord(journal.Op(status), t)
	rec.Result, rec.Error = journalResult(res), errMsg
	if status != StatusDone && checkpoint != "" && fileExists(checkpoint) {
		rec.Checkpoint = checkpoint
	}
	s.journalAppend(rec)
	if status == StatusDone {
		s.cacheStore(t.pt.Hash, res)
		if checkpoint != "" {
			os.Remove(checkpoint)
		}
	}
	if f.solo() {
		return
	}

	switch {
	case status != StatusDone:
		f.publishTask(t, Event{Type: EventPointFailed, Error: errMsg})
		return
	case cacheHit:
		mSweepPointsCached.Inc()
	case warm:
		mSweepWarmStarts.Inc()
		fallthrough
	default:
		mSweepPointsRun.Inc()
	}
	f.publishTask(t, Event{Type: EventPointDone, Energy: res.Energy})
}

// settleFamily records the family's terminal outcome once its tasks have
// settled: a job's is its task's; a sweep's is cancelled before failed
// before done, journaled as the family record. Idempotent — the first
// settle wins.
func (s *Server) settleFamily(f *family) {
	f.mu.Lock()
	if f.status.Terminal() {
		f.mu.Unlock()
		return
	}
	failed := 0
	for _, t := range f.tasks {
		if f.cancelled && !t.status.Terminal() {
			t.status = StatusCancelled
		}
		if t.status == StatusFailed {
			failed++
		}
	}
	status, errMsg := StatusDone, ""
	switch {
	case f.solo():
		status, errMsg = f.tasks[0].status, f.tasks[0].err
	case f.cancelled:
		status, errMsg = StatusCancelled, errSweepCancelled.Error()
	case failed > 0:
		status, errMsg = StatusFailed, fmt.Sprintf("%d of %d point(s) failed", failed, len(f.tasks))
	}
	f.status, f.errMsg, f.finished = status, errMsg, time.Now()
	if f.solo() && f.started.IsZero() {
		// A job answered from the cache at admission starts and finishes
		// at once.
		f.started = f.finished
	}
	ran := f.solo() && !f.tasks[0].cacheHit
	queueWait, runTime, e2e := f.started.Sub(f.submitted), f.finished.Sub(f.started), f.finished.Sub(f.submitted)
	f.mu.Unlock()

	if f.solo() {
		if ran {
			mQueueWaitMs.Observe(float64(queueWait) / float64(time.Millisecond))
			mRunMs.Observe(float64(runTime) / float64(time.Millisecond))
			s.observeRunTime(runTime)
		}
		mE2EMs.Observe(float64(e2e) / float64(time.Millisecond))
	} else {
		s.journalAppend(journal.Record{Op: sweepOps[status], JobID: f.ID,
			SpecHash: f.Hash, Error: errMsg})
	}
	if c := f.counters().settled[status]; c != nil {
		c.Inc()
	}
	frame := Event{Type: string(status), Error: errMsg}
	if status == StatusInterrupted {
		frame.Error = ""
	}
	f.publish(frame)
	s.compactIfNeeded(false)
}
