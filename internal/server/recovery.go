package server

// Journal replay: how a restarted daemon rebuilds its family table. Every
// accepted family reappears. Settled ones keep their recorded outcomes,
// so clients polling across the restart still get answers, and their
// done results re-seed the result cache. Unfinished ones re-enqueue with
// only their open tasks left to run; each open task keeps its spent
// retries and resumes from its latest resilience checkpoint when one
// validates. Replay reads both record vocabularies: the job ops and the
// sweep ops.

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/resilience"
	"repro/internal/runspec"
	"repro/internal/server/journal"
	"repro/internal/telemetry"
)

var (
	mJobsReplayed   = telemetry.GetCounter("server.jobs.replayed_terminal")
	mRecoverDropped = telemetry.GetCounter("server.recovery.dropped_records")
)

// pointOps translates a task op from the job vocabulary into the sweep
// point vocabulary; ops without a point form (running, retrying) keep
// their name. sweepOps names a sweep family's terminal record.
var (
	pointOps = map[journal.Op]journal.Op{
		journal.OpDone:         journal.OpSweepPointDone,
		journal.OpFailed:       journal.OpSweepPointFailed,
		journal.OpCheckpointed: journal.OpSweepCheckpoint,
	}
	sweepOps = map[Status]journal.Op{
		StatusDone:      journal.OpSweepDone,
		StatusFailed:    journal.OpSweepFailed,
		StatusCancelled: journal.OpSweepCancelled,
	}
)

// point is the task's Point in records and frames: 0 for a job's task,
// the 1-based submission index for a sweep point.
func (f *family) point(t *task) int {
	if f.solo() {
		return 0
	}
	return t.pt.Index + 1
}

// acceptedRecord is the family's admission record, carrying its full
// document.
func (f *family) acceptedRecord() journal.Record {
	if f.solo() {
		return journal.Record{Op: journal.OpAccepted, JobID: f.ID, SpecHash: f.Hash,
			Spec: journalSpec(f.tasks[0].pt.Spec)}
	}
	return journal.Record{Op: journal.OpSweepAccepted, JobID: f.ID, SpecHash: f.Hash,
		Spec: journalSpec(f.sweep)}
}

// taskRecord is a task-level record in its family's vocabulary: a job's
// records use the job ops, a sweep point's carry its Point and use the
// point ops.
func (f *family) taskRecord(op journal.Op, t *task) journal.Record {
	rec := journal.Record{Op: op, JobID: f.ID, SpecHash: t.pt.Hash, Point: f.point(t)}
	if p, ok := pointOps[op]; ok && !f.solo() {
		rec.Op = p
	}
	return rec
}

// replayed is one family's merged journal facts. Records for one family
// interleave with other families' and repeat across retries.
type replayed struct {
	id    string
	hash  string
	doc   json.RawMessage
	sweep bool
	// op and errMsg are a sweep's terminal record; a job's outcome is its
	// task's.
	op     journal.Op
	errMsg string
	// tasks holds per-task facts keyed by record Point.
	tasks map[int]*replayedTask
}

// replayedTask keeps the strongest fact per task — an outcome beats a
// live state, and done beats any other outcome — plus the latest attempt
// count and checkpoint.
type replayedTask struct {
	// op is the outcome in the job vocabulary; empty while the task is open.
	op         journal.Op
	attempt    int
	checkpoint string
	errMsg     string
	result     json.RawMessage
}

// mergeRecords folds a replayed record stream into per-family facts,
// preserving first-appearance order.
func mergeRecords(recs []journal.Record) []*replayed {
	byID := map[string]*replayed{}
	var order []*replayed
	for _, rec := range recs {
		if rec.JobID == "" {
			mRecoverDropped.Inc()
			continue
		}
		e := byID[rec.JobID]
		if e == nil {
			e = &replayed{id: rec.JobID, tasks: map[int]*replayedTask{}}
			byID[rec.JobID] = e
			order = append(order, e)
		}
		e.sweep = e.sweep || rec.Op.Sweep()
		if rec.Point == 0 && rec.SpecHash != "" {
			e.hash = rec.SpecHash
		}
		t := e.tasks[rec.Point]
		if t == nil {
			t = &replayedTask{}
		}
		switch op := jobOp(rec.Op); op {
		case journal.OpAccepted, journal.OpSweepAccepted:
			e.doc = rec.Spec
			continue
		case journal.OpSweepDone, journal.OpSweepFailed, journal.OpSweepCancelled:
			e.op, e.errMsg = rec.Op, rec.Error
			continue
		case journal.OpRunning, journal.OpRetrying:
			if t.op == "" {
				t.attempt = rec.Attempt
			}
		case journal.OpCheckpointed:
			if t.op == "" {
				t.checkpoint = rec.Checkpoint
			}
		case journal.OpDone, journal.OpFailed, journal.OpInterrupted:
			if t.op != journal.OpDone {
				t.op, t.result, t.errMsg = op, rec.Result, rec.Error
				if rec.Checkpoint != "" {
					t.checkpoint = rec.Checkpoint
				}
			}
		default:
			mRecoverDropped.Inc()
			continue
		}
		e.tasks[rec.Point] = t
	}
	return order
}

// jobOp maps a point op back to the job vocabulary.
func jobOp(op journal.Op) journal.Op {
	for j, p := range pointOps {
		if p == op {
			return j
		}
	}
	return op
}

// recoverFamilies rebuilds the family table from replayed journal
// records, returning the families to re-enqueue. Called from New before
// the worker fleet starts, so no locking is needed yet.
func (s *Server) recoverFamilies(recs []journal.Record) []*family {
	var pending []*family
	for _, e := range mergeRecords(recs) {
		f := s.rebuild(e)
		s.families[f.ID] = f
		s.order = append(s.order, f.ID)
		// Continue the ID sequence past the replayed maximum.
		if i := strings.LastIndexByte(f.ID, '-'); i > 0 {
			if n, err := strconv.Atoi(f.ID[i+1:]); err == nil && n > s.seq[f.ID[:i]] {
				s.seq[f.ID[:i]] = n
			}
		}
		if f.status.Terminal() {
			mJobsReplayed.Inc()
		} else {
			pending = append(pending, f)
			f.counters().recovered.Inc()
		}
	}
	return pending
}

// rebuild turns one family's merged facts into a live family. The
// document re-expands to the same tasks (expansion is deterministic).
// Settled tasks replay their recorded outcomes; open tasks keep their
// attempt count and resume from a verified checkpoint. A family whose
// document is unusable cannot re-run: settled, it still answers polls;
// open, it surfaces as failed rather than silently vanishing.
func (s *Server) rebuild(e *replayed) *family {
	f, err := e.family()
	if err != nil {
		s.logf("vqed: recovery: %s document unusable: %v", e.id, err)
	}
	if e.hash != "" {
		f.Hash = e.hash
		if f.solo() {
			// The journaled hash stays the job's cache key.
			f.tasks[0].pt.Hash = e.hash
		}
	}
	matched := 0
	for _, t := range f.tasks {
		rt := e.tasks[f.point(t)]
		if rt == nil {
			rt = &replayedTask{}
		} else {
			matched++
		}
		t.attempt = rt.attempt
		if rt.op == "" {
			s.armResume(t, rt.checkpoint)
			continue
		}
		t.status, t.err, t.checkpoint = Status(rt.op), rt.errMsg, rt.checkpoint
		if len(rt.result) > 0 {
			var res runspec.Result
			if err := json.Unmarshal(rt.result, &res); err != nil {
				s.logf("vqed: recovery: %s result unusable: %v", t.key, err)
				continue
			}
			t.result = &res
			if t.status == StatusDone {
				s.cacheStore(t.pt.Hash, &res)
			}
		}
	}
	mRecoverDropped.Add(int64(len(e.tasks) - matched))

	switch {
	case f.solo() && f.tasks[0].status.Terminal():
		f.status, f.errMsg = f.tasks[0].status, f.tasks[0].err
	case e.op != "":
		f.status, f.errMsg = StatusQueued, e.errMsg
		for st, op := range sweepOps {
			if op == e.op {
				f.status = st
			}
		}
	case err != nil:
		f.status = StatusFailed
		f.errMsg = fmt.Sprintf("server: journal holds no recoverable spec for this %s", f.kind())
		if f.solo() {
			f.tasks[0].status, f.tasks[0].err = f.status, f.errMsg
		}
	}
	if f.status.Terminal() {
		now := time.Now()
		f.started, f.finished = now, now
		for _, t := range f.tasks {
			if f.status == StatusCancelled && !t.status.Terminal() {
				t.status = StatusCancelled
			}
		}
	}
	f.publish(Event{Type: string(f.status), Error: f.errMsg})
	return f
}

// family re-expands the journaled document. Without a usable one it
// returns an empty stand-in under the same ID, with the parse error.
func (e *replayed) family() (*family, error) {
	if e.sweep {
		ss, err := runspec.ParseSweep(e.doc)
		if err == nil {
			var points []runspec.SweepPoint
			if points, err = ss.Points(); err == nil {
				return newSweep(e.id, ss, points), nil
			}
		}
		return newSweep(e.id, &runspec.SweepSpec{}, nil), err
	}
	spec, err := runspec.Parse(e.doc)
	if err != nil {
		spec = &runspec.RunSpec{}
	}
	return newJob(e.id, spec), err
}

// armResume points an open task at its checkpoint when the snapshot
// verifies (CRC + version). Without a journaled one it probes the task's
// spool file: a crash between a checkpoint write and the next journal
// append leaves a snapshot the journal never heard about. A torn or
// corrupt snapshot is deleted so the rerun cold-starts instead of failing
// on load.
func (s *Server) armResume(t *task, ckpt string) {
	if ckpt == "" {
		ckpt = s.spoolPath(t)
	}
	if _, err := resilience.CheckpointKind(ckpt); err == nil {
		t.checkpoint, t.resume = ckpt, true
	} else if !os.IsNotExist(err) {
		s.logf("vqed: recovery: %s checkpoint %s invalid, cold restart: %v", t.key, ckpt, err)
		os.Remove(ckpt)
	}
}

func fileExists(path string) bool {
	fi, err := os.Stat(path)
	return err == nil && fi.Mode().IsRegular()
}

// journalSpec marshals a family document (a RunSpec or a SweepSpec) for
// its accepted record.
func journalSpec(doc any) json.RawMessage {
	raw, err := json.Marshal(doc)
	if err != nil {
		return nil
	}
	return raw
}

// journalResult marshals a result for a terminal record.
func journalResult(res *runspec.Result) json.RawMessage {
	if res == nil {
		return nil
	}
	return journalSpec(res)
}

// compactThreshold is how many appended records trigger a background
// journal compaction after a family settles.
const compactThreshold = 512

// liveSnapshot rebuilds the minimal record set that reproduces the
// current family table: the accepted record for every family, the
// outcome record of every settled task, the spent-retry and checkpoint
// facts of open ones, and a settled sweep's terminal record. Compact
// calls it under the journal lock; that is safe because nothing appends
// while holding s.mu or a family lock.
func (s *Server) liveSnapshot() []journal.Record {
	// Snapshot the family list under s.mu, then read each family under its
	// own lock only after s.mu is released (same lock-order discipline as
	// the HTTP listing path).
	families := s.list("")
	var recs []journal.Record
	for _, f := range families {
		f.mu.Lock()
		recs = append(recs, f.acceptedRecord())
		for _, t := range f.tasks {
			switch {
			case t.status == StatusCancelled:
			case t.status.Terminal():
				rec := f.taskRecord(journal.Op(t.status), t)
				rec.Result, rec.Error = journalResult(t.result), t.err
				if t.status == StatusInterrupted {
					rec.Checkpoint = t.checkpoint
				}
				recs = append(recs, rec)
			default:
				if t.attempt > 0 {
					rec := f.taskRecord(journal.OpRetrying, t)
					rec.Attempt, rec.Error = t.attempt, t.err
					recs = append(recs, rec)
				}
				if t.resume && t.checkpoint != "" {
					rec := f.taskRecord(journal.OpCheckpointed, t)
					rec.Checkpoint = t.checkpoint
					recs = append(recs, rec)
				}
			}
		}
		if op, ok := sweepOps[f.status]; ok && !f.solo() {
			recs = append(recs, journal.Record{Op: op, JobID: f.ID, SpecHash: f.Hash, Error: f.errMsg})
		}
		f.mu.Unlock()
	}
	return recs
}

// compactIfNeeded rewrites the journal down to the live snapshot once
// enough appends have accumulated. At most one compaction runs at a time;
// contenders simply skip (the next settling family retries).
func (s *Server) compactIfNeeded(force bool) {
	s.mu.Lock()
	jn := s.jn
	s.mu.Unlock()
	if jn == nil {
		return
	}
	if !force && jn.Appended() < compactThreshold {
		return
	}
	if !s.compacting.CompareAndSwap(false, true) {
		return
	}
	defer s.compacting.Store(false)
	if err := jn.Compact(s.liveSnapshot); err != nil {
		s.degrade(fmt.Sprintf("journal compaction failed: %v", err))
	}
}
