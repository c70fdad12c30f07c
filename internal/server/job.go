package server

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/runspec"
)

// Status is a job's lifecycle state.
type Status string

const (
	// StatusQueued: accepted, waiting for a scheduler slot.
	StatusQueued Status = "queued"
	// StatusRunning: a worker is executing the spec.
	StatusRunning Status = "running"
	// StatusDone: completed; the result is final and cached.
	StatusDone Status = "done"
	// StatusFailed: the run returned an error.
	StatusFailed Status = "failed"
	// StatusInterrupted: halted by shutdown or walltime with best-so-far
	// results; a checkpoint on disk resumes the exact trajectory.
	StatusInterrupted Status = "interrupted"
	// StatusCancelled: a sweep family (or one of its not-yet-run points)
	// was cancelled by the client. Jobs never reach this state.
	StatusCancelled Status = "cancelled"
)

// Terminal reports whether the status is final.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusInterrupted || s == StatusCancelled
}

// EventRetrying is the non-lifecycle event type published when a job
// failed retryably (panic, stall, transient fault) and is re-queued;
// Error carries the reason. The job returns to "queued" immediately
// after.
const EventRetrying = "retrying"

// EventPointDone / EventPointFailed are the sweep point-completion
// frames: one per settled family member, carrying Point/Value (and
// Energy on success).
const (
	EventPointDone   = "point_done"
	EventPointFailed = "point_failed"
)

// Event is one SSE frame: a lifecycle transition, a per-iteration
// progress sample, or a sweep point completion.
type Event struct {
	// Type: queued | running | progress | retrying | done | failed |
	// interrupted | cancelled | point_done | point_failed.
	Type string `json:"type"`
	// Seq numbers events within a job or sweep, monotonically from 1.
	Seq int `json:"seq"`
	// Progress fields (Type == "progress").
	Phase     string  `json:"phase,omitempty"`
	Iteration int     `json:"iteration,omitempty"`
	Energy    float64 `json:"energy,omitempty"`
	Operator  string  `json:"operator,omitempty"`
	// Point / Value identify the sweep member a frame belongs to
	// (point_done, point_failed, and sweep progress frames). Point is
	// the 1-based submission-order index.
	Point int     `json:"point,omitempty"`
	Value float64 `json:"value,omitempty"`
	// Error is set on failed events.
	Error string `json:"error,omitempty"`
}

// maxEventHistory bounds the per-family replay buffer; when full, the
// oldest progress events are dropped (lifecycle events are never dropped).
const maxEventHistory = 1024

// task is one spec's execution state: a job's only task or one sweep
// point. pt is the immutable identity (index, axis value, spec, rs1
// hash); the mutable fields are guarded by the owning family's mu.
type task struct {
	pt runspec.SweepPoint
	// key names the task for its spool checkpoint (key + ".ckpt") and the
	// fault hook: the job ID, or the sweep ID plus "-pNNN".
	key    string
	status Status
	err    string
	result *runspec.Result
	// cacheHit marks a result served from the result cache; warmStart an
	// execution seeded from a finished neighbor's parameters.
	cacheHit  bool
	warmStart bool
	// attempt counts retries consumed (0 before the first retry); the
	// scheduler's retry budget is measured against it.
	attempt int
	// resume marks that the next execution loads checkpoint (set after a
	// retryable failure left a valid snapshot, or by journal recovery).
	resume     bool
	checkpoint string
}

// family is the unit of admission, scheduling, journaling and replay. A
// job is a family of one task with no axis; a sweep is a family of one
// task per point. Every family runs through the same lifecycle; the only
// differences are fixed rules keyed on solo(). All mutable fields are
// guarded by mu.
type family struct {
	ID string
	// Hash is the content hash the accepted record carries: a job's rs1
	// spec hash (its cache key), or a sweep's sw1 family hash.
	Hash string
	// sweep is the submitted family document; nil for a job.
	sweep *runspec.SweepSpec

	mu     sync.Mutex
	status Status
	errMsg string
	// cancelled is sticky once a client DELETE lands; the runner checks it
	// between tasks.
	cancelled bool
	// cancelCause cancels the in-flight family context (set while a worker
	// owns the family).
	cancelCause context.CancelCauseFunc
	// tasks are in execution order: ascending axis value for a sweep
	// (runspec.ExecutionOrder), so each point warm-starts from its nearest
	// finished neighbor.
	tasks     []*task
	submitted time.Time
	started   time.Time
	finished  time.Time

	// lastBeat is the UnixNano of the most recent engine progress heartbeat
	// — what the stuck-job watchdog compares against its no-progress
	// deadline. Atomic so the watchdog never contends with the hot
	// observer path.
	lastBeat atomic.Int64

	// hub carries the event history and SSE fan-out; its lock is
	// independent of mu (see eventHub).
	hub eventHub
}

// Job and Sweep name a family by the endpoint that serves it.
type (
	Job   = family
	Sweep = family
)

func newFamily(id, hash string, ss *runspec.SweepSpec, points []runspec.SweepPoint) *family {
	f := &family{
		Hash:      hash,
		sweep:     ss,
		status:    StatusQueued,
		submitted: time.Now(),
		hub:       newEventHub(),
	}
	for _, i := range runspec.ExecutionOrder(points) {
		f.tasks = append(f.tasks, &task{pt: points[i], status: StatusQueued})
	}
	f.setID(id)
	return f
}

// newJob builds a family of one: the spec is its only task.
func newJob(id string, spec *runspec.RunSpec) *family {
	hash := spec.Hash()
	return newFamily(id, hash, nil, []runspec.SweepPoint{{Spec: spec, Hash: hash}})
}

// newSweep builds a family with one task per expanded point.
func newSweep(id string, ss *runspec.SweepSpec, points []runspec.SweepPoint) *family {
	return newFamily(id, ss.Hash(), ss, points)
}

// setID names the family and derives its tasks' keys.
func (f *family) setID(id string) {
	f.ID = id
	for _, t := range f.tasks {
		t.key = id
		if !f.solo() {
			t.key = fmt.Sprintf("%s-p%03d", id, t.pt.Index+1)
		}
	}
}

// solo reports whether the family is a job: one task, no axis.
func (f *family) solo() bool { return f.sweep == nil }

// kind is the ID prefix and endpoint noun: "job" or "sweep".
func (f *family) kind() string {
	if f.solo() {
		return "job"
	}
	return "sweep"
}

// beat records engine liveness for the watchdog.
func (f *family) beat() { f.lastBeat.Store(time.Now().UnixNano()) }

// publish / subscribe / unsubscribe delegate to the event hub.
func (f *family) publish(e Event)                  { f.hub.publish(e) }
func (f *family) subscribe() ([]Event, chan Event) { return f.hub.subscribe() }
func (f *family) unsubscribe(ch chan Event)        { f.hub.unsubscribe(ch) }

// publishTask publishes a task-level frame. A sweep point's frames carry
// its point and value, and its queued/running transitions stay internal
// (the family's own lifecycle frames cover them); a job's task
// transitions are the job's lifecycle frames.
func (f *family) publishTask(t *task, e Event) {
	if !f.solo() {
		if e.Type == string(StatusQueued) || e.Type == string(StatusRunning) {
			return
		}
		e.Point, e.Value = t.pt.Index+1, t.pt.Value
	}
	f.publish(e)
}

// terminal reports whether the family has settled (or was parked by a
// drain).
func (f *family) terminal() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.status.Terminal()
}

// snapshot returns a job's status, result and error.
func (f *family) snapshot() (Status, *runspec.Result, string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	t := f.tasks[0]
	return t.status, t.result, t.err
}

// View is the JSON representation of a job served by the jobs endpoints.
type View struct {
	ID       string `json:"id"`
	SpecHash string `json:"spec_hash"`
	Status   Status `json:"status"`
	// CacheHit marks a job served from the result cache without
	// re-simulation.
	CacheHit bool   `json:"cache_hit,omitempty"`
	Error    string `json:"error,omitempty"`
	// Attempt counts retries consumed so far (0 = first execution).
	Attempt int `json:"attempt,omitempty"`
	// CheckpointPath is set once the job has a spool snapshot to resume
	// from (interrupted jobs).
	CheckpointPath string          `json:"checkpoint_path,omitempty"`
	Submitted      time.Time       `json:"submitted"`
	Started        *time.Time      `json:"started,omitempty"`
	Finished       *time.Time      `json:"finished,omitempty"`
	Result         *runspec.Result `json:"result,omitempty"`
}

// SweepPointView is one point's state on the wire. Point is the 1-based
// submission-order index, matching the Point field of SSE frames and
// journal records.
type SweepPointView struct {
	Point       int     `json:"point"`
	Value       float64 `json:"value"`
	SpecHash    string  `json:"spec_hash"`
	Status      Status  `json:"status"`
	CacheHit    bool    `json:"cache_hit,omitempty"`
	WarmStarted bool    `json:"warm_started,omitempty"`
	Attempt     int     `json:"attempt,omitempty"`
	Error       string  `json:"error,omitempty"`
	// Energy is the converged point energy (done points only).
	Energy float64 `json:"energy,omitempty"`
}

// CurvePoint is one finished sample of the family's curve, ascending by
// axis value.
type CurvePoint struct {
	Value  float64 `json:"value"`
	Energy float64 `json:"energy"`
	Exact  float64 `json:"exact,omitempty"`
	// Evaluations is the optimizer's energy-evaluation count for this
	// point — the warm-start savings show up here.
	Evaluations int `json:"evaluations,omitempty"`
}

// SweepView is the JSON representation of a family served by the sweeps
// endpoints.
type SweepView struct {
	ID         string `json:"id"`
	FamilyHash string `json:"family_hash"`
	Param      string `json:"param"`
	Status     Status `json:"status"`
	Error      string `json:"error,omitempty"`
	// Aggregate point counts.
	Points     int `json:"points"`
	Done       int `json:"done"`
	Failed     int `json:"failed,omitempty"`
	Cancelled  int `json:"cancelled,omitempty"`
	CacheHits  int `json:"cache_hits,omitempty"`
	WarmStarts int `json:"warm_starts,omitempty"`
	// EnergyEvaluations totals optimizer work across finished points.
	EnergyEvaluations int        `json:"energy_evaluations,omitempty"`
	Submitted         time.Time  `json:"submitted"`
	Started           *time.Time `json:"started,omitempty"`
	Finished          *time.Time `json:"finished,omitempty"`
	// PointStates (detail only) lists every point in submission order;
	// Curve holds the finished samples ascending by axis value — the
	// partial dissociation curve while the family still runs.
	PointStates []SweepPointView `json:"point_states,omitempty"`
	Curve       []CurvePoint     `json:"curve,omitempty"`
}

// wire is the family's endpoint body: a job's View or a sweep's
// SweepView. detail embeds the result (jobs) or the per-point states and
// curve (sweeps); listings elide them.
func (f *family) wire(detail bool) any {
	if f.solo() {
		return f.jobView(detail)
	}
	return f.view(detail)
}

// jobView snapshots a job.
func (f *family) jobView(withResult bool) View {
	f.mu.Lock()
	defer f.mu.Unlock()
	t := f.tasks[0]
	v := View{
		ID:        f.ID,
		SpecHash:  f.Hash,
		Status:    t.status,
		CacheHit:  t.cacheHit,
		Error:     t.err,
		Attempt:   t.attempt,
		Submitted: f.submitted,
		Started:   timePtr(f.started),
		Finished:  timePtr(f.finished),
	}
	if t.status == StatusInterrupted {
		v.CheckpointPath = t.checkpoint
	}
	if withResult {
		v.Result = t.result
	}
	return v
}

// view snapshots a sweep family.
func (f *family) view(withPoints bool) SweepView {
	f.mu.Lock()
	defer f.mu.Unlock()
	v := SweepView{
		ID:         f.ID,
		FamilyHash: f.Hash,
		Param:      f.sweep.Axis.Param,
		Status:     f.status,
		Error:      f.errMsg,
		Points:     len(f.tasks),
		Submitted:  f.submitted,
		Started:    timePtr(f.started),
		Finished:   timePtr(f.finished),
	}
	if withPoints {
		v.PointStates = make([]SweepPointView, len(f.tasks))
	}
	for _, t := range f.tasks {
		switch t.status {
		case StatusDone:
			v.Done++
		case StatusFailed:
			v.Failed++
		case StatusCancelled:
			v.Cancelled++
		}
		if t.cacheHit {
			v.CacheHits++
		}
		if t.warmStart {
			v.WarmStarts++
		}
		if t.result != nil {
			v.EnergyEvaluations += t.result.EnergyEvaluations
		}
		if !withPoints {
			continue
		}
		pv := SweepPointView{
			Point:       t.pt.Index + 1,
			Value:       t.pt.Value,
			SpecHash:    t.pt.Hash,
			Status:      t.status,
			CacheHit:    t.cacheHit,
			WarmStarted: t.warmStart,
			Attempt:     t.attempt,
			Error:       t.err,
		}
		if t.status == StatusDone && t.result != nil {
			pv.Energy = t.result.Energy
			v.Curve = append(v.Curve, CurvePoint{
				Value:       t.pt.Value,
				Energy:      t.result.Energy,
				Exact:       t.result.Exact,
				Evaluations: t.result.EnergyEvaluations,
			})
		}
		v.PointStates[t.pt.Index] = pv
	}
	sort.Slice(v.Curve, func(a, b int) bool { return v.Curve[a].Value < v.Curve[b].Value })
	return v
}

func timePtr(t time.Time) *time.Time {
	if t.IsZero() {
		return nil
	}
	return &t
}
