package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/runspec"
	"repro/internal/server/journal"
)

// pinnedJobView is the /v1/jobs wire contract: every job body must decode
// into it with no unknown fields.
type pinnedJobView struct {
	ID             string          `json:"id"`
	SpecHash       string          `json:"spec_hash"`
	Status         string          `json:"status"`
	CacheHit       bool            `json:"cache_hit"`
	Error          string          `json:"error"`
	Attempt        int             `json:"attempt"`
	CheckpointPath string          `json:"checkpoint_path"`
	Submitted      time.Time       `json:"submitted"`
	Started        *time.Time      `json:"started"`
	Finished       *time.Time      `json:"finished"`
	Result         *runspec.Result `json:"result"`
}

// pinnedFrame is the SSE frame contract shared by jobs and sweeps.
type pinnedFrame struct {
	Type      string  `json:"type"`
	Seq       int     `json:"seq"`
	Phase     string  `json:"phase"`
	Iteration int     `json:"iteration"`
	Energy    float64 `json:"energy"`
	Operator  string  `json:"operator"`
	Point     int     `json:"point"`
	Value     float64 `json:"value"`
	Error     string  `json:"error"`
}

// getStrict GETs path and decodes the body into v with no unknown fields.
func getStrict(t *testing.T, ts *httptest.Server, path string, v any) int {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		t.Fatalf("GET %s drifted from the pinned wire shape: %v\n%s", path, err, body)
	}
	return resp.StatusCode
}

// lifecycleFrames reads a finished job's SSE stream and returns its
// non-progress frames in order, each strictly decoded.
func lifecycleFrames(t *testing.T, ts *httptest.Server, id string) []pinnedFrame {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var frames []pinnedFrame
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		dec := json.NewDecoder(strings.NewReader(data))
		dec.DisallowUnknownFields()
		var f pinnedFrame
		if err := dec.Decode(&f); err != nil {
			t.Fatalf("job SSE frame drifted from the pinned shape: %v\n%s", err, data)
		}
		if f.Point != 0 || f.Value != 0 {
			t.Errorf("job frame carries sweep fields: %+v", f)
		}
		if f.Type != "progress" {
			frames = append(frames, f)
		}
		if Status(f.Type).Terminal() {
			break
		}
	}
	return frames
}

func frameTypes(frames []pinnedFrame) string {
	types := make([]string, len(frames))
	for i, f := range frames {
		types[i] = f.Type
	}
	return strings.Join(types, ",")
}

// TestJobWireShapeGolden pins the /v1/jobs wire contract the way
// TestSweepWireShapeGolden pins /v1/sweeps: detail bodies for a done, a
// failed, a cache-hit and an interrupted job, the listing, and the SSE
// lifecycle frames (retrying included) must all decode into the pinned
// shapes with no unknown fields and the documented frame order.
func TestJobWireShapeGolden(t *testing.T) {
	// job-000002 panics on every attempt: one retry, then failed.
	hook := func(ctx context.Context, key string, p runspec.Progress) {
		if key == "job-000002" {
			panic("server: injected golden-test panic")
		}
	}
	_, ts := newTestServer(t, Config{MaxConcurrent: 1, RetryBudget: 1, FaultHook: hook})

	const h2 = `{"molecule":{"kind":"h2"}}`
	done := submitSpec(t, ts, h2)
	if done.ID != "job-000001" {
		t.Fatalf("first job id %s", done.ID)
	}
	pollDone(t, ts, done.ID, 30*time.Second)
	var v pinnedJobView
	if code := getStrict(t, ts, "/v1/jobs/"+done.ID, &v); code != http.StatusOK {
		t.Fatalf("detail status %d", code)
	}
	if v.Status != "done" || v.Result == nil || v.CacheHit || v.Error != "" ||
		v.Attempt != 0 || v.CheckpointPath != "" || v.Started == nil || v.Finished == nil {
		t.Errorf("done view %+v", v)
	}
	if got := frameTypes(lifecycleFrames(t, ts, done.ID)); got != "queued,running,done" {
		t.Errorf("done job frames %s", got)
	}

	failed := submitSpec(t, ts, `{"molecule":{"kind":"h2"},"optimizer":{"method":"nelder-mead","max_iter":40}}`)
	pollDone(t, ts, failed.ID, 30*time.Second)
	v = pinnedJobView{}
	getStrict(t, ts, "/v1/jobs/"+failed.ID, &v)
	if v.Status != "failed" || v.Result != nil || v.Attempt != 2 ||
		!strings.Contains(v.Error, "retry budget exhausted after 2 attempt(s)") {
		t.Errorf("failed view %+v", v)
	}
	frames := lifecycleFrames(t, ts, failed.ID)
	if got := frameTypes(frames); got != "queued,running,retrying,queued,running,failed" {
		t.Errorf("failed job frames %s", got)
	}
	for _, f := range frames {
		if (f.Type == EventRetrying || f.Type == "failed") && f.Error == "" {
			t.Errorf("%s frame without error: %+v", f.Type, f)
		}
	}

	// A resubmission of the done spec is a settled cache hit: 200 at once.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(h2))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var hit pinnedJobView
	if err := dec.Decode(&hit); err != nil {
		t.Fatalf("cache-hit submit body drifted: %v\n%s", err, body)
	}
	if resp.StatusCode != http.StatusOK || hit.Status != "done" || !hit.CacheHit || hit.Result == nil {
		t.Errorf("cache hit: status %d view %+v", resp.StatusCode, hit)
	}
	if got := frameTypes(lifecycleFrames(t, ts, hit.ID)); got != "queued,done" {
		t.Errorf("cache-hit frames %s", got)
	}

	var list struct {
		Jobs []pinnedJobView `json:"jobs"`
	}
	getStrict(t, ts, "/v1/jobs", &list)
	if len(list.Jobs) != 3 {
		t.Fatalf("listing has %d jobs, want 3", len(list.Jobs))
	}
	for i, j := range list.Jobs {
		if j.Result != nil {
			t.Errorf("listing embeds a result: %+v", j)
		}
		if want := []string{"done", "failed", "done"}[i]; j.Status != want {
			t.Errorf("listing[%d] status %s, want %s", i, j.Status, want)
		}
	}

	// Interrupted: a drain parks an in-flight job with its best-so-far
	// result and the resumable checkpoint path.
	srv2, ts2 := newTestServer(t, Config{MaxConcurrent: 1, SimWorkers: 2})
	job, err := srv2.Submit(&runspec.RunSpec{Molecule: runspec.MoleculeSpec{Kind: "water"}})
	if err != nil {
		t.Fatal(err)
	}
	waitProgress(t, job, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv2.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	v = pinnedJobView{}
	getStrict(t, ts2, "/v1/jobs/"+job.ID, &v)
	if v.Status != "interrupted" || v.Result == nil || !v.Result.Interrupted ||
		!strings.HasSuffix(v.CheckpointPath, job.ID+".ckpt") {
		t.Errorf("interrupted view %+v", v)
	}
	if got := frameTypes(lifecycleFrames(t, ts2, job.ID)); got != "queued,running,interrupted" {
		t.Errorf("interrupted job frames %s", got)
	}
}

// TestReplayParentVocabulary proves a spool written by an older daemon
// still recovers: every journal op, for jobs and sweep points, in every
// lifecycle state, replays to the expected view. A blocker job holds the
// only worker so replayed pending entries stay observable as queued.
func TestReplayParentVocabulary(t *testing.T) {
	spool := t.TempDir()
	spec := func(maxIter int) *runspec.RunSpec {
		return &runspec.RunSpec{Optimizer: runspec.OptimizerSpec{Method: "nelder-mead", MaxIter: maxIter}}
	}
	accepted := func(id string, sp *runspec.RunSpec) journal.Record {
		return journal.Record{Op: journal.OpAccepted, JobID: id, SpecHash: sp.Hash(), Spec: journalSpec(sp)}
	}
	res := func(e float64) json.RawMessage { return journalResult(&runspec.Result{Energy: e}) }
	ckpt := filepath.Join(spool, "job-000005.ckpt")
	const sweepDoc = `{"base":{"molecule":{"kind":"h2"}},"axis":{"param":"distance","values":[0.5,0.7,0.9]}}`
	sweepRaw := json.RawMessage(sweepDoc)
	ss, err := runspec.ParseSweep(sweepRaw)
	if err != nil {
		t.Fatal(err)
	}
	sweepAccepted := func(id string) journal.Record {
		return journal.Record{Op: journal.OpSweepAccepted, JobID: id, SpecHash: ss.Hash(), Spec: sweepRaw}
	}

	writeJournal(t, spool, []journal.Record{
		// The blocker: first in the journal, so first re-enqueued.
		accepted("job-000001", spec(10)),
		accepted("job-000002", spec(11)),
		accepted("job-000003", spec(12)),
		{Op: journal.OpRunning, JobID: "job-000003"},
		accepted("job-000004", spec(13)),
		{Op: journal.OpRunning, JobID: "job-000004", Attempt: 1},
		accepted("job-000005", spec(14)),
		{Op: journal.OpRunning, JobID: "job-000005", Checkpoint: ckpt},
		{Op: journal.OpCheckpointed, JobID: "job-000005", Checkpoint: ckpt},
		accepted("job-000006", spec(15)),
		{Op: journal.OpRunning, JobID: "job-000006"},
		{Op: journal.OpRetrying, JobID: "job-000006", Attempt: 1, Error: "panic"},
		accepted("job-000007", spec(16)),
		{Op: journal.OpRunning, JobID: "job-000007"},
		{Op: journal.OpDone, JobID: "job-000007", Result: res(-1.5)},
		accepted("job-000008", spec(17)),
		{Op: journal.OpFailed, JobID: "job-000008", Error: "boom"},
		accepted("job-000009", spec(18)),
		{Op: journal.OpRetrying, JobID: "job-000009", Attempt: 2, Error: "stall"},
		{Op: journal.OpInterrupted, JobID: "job-000009", Result: res(-1.25), Checkpoint: "/spool/job-000009.ckpt"},
		{Op: journal.OpDone, JobID: "job-000010", SpecHash: "sha256:compacted", Result: res(-2)},
		{Op: journal.OpRunning, JobID: "job-000011"},

		sweepAccepted("sweep-000001"),
		sweepAccepted("sweep-000002"),
		{Op: journal.OpSweepPointDone, JobID: "sweep-000002", Point: 1, Result: res(-1.0)},
		{Op: journal.OpSweepPointFailed, JobID: "sweep-000002", Point: 2, Error: "diverged"},
		{Op: journal.OpSweepCheckpoint, JobID: "sweep-000002", Point: 3, Checkpoint: filepath.Join(spool, "sweep-000002-p003.ckpt")},
		sweepAccepted("sweep-000003"),
		{Op: journal.OpSweepPointDone, JobID: "sweep-000003", Point: 1, Result: res(-1.1)},
		{Op: journal.OpSweepPointDone, JobID: "sweep-000003", Point: 2, Result: res(-1.2)},
		{Op: journal.OpSweepPointDone, JobID: "sweep-000003", Point: 3, Result: res(-1.3)},
		{Op: journal.OpSweepDone, JobID: "sweep-000003", SpecHash: ss.Hash()},
		sweepAccepted("sweep-000004"),
		{Op: journal.OpSweepPointFailed, JobID: "sweep-000004", Point: 1, Error: "diverged"},
		{Op: journal.OpSweepFailed, JobID: "sweep-000004", Error: "1 of 3 point(s) failed"},
		sweepAccepted("sweep-000005"),
		{Op: journal.OpSweepPointDone, JobID: "sweep-000005", Point: 2, Result: res(-1.4)},
		{Op: journal.OpSweepCancelled, JobID: "sweep-000005", Error: errSweepCancelled.Error()},
		{Op: journal.OpSweepDone, JobID: "sweep-000006", SpecHash: "sw1:compacted"},
		{Op: journal.OpSweepPointDone, JobID: "sweep-000007", Point: 1, Result: res(-1.0)},
	})

	hook := func(ctx context.Context, key string, p runspec.Progress) {
		if key == "job-000001" {
			<-ctx.Done()
		}
	}
	srv, ts := newTestServer(t, Config{MaxConcurrent: 1, SpoolDir: spool, FaultHook: hook})

	jobs := []struct {
		id, status, errText string
		attempt             int
		energy              float64
		checkpoint          string
	}{
		{id: "job-000002", status: "queued"},
		{id: "job-000003", status: "queued"},
		{id: "job-000004", status: "queued", attempt: 1},
		{id: "job-000005", status: "queued"},
		{id: "job-000006", status: "queued", attempt: 1},
		{id: "job-000007", status: "done", energy: -1.5},
		{id: "job-000008", status: "failed", errText: "boom"},
		{id: "job-000009", status: "interrupted", attempt: 2, energy: -1.25, checkpoint: "/spool/job-000009.ckpt"},
		{id: "job-000010", status: "done", energy: -2},
		{id: "job-000011", status: "failed", errText: "no recoverable spec"},
	}
	for _, tc := range jobs {
		t.Run(tc.id, func(t *testing.T) {
			var v pinnedJobView
			if code := getStrict(t, ts, "/v1/jobs/"+tc.id, &v); code != http.StatusOK {
				t.Fatalf("status %d", code)
			}
			if v.Status != tc.status || v.Attempt != tc.attempt || v.CheckpointPath != tc.checkpoint ||
				!strings.Contains(v.Error, tc.errText) || (tc.errText == "" && v.Error != "") {
				t.Errorf("view %+v, want %+v", v, tc)
			}
			if (v.Result != nil) != (tc.energy != 0) || (v.Result != nil && v.Result.Energy != tc.energy) {
				t.Errorf("result %+v, want energy %v", v.Result, tc.energy)
			}
		})
	}

	type pointWant struct {
		status  string
		energy  float64
		errText string
	}
	sweeps := []struct {
		id, status, errText string
		points              []pointWant
	}{
		{id: "sweep-000001", status: "queued",
			points: []pointWant{{status: "queued"}, {status: "queued"}, {status: "queued"}}},
		{id: "sweep-000002", status: "queued",
			points: []pointWant{{status: "done", energy: -1.0}, {status: "failed", errText: "diverged"}, {status: "queued"}}},
		{id: "sweep-000003", status: "done",
			points: []pointWant{{status: "done", energy: -1.1}, {status: "done", energy: -1.2}, {status: "done", energy: -1.3}}},
		{id: "sweep-000004", status: "failed", errText: "1 of 3 point(s) failed",
			points: []pointWant{{status: "failed", errText: "diverged"}, {status: "queued"}, {status: "queued"}}},
		{id: "sweep-000005", status: "cancelled", errText: "cancelled",
			points: []pointWant{{status: "cancelled"}, {status: "done", energy: -1.4}, {status: "cancelled"}}},
		{id: "sweep-000006", status: "done"},
		{id: "sweep-000007", status: "failed", errText: "no recoverable spec"},
	}
	for _, tc := range sweeps {
		t.Run(tc.id, func(t *testing.T) {
			var v SweepView
			if code := getStrict(t, ts, "/v1/sweeps/"+tc.id, &v); code != http.StatusOK {
				t.Fatalf("status %d", code)
			}
			if string(v.Status) != tc.status || !strings.Contains(v.Error, tc.errText) || len(v.PointStates) != len(tc.points) {
				t.Fatalf("view %+v, want %+v", v, tc)
			}
			for i, want := range tc.points {
				got := v.PointStates[i]
				if got.Point != i+1 || string(got.Status) != want.status || got.Energy != want.energy ||
					!strings.Contains(got.Error, want.errText) || (want.errText == "" && got.Error != "") {
					t.Errorf("point %d: %+v, want %+v", i+1, got, want)
				}
			}
		})
	}

	// ID sequences continue past the replayed maxima.
	job, err := srv.Submit(spec(99))
	if err != nil {
		t.Fatal(err)
	}
	if job.ID != "job-000012" {
		t.Errorf("post-replay job id %s, want job-000012", job.ID)
	}
	sw, err := srv.SubmitSweep(ss)
	if err != nil {
		t.Fatal(err)
	}
	if sw.ID != "sweep-000008" {
		t.Errorf("post-replay sweep id %s, want sweep-000008", sw.ID)
	}
}

// TestSweepPointRetryBudgetSurvivesCrash: a sweep point's spent retries
// are journaled, so a crash cannot refill its budget. The first process
// lets the point panic once and blocks its second attempt; the live
// journal copied at that moment is the crash image a second process
// starts from. Counting attempts that reached the fault (the in-flight
// one the crash killed never consumed budget), the point runs at most
// RetryBudget+1 attempts across both processes, and the replayed attempt
// counter starts where the first process left it.
func TestSweepPointRetryBudgetSurvivesCrash(t *testing.T) {
	const budget = 2
	spool, image := t.TempDir(), t.TempDir()
	ss, err := runspec.ParseSweep([]byte(`{"base":{"molecule":{"kind":"h2"}},"axis":{"param":"distance","values":[0.7414]}}`))
	if err != nil {
		t.Fatal(err)
	}

	var first atomic.Int32
	blocked := make(chan struct{})
	hook1 := func(ctx context.Context, key string, p runspec.Progress) {
		if first.Add(1) == 2 {
			close(blocked)
			<-ctx.Done()
			return
		}
		panic("server: injected permanent panic")
	}
	srv1, err := New(Config{MaxConcurrent: 1, SpoolDir: spool, RetryBudget: budget, FaultHook: hook1})
	if err != nil {
		t.Fatal(err)
	}
	sw, err := srv1.SubmitSweep(ss)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-blocked:
	case <-time.After(60 * time.Second):
		t.Fatal("second attempt never started")
	}
	wal, err := os.ReadFile(filepath.Join(spool, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(image, journalFile), wal, 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	var second atomic.Int32
	hook2 := func(ctx context.Context, key string, p runspec.Progress) {
		second.Add(1)
		panic("server: injected permanent panic")
	}
	_, ts := newTestServer(t, Config{MaxConcurrent: 1, SpoolDir: image, RetryBudget: budget, FaultHook: hook2})
	var replayed SweepView
	getStrict(t, ts, "/v1/sweeps/"+sw.ID, &replayed)
	if replayed.PointStates[0].Attempt < 1 {
		t.Errorf("replayed point attempt %d: the first process's retry was lost", replayed.PointStates[0].Attempt)
	}
	final := pollSweepDone(t, ts, sw.ID, 60*time.Second)
	if final.Status != StatusFailed || final.PointStates[0].Status != StatusFailed {
		t.Fatalf("always-panicking point settled %s/%s", final.Status, final.PointStates[0].Status)
	}
	if total := 1 + int(second.Load()); total > budget+1 {
		t.Errorf("point ran %d attempts across the crash, budget allows %d", total, budget+1)
	}
	if got := final.PointStates[0].Attempt; got != budget+1 {
		t.Errorf("final attempt %d, want %d", got, budget+1)
	}
}
