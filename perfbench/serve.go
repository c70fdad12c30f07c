package main

// The serve-mix workload: an in-process daemon configured as vqed runs by
// default (journal on, result cache on, telemetry on, one running job per
// core), driven closed-loop over its /v1 HTTP API by one client per core.
// Clients wait for each job's terminal event on its SSE stream rather than
// polling, so latencies are the daemon's, not a poll interval's.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/load"
	"repro/internal/runspec"
	"repro/internal/server"
	"repro/internal/telemetry"
)

const (
	// bootRepeats is how many daemons a run boots; setup_s is the median
	// boot time.
	bootRepeats = 11

	// tracedOpsPerClient fixes the traced passes' length, so both passes
	// serve identical jobs.
	tracedOpsPerClient = 120
	// opTimeout bounds one request and its wait for a terminal event.
	opTimeout = 60 * time.Second
)

// daemon is one in-process vqed on a private spool directory.
type daemon struct {
	base  string
	stop  func() error
	spool string
}

// bootDaemon starts a daemon and waits for its first ready /readyz.
func bootDaemon(spool string, hc *http.Client) (*daemon, time.Duration, error) {
	t0 := time.Now()
	// Zero fields take server.New's defaults, which match vqed's flag
	// defaults; retries and the stall timeout are vqed's own defaults.
	base, stop, err := load.StartLocal(server.Config{
		MaxConcurrent: runtime.NumCPU(),
		SpoolDir:      spool,
		RetryBudget:   2,
		StallTimeout:  2 * time.Minute,
	})
	if err != nil {
		return nil, 0, err
	}
	d := &daemon{base: base, stop: stop, spool: spool}
	for {
		resp, err := hc.Get(base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0), nil
			}
		}
		if time.Since(t0) > 30*time.Second {
			_ = d.close()
			return nil, 0, fmt.Errorf("daemon not ready after 30s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// close stops the daemon, waits for it, and removes its spool.
func (d *daemon) close() error {
	err := d.stop()
	if rmErr := os.RemoveAll(d.spool); err == nil {
		err = rmErr
	}
	return err
}

// record is one operation as the client saw it.
type record struct {
	op        op
	client    int
	id        string
	cacheHit  bool
	hitEnergy float64
	postStart time.Time
	postEnd   time.Time
	doneAt    time.Time
	terminal  server.Status
	err       error
	// span is the op's root span in a traced pass (0 otherwise).
	span int
}

type client struct {
	base string
	hc   *http.Client
	// rec, when set, receives each operation's client-side spans as the
	// operation ends.
	rec *Recorder
}

// do submits one operation, waits for its terminal event, and records the
// operation's root span and its admission span.
func (c *client) do(o op) record {
	r := c.submit(o)
	if c.rec != nil && r.err == nil {
		name := o.kind
		if r.cacheHit {
			name = "hit"
		}
		r.span = c.rec.Add(r.id, name, 0, r.postStart, r.doneAt)
		if !r.cacheHit {
			c.rec.Add(r.id, name+".admit", r.span, r.postStart, r.postEnd)
		}
	}
	return r
}

func (c *client) submit(o op) record {
	r := record{op: o}
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	body, err := o.body()
	if err != nil {
		r.err = err
		return r
	}
	path := "/v1/jobs"
	if o.kind == opSweep {
		path = "/v1/sweeps"
	}
	r.postStart = time.Now()
	// A job view; a sweep's answer decodes into its id and status.
	var view server.View
	status, err := c.call(ctx, http.MethodPost, path, body, &view)
	r.postEnd = time.Now()
	if err == nil && status != http.StatusOK && status != http.StatusAccepted {
		err = fmt.Errorf("POST %s: HTTP %d", path, status)
	}
	if err != nil {
		r.err = err
		return r
	}
	r.id = view.ID
	if view.Status.Terminal() {
		// Answered from the result cache.
		r.terminal, r.doneAt, r.cacheHit = view.Status, r.postEnd, view.CacheHit
		if view.Result != nil {
			r.hitEnergy = view.Result.Energy
		}
		return r
	}
	r.terminal, r.doneAt, r.err = c.waitTerminal(ctx, path+"/"+view.ID+"/events")
	return r
}

// call makes one request and decodes a JSON response into out.
func (c *client) call(ctx context.Context, method, path string, body []byte, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return resp.StatusCode, fmt.Errorf("%s %s: decoding response: %w", method, path, err)
	}
	return resp.StatusCode, nil
}

// waitTerminal reads an SSE stream until its terminal event and returns
// the event type and the time it arrived.
func (c *client) waitTerminal(ctx context.Context, path string) (server.Status, time.Time, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return "", time.Time{}, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", time.Time{}, err
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadString('\n')
		if typ, ok := strings.CutPrefix(strings.TrimSpace(line), "event: "); ok && server.Status(typ).Terminal() {
			return server.Status(typ), time.Now(), nil
		}
		if err != nil {
			return "", time.Time{}, fmt.Errorf("events %s: stream ended without a terminal event: %w", path, err)
		}
	}
}

// runPass drives one daemon with one client per stream. With perClient >
// 0 every client runs exactly that many operations; otherwise clients
// start operations until the deadline.
func runPass(base string, hc *http.Client, rec *Recorder, streams []*stream, perClient int, deadline time.Time) ([]record, time.Duration) {
	start := time.Now()
	out := make([][]record, len(streams))
	var wg sync.WaitGroup
	for ci, st := range streams {
		wg.Add(1)
		go func(ci int, st *stream) {
			defer wg.Done()
			c := &client{base: base, hc: hc, rec: rec}
			for i := 0; ; i++ {
				if (perClient > 0 && i >= perClient) || (perClient == 0 && time.Now().After(deadline)) {
					return
				}
				r := c.do(st.at(i))
				r.client = ci
				out[ci] = append(out[ci], r)
			}
		}(ci, st)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []record
	for _, rs := range out {
		all = append(all, rs...)
	}
	return all, elapsed
}

// serveRun holds one run's daemons, clients and verification state.
type serveRun struct {
	cfg     config
	hc      *http.Client
	o       *outcome
	replays map[string]*runspec.Result // in-process result per spec hash
	// sweepReplays maps a family hash to its in-process point energies,
	// keyed by point spec hash.
	sweepReplays map[string]map[string]float64
}

func runServe(cfg config) (*outcome, error) {
	telemetry.Enable() // vqed records telemetry by default
	tr := &http.Transport{MaxIdleConnsPerHost: 4 * runtime.NumCPU(), DisableCompression: true}
	defer tr.CloseIdleConnections()
	sr := &serveRun{
		cfg:          cfg,
		hc:           &http.Client{Transport: tr},
		o:            &outcome{metrics: map[string]float64{}},
		replays:      map[string]*runspec.Result{},
		sweepReplays: map[string]map[string]float64{},
	}
	if cfg.trace {
		return sr.traced()
	}
	return sr.untraced()
}

func (sr *serveRun) streams() ([]*stream, error) {
	out := make([]*stream, runtime.NumCPU())
	for i := range out {
		s, err := newStream(sr.cfg.seed, i, len(out))
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// boot starts the run's k-th daemon on a fresh spool.
func (sr *serveRun) boot(k int) (*daemon, time.Duration, error) {
	spool := filepath.Join(sr.cfg.out, fmt.Sprintf("spool-%d-%d", os.Getpid(), k))
	if err := os.RemoveAll(spool); err != nil {
		return nil, 0, err
	}
	return bootDaemon(spool, sr.hc)
}

func (sr *serveRun) untraced() (*outcome, error) {
	o := sr.o
	var boots []float64
	var d *daemon
	for k := 0; k < bootRepeats; k++ {
		var bt time.Duration
		var err error
		if d, bt, err = sr.boot(k); err != nil {
			return nil, err
		}
		boots = append(boots, bt.Seconds())
		if k < bootRepeats-1 {
			if err := d.close(); err != nil {
				return nil, err
			}
		}
	}
	streams, err := sr.streams()
	if err != nil {
		_ = d.close()
		return nil, err
	}
	deadline := time.Now().Add(time.Duration(sr.cfg.seconds) * time.Second)
	resetPeakRSS()
	recs, elapsed := runPass(d.base, sr.hc, nil, streams, 0, deadline)
	o.metrics["peak_rss_mb"] = peakRSSMB()
	views, err := sr.verify(d.base, recs)
	if cerr := d.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	lat := latencies(recs)
	o.metrics["setup_s"] = median(boots)
	o.metrics["jobs_per_s"] = float64(settled(recs)) / elapsed.Seconds()
	o.metrics["job_e2e_p50_ms"] = median(lat.cold)
	var runs, rates []float64
	for _, r := range recs {
		if v := views[r.id].job; v != nil && !r.cacheHit && v.Result != nil && v.Started != nil && v.Finished != nil {
			d := v.Finished.Sub(*v.Started).Seconds()
			runs = append(runs, d)
			rates = append(rates, float64(v.Result.EnergyEvaluations)/d)
		}
	}
	o.metrics["solve_s"] = median(runs)
	o.metrics["evals_per_s"] = median(rates)
	p, tail, _ := tailPercentile(lat.cold)
	fmt.Printf("serve-mix: %d operations in %.2fs: %d cold jobs (e2e p50 %.3f ms, p%g %.3f ms), "+
		"%d cache hits (p50 %.3f ms), %d sweeps (p50 %.3f ms)\n",
		len(recs), elapsed.Seconds(), len(lat.cold), median(lat.cold), p, tail,
		len(lat.hit), median(lat.hit), len(lat.sweep), median(lat.sweep))
	return o, nil
}

// traced serves the same fixed operations three times, each on a fresh
// daemon: without spans, with spans around every lifecycle step, and
// without spans again. The untraced passes on either side are the
// overhead baseline, so warm-up does not count as tracing cost.
func (sr *serveRun) traced() (*outcome, error) {
	o := sr.o
	o.spans = &Recorder{}
	var elapsed [3]time.Duration
	var recs []record
	var views map[string]jobDetail
	var snap telemetry.Snapshot
	for pass := 0; pass < 3; pass++ {
		traced := pass == 1
		d, bt, err := sr.boot(pass)
		if err != nil {
			return nil, err
		}
		if traced {
			t0 := time.Now()
			o.spans.Add("daemon", "setup.daemon_boot", 0, t0.Add(-bt), t0)
		}
		streams, err := sr.streams()
		if err != nil {
			_ = d.close()
			return nil, err
		}
		telemetry.Reset()
		var rec *Recorder
		if traced {
			rec = o.spans
		}
		passRecs, passElapsed := runPass(d.base, sr.hc, rec, streams, tracedOpsPerClient, time.Time{})
		elapsed[pass] = passElapsed
		passViews, err := sr.verify(d.base, passRecs)
		if traced {
			snap = telemetry.Capture()
			recs, views = passRecs, passViews
		}
		if cerr := d.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
	}
	sr.recordSpans(recs, views)
	m := o.metrics
	stats := layerStats(o.spans.Spans())
	for _, step := range []string{"admit", "queue_wait", "run", "notify"} {
		m["server."+step+"_ms"] = median(stats[opCold+"."+step])
	}
	m["setup.daemon_boot_ms"] = median(stats["setup.daemon_boot"])
	lat := latencies(recs)
	if p, v, ok := tailPercentile(lat.cold); ok {
		m["serve.job_e2e_tail_pct"], m["serve.job_e2e_tail_ms"] = p, v
	}
	// How far the four lifecycle parts' medians are from accounting for
	// the cold-job median. Admission and queue wait overlap from the
	// daemon's submitted timestamp to the POST response, so the parts
	// usually add up to a little more than the whole.
	parts := m["server.admit_ms"] + m["server.queue_wait_ms"] + m["server.run_ms"] + m["server.notify_ms"]
	gap := median(lat.cold) - parts
	m["serve.job_unaccounted_ms"] = math.Abs(gap)
	fmt.Printf("serve-mix traced: cold job e2e p50 %.3f ms; admit %.3f + queue %.3f + run %.3f + notify %.3f = %.3f ms (gap %+.3f ms)\n",
		median(lat.cold), m["server.admit_ms"], m["server.queue_wait_ms"], m["server.run_ms"], m["server.notify_ms"],
		parts, gap)
	m["serve.hit_e2e_p50_ms"] = median(lat.hit)
	m["serve.sweep_e2e_p50_ms"] = median(lat.sweep)

	c := snap.Counters
	jobs := float64(c["server.jobs.submitted"] + c["server.sweeps.submitted"])
	if jobs > 0 {
		m["journal.appends_per_job"] = float64(c["journal.appends"]) / jobs
		m["journal.bytes_per_job"] = float64(c["journal.bytes"]) / jobs
	}
	if a := c["journal.appends"]; a > 0 {
		m["journal.syncs_per_append"] = float64(c["journal.syncs"]) / float64(a)
	}
	if s := c["server.jobs.submitted"]; s > 0 {
		m["server.cache_hit_ratio"] = float64(c["server.cache.hits"]) / float64(s)
	}
	m["server.rejected"] = float64(c["server.jobs.rejected"] + c["server.sweeps.rejected"])
	m["server.retried"] = float64(c["server.jobs.retried"])

	var points, warm, evals, done int
	var pointMs []float64
	for _, v := range views {
		if v.sweep == nil {
			continue
		}
		sw := v.sweep
		points += sw.Points
		warm += sw.WarmStarts
		evals += sw.EnergyEvaluations
		done += sw.Done
		if sw.Started != nil && sw.Finished != nil && sw.Points > 0 {
			pointMs = append(pointMs, float64(sw.Finished.Sub(*sw.Started))/1e6/float64(sw.Points))
		}
	}
	if points > 0 {
		m["sweep.warm_start_ratio"] = float64(warm) / float64(points)
	}
	if done > 0 {
		m["sweep.evals_per_point"] = float64(evals) / float64(done)
	}
	m["sweep.point_ms"] = median(pointMs)
	m["trace.solve_s"] = elapsed[1].Seconds()
	base := (elapsed[0].Seconds() + elapsed[2].Seconds()) / 2
	m["trace.overhead_pct"] = (elapsed[1].Seconds() - base) / base * 100
	return o, nil
}

// recordSpans adds the daemon's side of each traced operation beneath the
// root span the client recorded (POST to terminal event, with the POST
// round trip as admission): queue wait, run, and notification (settle to
// terminal event), from the lifecycle timestamps of the job or sweep view.
func (sr *serveRun) recordSpans(recs []record, views map[string]jobDetail) {
	rec := sr.o.spans
	for _, r := range recs {
		v := views[r.id]
		var submitted time.Time
		var started, finished *time.Time
		switch {
		case r.span == 0 || r.cacheHit:
			continue
		case v.job != nil:
			submitted, started, finished = v.job.Submitted, v.job.Started, v.job.Finished
		case v.sweep != nil:
			submitted, started, finished = v.sweep.Submitted, v.sweep.Started, v.sweep.Finished
		}
		if started == nil || finished == nil {
			continue
		}
		name := r.op.kind
		rec.Add(r.id, name+".queue_wait", r.span, submitted, *started)
		rec.Add(r.id, name+".run", r.span, *started, *finished)
		rec.Add(r.id, name+".notify", r.span, *finished, r.doneAt)
	}
}

// jobDetail is the daemon's view of one submission.
type jobDetail struct {
	job   *server.View
	sweep *server.SweepView
}

type latencySets struct{ cold, hit, sweep []float64 }

// latencies splits client-side end-to-end times (ms) by kind: cold jobs
// from POST to terminal event, cache hits as the POST round trip, and
// sweep families from POST to terminal event. A repeat that missed the
// cache counts in none of them; verify counts it as a failed check.
func latencies(recs []record) latencySets {
	var l latencySets
	for _, r := range recs {
		if r.err != nil || r.terminal != server.StatusDone {
			continue
		}
		ms := float64(r.doneAt.Sub(r.postStart)) / 1e6
		switch {
		case r.op.kind == opSweep:
			l.sweep = append(l.sweep, ms)
		case r.cacheHit:
			l.hit = append(l.hit, ms)
		case r.op.kind == opCold:
			l.cold = append(l.cold, ms)
		}
	}
	return l
}

func settled(recs []record) int {
	n := 0
	for _, r := range recs {
		if r.err == nil && r.terminal.Terminal() {
			n++
		}
	}
	return n
}

// verify checks a pass: every submission settled done; every repeat was
// answered from the result cache; the daemon lists
// exactly the ids handed out, once each; every job's energy, cache hits
// included, is bit-equal to an in-process runspec.Run of its spec (sweeps:
// runspec.RunSweep). It returns the daemon's detailed view of each
// submission.
func (sr *serveRun) verify(base string, recs []record) (map[string]jobDetail, error) {
	o := sr.o
	c := &client{base: base, hc: sr.hc}
	ctx, cancel := context.WithTimeout(context.Background(), 2*opTimeout)
	defer cancel()

	wantJobs, wantSweeps := map[string]int{}, map[string]int{}
	for _, r := range recs {
		o.check(r.err == nil && r.terminal == server.StatusDone,
			"%s %s (%s): terminal %q, err %v", r.op.kind, r.id, r.op.class, r.terminal, r.err)
		if r.op.kind == opRepeat && r.err == nil {
			o.check(r.cacheHit, "repeat %s (%s) of its client's op %d missed the result cache",
				r.id, r.op.class, r.op.target)
		}
		if r.id == "" {
			continue
		}
		if r.op.kind == opSweep {
			wantSweeps[r.id]++
		} else {
			wantJobs[r.id]++
		}
	}
	var list struct {
		Jobs []server.View `json:"jobs"`
	}
	if _, err := c.call(ctx, http.MethodGet, "/v1/jobs", nil, &list); err != nil {
		return nil, err
	}
	var slist struct {
		Sweeps []server.SweepView `json:"sweeps"`
	}
	if _, err := c.call(ctx, http.MethodGet, "/v1/sweeps", nil, &slist); err != nil {
		return nil, err
	}
	listed := map[string]int{}
	for _, v := range list.Jobs {
		listed[v.ID]++
	}
	sweepListed := map[string]int{}
	for _, v := range slist.Sweeps {
		sweepListed[v.ID]++
	}
	o.check(sameIDs(wantJobs, listed), "job ids lost or duplicated: %d handed out, %d listed",
		len(wantJobs), len(list.Jobs))
	o.check(sameIDs(wantSweeps, sweepListed), "sweep ids lost or duplicated: %d handed out, %d listed",
		len(wantSweeps), len(slist.Sweeps))

	sr.replayAll(recs)
	views := map[string]jobDetail{}
	for _, r := range recs {
		if r.err != nil || r.id == "" {
			continue
		}
		if r.op.kind == opSweep {
			var v server.SweepView
			if _, err := c.call(ctx, http.MethodGet, "/v1/sweeps/"+r.id, nil, &v); err != nil {
				return nil, err
			}
			views[r.id] = jobDetail{sweep: &v}
			if err := sr.checkSweep(r, &v); err != nil {
				return nil, err
			}
			continue
		}
		var v server.View
		if _, err := c.call(ctx, http.MethodGet, "/v1/jobs/"+r.id, nil, &v); err != nil {
			return nil, err
		}
		views[r.id] = jobDetail{job: &v}
		want, ok := sr.replays[r.op.spec.Hash()]
		if !ok {
			o.check(false, "in-process run of %s %s failed", r.op.class, r.id)
			continue
		}
		got := r.hitEnergy
		if !r.cacheHit {
			if v.Result == nil {
				continue // already counted: the job did not settle done
			}
			got = v.Result.Energy
		}
		o.check(math.Float64bits(got) == math.Float64bits(want.Energy),
			"job %s (%s, cache hit %v): daemon energy %v != in-process %v", r.id, r.op.class, r.cacheHit, got, want.Energy)
	}
	return views, nil
}

func sameIDs(want, got map[string]int) bool {
	if len(want) != len(got) {
		return false
	}
	for id, n := range want {
		if n != 1 || got[id] != 1 {
			return false
		}
	}
	return true
}

// replayAll runs every distinct cold spec and sweep family of recs not yet
// replayed in process, one per core at a time.
func (sr *serveRun) replayAll(recs []record) {
	type task struct {
		spec  *runspec.RunSpec
		sweep *runspec.SweepSpec
	}
	var tasks []task
	seen := map[string]bool{}
	for _, r := range recs {
		switch {
		case r.op.kind == opSweep:
			if h := r.op.sweep.Hash(); !seen[h] && sr.sweepReplays[h] == nil {
				seen[h] = true
				tasks = append(tasks, task{sweep: r.op.sweep})
			}
		case r.op.kind == opCold:
			if h := r.op.spec.Hash(); !seen[h] && sr.replays[h] == nil {
				seen[h] = true
				tasks = append(tasks, task{spec: r.op.spec})
			}
		}
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	next := make(chan task)
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range next {
				if t.sweep != nil {
					energies := map[string]float64{}
					local, err := runspec.RunSweep(context.Background(), t.sweep, runspec.SweepRunOptions{})
					if err == nil {
						for _, p := range local.Points {
							if p.Result != nil {
								energies[p.SpecHash] = p.Result.Energy
							}
						}
					}
					mu.Lock()
					sr.sweepReplays[t.sweep.Hash()] = energies
					mu.Unlock()
					continue
				}
				res, err := runspec.Run(context.Background(), t.spec, runspec.RunOptions{})
				mu.Lock()
				if err == nil {
					sr.replays[t.spec.Hash()] = res
				}
				mu.Unlock()
			}
		}()
	}
	for _, t := range tasks {
		next <- t
	}
	close(next)
	wg.Wait()
}

// checkSweep compares a served family's points with an in-process
// runspec.RunSweep of the same family.
func (sr *serveRun) checkSweep(r record, v *server.SweepView) error {
	energies := sr.sweepReplays[r.op.sweep.Hash()]
	if len(v.PointStates) == 0 {
		return errors.New("sweep view has no point states")
	}
	for _, p := range v.PointStates {
		if p.CacheHit {
			continue
		}
		e, ok := energies[p.SpecHash]
		sr.o.check(ok && p.Status == server.StatusDone && math.Float64bits(e) == math.Float64bits(p.Energy),
			"sweep %s point %d: daemon %v (%s) != in-process %v", r.id, p.Point, p.Energy, p.Status, e)
	}
	return nil
}
