package server

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/resilience"
	"repro/internal/runspec"
)

// TestBackendRulesRejectedAtAdmission: a spec that only nwq-sv can run —
// a rotated or sampled mode, or the adapt/qpe algorithms, on another
// backend — is refused by POST with the 400 invalid_argument envelope
// instead of failing (or silently running elsewhere) on a worker.
func TestBackendRulesRejectedAtAdmission(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct{ name, path, body string }{
		{"rotated on cluster", "/v1/jobs", `{"mode":"rotated","backend":{"accelerator":"nwq-cluster"}}`},
		{"sampled on dm", "/v1/jobs", `{"mode":"sampled","backend":{"accelerator":"nwq-dm"}}`},
		{"adapt on cluster", "/v1/jobs", `{"algorithm":"adapt","backend":{"accelerator":"nwq-cluster"}}`},
		{"qpe on resilient", "/v1/jobs", `{"algorithm":"qpe","backend":{"accelerator":"nwq-resilient"}}`},
		{"adapt sweep on serial", "/v1/sweeps",
			`{"base":{"algorithm":"adapt","backend":{"accelerator":"nwq-sv-serial"}},"axis":{"param":"distance","values":[0.7]}}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
			}
			var env struct {
				Error struct {
					Code    string `json:"code"`
					Message string `json:"message"`
				} `json:"error"`
			}
			if err := json.Unmarshal(body, &env); err != nil {
				t.Fatalf("body is not the error envelope: %v\n%s", err, body)
			}
			if env.Error.Code != "invalid_argument" || !strings.Contains(env.Error.Message, "runs only") &&
				!strings.Contains(env.Error.Message, "supports only") {
				t.Errorf("envelope %+v, want invalid_argument naming the backend rule", env.Error)
			}
		})
	}
}

// TestClusterJobResumesAcrossRestart: an nwq-cluster job drained by
// Shutdown leaves a loadable vqe/* checkpoint in the spool, resumes from
// it on a second server over the same spool, and finishes bit-equal to
// an uninterrupted run of the same spec.
func TestClusterJobResumesAcrossRestart(t *testing.T) {
	spec := `{"backend": {"accelerator": "nwq-cluster"}, "optimizer": {"method": "nelder-mead", "max_iter": 300}, "resilience": {"checkpoint_every": 1}}`

	_, controlTS := newTestServer(t, Config{MaxConcurrent: 1})
	control := submitSpec(t, controlTS, spec)
	controlDone := pollDone(t, controlTS, control.ID, 60*time.Second)
	if controlDone.Status != StatusDone {
		t.Fatalf("control job settled as %s (err=%q)", controlDone.Status, controlDone.Error)
	}

	// H2 on the cluster converges in well under a second; pace each
	// optimizer iteration so the drain lands mid-run. The hook never
	// touches the numerics.
	pace := func(_ context.Context, _ string, p runspec.Progress) {
		if p.Phase == runspec.AlgorithmVQE {
			time.Sleep(5 * time.Millisecond)
		}
	}
	spool := t.TempDir()
	srv, err := New(Config{MaxConcurrent: 1, SpoolDir: spool, FaultHook: pace})
	if err != nil {
		t.Fatal(err)
	}
	job, err := srv.Submit(runspecMustParse(t, spec))
	if err != nil {
		t.Fatal(err)
	}
	waitProgress(t, job, 5)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if st, _, _ := job.snapshot(); st != StatusInterrupted {
		t.Fatalf("job at shutdown = %s, want interrupted", st)
	}
	var payload json.RawMessage
	kind, iter, err := resilience.LoadCheckpoint(filepath.Join(spool, job.ID+".ckpt"), &payload)
	if err != nil {
		t.Fatalf("cluster job left no loadable checkpoint: %v", err)
	}
	if !strings.HasPrefix(kind, "vqe/") || iter < 1 {
		t.Errorf("checkpoint kind = %q, iteration = %d", kind, iter)
	}

	srv2, err := New(Config{MaxConcurrent: 1, SpoolDir: spool})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	t.Cleanup(func() {
		ts2.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv2.Shutdown(ctx)
	})
	resumed := pollDone(t, ts2, job.ID, 120*time.Second)
	if resumed.Status != StatusDone || resumed.Result == nil {
		t.Fatalf("resumed job settled as %s (err=%q)", resumed.Status, resumed.Error)
	}
	want := math.Float64bits(controlDone.Result.Energy)
	if got := math.Float64bits(resumed.Result.Energy); got != want {
		t.Errorf("resumed energy %v (bits %x) != control %v (bits %x)",
			resumed.Result.Energy, got, controlDone.Result.Energy, want)
	}
}
