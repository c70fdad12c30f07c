package server

import (
	"context"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/runspec"
)

// TestCompactionKeepsAcknowledgedJobs races Submit against forced
// journal compactions, then replays the spool on a second server. Every
// acknowledged job must come back settled exactly as it was acknowledged
// (a compaction must not drop an accepted or done record appended while
// it ran), and the next ID issued must be above all of them (a dropped
// accepted record would restart the sequence below it).
func TestCompactionKeepsAcknowledgedJobs(t *testing.T) {
	const spec = `{"optimizer": {"method": "nelder-mead", "max_iter": 1}}`
	parse := func() (*runspec.RunSpec, error) { return runspec.Parse([]byte(spec)) }
	spool := t.TempDir()
	srv, err := New(Config{MaxConcurrent: 1, QueueDepth: 1024, SpoolDir: spool})
	if err != nil {
		t.Fatal(err)
	}
	// Seed the result cache: every later submission settles at admission,
	// appending an accepted and a done record before Submit returns.
	first, err := srv.Submit(runspecMustParse(t, spec))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for st, _, _ := first.snapshot(); st != StatusDone; st, _, _ = first.snapshot() {
		if st.Terminal() || time.Now().After(deadline) {
			t.Fatalf("seed job settled as %s", st)
		}
		time.Sleep(5 * time.Millisecond)
	}

	stop := make(chan struct{})
	compactor := make(chan struct{})
	go func() {
		defer close(compactor)
		for {
			select {
			case <-stop:
				return
			default:
				srv.compactIfNeeded(true)
			}
		}
	}()
	const submitters, perSubmitter = 4, 25
	acked := make(chan string, submitters*perSubmitter)
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				s, err := parse()
				if err == nil {
					var job *Job
					if job, err = srv.Submit(s); err == nil {
						acked <- job.ID
						continue
					}
				}
				t.Errorf("submit: %v", err)
				return
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-compactor
	close(acked)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	srv2, err := New(Config{MaxConcurrent: 1, SpoolDir: spool})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv2.Shutdown(ctx)
	})
	maxSeq := jobSeq(t, first.ID)
	for id := range acked {
		srv2.mu.Lock()
		f := srv2.families[id]
		srv2.mu.Unlock()
		if f == nil {
			t.Errorf("acknowledged %s lost across compaction and replay", id)
			continue
		}
		if st, _, _ := f.snapshot(); st != StatusDone {
			t.Errorf("%s replayed as %s, acknowledged done", id, st)
		}
		if n := jobSeq(t, id); n > maxSeq {
			maxSeq = n
		}
	}
	next, err := srv2.Submit(runspecMustParse(t, spec))
	if err != nil {
		t.Fatal(err)
	}
	if n := jobSeq(t, next.ID); n <= maxSeq {
		t.Errorf("next ID %s reuses the acknowledged range (max %d)", next.ID, maxSeq)
	}
}

// jobSeq parses the sequence number out of a "job-NNNNNN" ID.
func jobSeq(t *testing.T, id string) int {
	t.Helper()
	n, err := strconv.Atoi(strings.TrimPrefix(id, "job-"))
	if err != nil {
		t.Fatalf("unexpected job ID %q", id)
	}
	return n
}
