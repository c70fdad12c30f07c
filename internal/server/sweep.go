package server

// Sweep families: a SweepSpec submitted as one unit. Expansion turns it
// into one task per point, each carrying an ordinary rs1 point spec, and
// from there a sweep runs the same lifecycle as a job: one worker slot
// walks the points in ascending axis order so every point warm-starts
// from its nearest finished neighbor and all points share one
// Hamiltonian build cache. Each point settles individually and its
// result flows into the spec-hash cache, so a later job submission of the
// same point answers without re-simulation, and a cached point found at
// admission is settled without queueing. What is sweep-specific is the
// admission-time expansion and cap, and client cancellation.

import (
	"errors"
	"fmt"
	"net/http"

	"repro/internal/runspec"
)

// errSweepTooLarge marks a family exceeding the daemon's point cap; the
// HTTP layer maps it to 400 invalid_argument.
var errSweepTooLarge = errors.New("server: sweep too large")

// SubmitSweep validates, expands, journals, and enqueues a family,
// returning the sweep once its accepted record is durable. Points whose
// rs1 hash already sits in the result cache are settled at admission; a
// family whose every point is cached settles terminally without ever
// occupying a worker.
func (s *Server) SubmitSweep(ss *runspec.SweepSpec) (*Sweep, error) {
	points, err := ss.Points()
	if err != nil {
		return nil, err
	}
	if len(points) > s.cfg.MaxSweepPoints {
		return nil, fmt.Errorf("%w: sweep expands to %d points (server cap %d)",
			errSweepTooLarge, len(points), s.cfg.MaxSweepPoints)
	}
	return s.admit(newSweep("", ss, points))
}

// CancelSweep requests family cancellation: a queued family settles
// immediately, a running one is cancelled at the next point boundary
// (the in-flight point's context is cancelled with errSweepCancelled).
// Cancelling a terminal family is an idempotent no-op.
func (s *Server) CancelSweep(id string) *Sweep {
	s.mu.Lock()
	f := s.families[id]
	s.mu.Unlock()
	if f == nil || f.solo() {
		return nil
	}
	f.mu.Lock()
	if f.status.Terminal() {
		f.mu.Unlock()
		return f
	}
	f.cancelled = true
	queued := f.status == StatusQueued
	cancel := f.cancelCause
	f.mu.Unlock()
	if cancel != nil {
		cancel(errSweepCancelled)
	}
	if queued {
		// Not yet picked up: settle now; the worker's entry guard skips
		// the stale queue item.
		s.settleFamily(f)
	}
	return f
}

func (s *Server) handleSweepSubmit(w http.ResponseWriter, r *http.Request) {
	body, ok := readDoc(w, r, "sweep")
	if !ok {
		return
	}
	ss, err := runspec.ParseSweep(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	f, err := s.SubmitSweep(ss)
	s.answerSubmit(w, f, err, &ss.Base)
}

func (s *Server) handleSweepCancel(w http.ResponseWriter, r *http.Request) {
	if f := s.lookup(w, r, "sweep"); f != nil {
		s.CancelSweep(f.ID)
		writeJSON(w, http.StatusOK, f.view(true))
	}
}
