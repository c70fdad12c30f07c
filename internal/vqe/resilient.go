package vqe

// Checkpoint/restart and deadline-aware cancellation for the
// minimization loops. The optimizer state structs in internal/opt carry
// everything the iteration needs, so a resumed run provably walks the
// same trajectory as an uninterrupted one (bit-exact — see the
// equivalence tests). The driver itself is stateless across energy
// evaluations in Direct mode (the simulator is reset from |0…0⟩ every
// prepareAnsatz), which is why optimizer state alone suffices.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"

	"repro/internal/core"
	"repro/internal/opt"
	"repro/internal/resilience"
	"repro/internal/telemetry"
)

// Checkpoint kind tags: a resume path refuses a checkpoint written by a
// different optimizer instead of misinterpreting its payload.
const (
	KindNelderMead = "vqe/nelder-mead"
	KindLBFGS      = "vqe/lbfgs"
	KindAdapt      = "vqe/adapt"
)

// ResilienceOptions configures checkpointing for the *Context
// minimization entry points. The zero value disables persistence.
type ResilienceOptions struct {
	// CheckpointPath is the snapshot file; empty disables checkpointing.
	CheckpointPath string
	// CheckpointEvery is the iteration cadence between snapshot writes
	// (≤1 = every iteration).
	CheckpointEvery int
	// Resume loads CheckpointPath before starting (a missing file is a
	// cold start, not an error).
	Resume bool
}

func (r ResilienceOptions) enabled() bool { return r.CheckpointPath != "" }

// loadResume reads the checkpoint into st when resuming; found reports
// whether usable state was restored.
func (r ResilienceOptions) loadResume(wantKind string, st any) (found bool, err error) {
	if !r.Resume || !r.enabled() {
		return false, nil
	}
	kind, _, err := resilience.LoadCheckpoint(r.CheckpointPath, st)
	if errors.Is(err, os.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	if kind != wantKind {
		return false, fmt.Errorf("vqe: checkpoint %s holds %q, want %q: %w",
			r.CheckpointPath, kind, wantKind, resilience.ErrCheckpointInvalid)
	}
	return true, nil
}

// EnergyContext evaluates ⟨H⟩ under a context: a canceled or expired
// context is honored before the (potentially expensive) evaluation runs,
// and a Backend's failure comes back as the error.
func (d *Driver) EnergyContext(ctx context.Context, params []float64) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if d.opts.Backend != nil {
		return d.backendEnergy(ctx, params)
	}
	return d.Energy(params), nil
}

// objective is the function the optimizers minimize. On a Backend the
// first failure is kept in *failed and every later call returns NaN
// without touching the backend; the loop guard then halts the optimizer
// at the next iteration boundary, before anything is checkpointed.
func (d *Driver) objective(ctx context.Context, failed *error) opt.Objective {
	if d.opts.Backend == nil {
		return d.Energy
	}
	return func(x []float64) float64 {
		if *failed == nil {
			e, err := d.backendEnergy(ctx, x)
			if err == nil {
				return e
			}
			*failed = err
		}
		return math.NaN()
	}
}

// loopGuard builds the per-iteration observer both minimization loops
// share. In order: a backend failure halts the loop; the caller's own
// observer runs; an expired context halts it after a final checkpoint;
// the checkpoint cadence writes a snapshot. A failed write halts the
// loop and is kept in *cpErr.
func loopGuard[S any](ctx context.Context, ro ResilienceOptions, kind string, iterOf func(*S) int,
	prev func(*S) error, failed, cpErr *error) func(*S) error {
	cad := resilience.Cadence{Interval: ro.CheckpointEvery}
	return func(s *S) error {
		if *failed != nil {
			return *failed
		}
		if prev != nil {
			if err := prev(s); err != nil {
				return err
			}
		}
		if err := ctx.Err(); err != nil {
			resilience.NoteDeadlineCancel()
			if ro.enabled() {
				*cpErr = resilience.SaveCheckpoint(ro.CheckpointPath, kind, iterOf(s), s)
			}
			return err
		}
		if ro.enabled() && cad.Due(iterOf(s)) {
			if err := resilience.SaveCheckpoint(ro.CheckpointPath, kind, iterOf(s), s); err != nil {
				*cpErr = err
				return err
			}
		}
		return nil
	}
}

// checkStart rejects a starting point that does not fit the ansatz.
func (d *Driver) checkStart(x0 []float64) error {
	if len(x0) != d.Ansatz.NumParameters() {
		return fmt.Errorf("%w: x0 has %d parameters, the ansatz %d",
			core.ErrDimensionMismatch, len(x0), d.Ansatz.NumParameters())
	}
	return nil
}

// result packages an optimizer outcome; a backend failure replaces it.
func (d *Driver) result(res opt.Result, failed, cpErr error) (Result, error) {
	if failed != nil {
		return Result{}, failed
	}
	return Result{Energy: res.F, Params: res.X, Optimizer: res, Stats: d.Stats(),
		CacheStats: d.CacheStats(), Interrupted: res.Interrupted}, cpErr
}

// MinimizeContext runs Nelder–Mead with checkpoint/restart and
// deadline-aware cancellation. On context expiry the best vertex so far
// is returned with Result.Interrupted set and a final checkpoint is
// written, so a later call with ResilienceOptions.Resume continues the
// exact trajectory.
func (d *Driver) MinimizeContext(ctx context.Context, x0 []float64, o opt.NelderMeadOptions, ro ResilienceOptions) (Result, error) {
	if err := d.checkStart(x0); err != nil {
		return Result{}, err
	}
	st := new(opt.NelderMeadState)
	if found, err := ro.loadResume(KindNelderMead, st); err != nil {
		return Result{}, err
	} else if found {
		o.Resume = st
	}
	var failed, cpErr error
	o.Observer = loopGuard(ctx, ro, KindNelderMead, func(s *opt.NelderMeadState) int { return s.Iter },
		o.Observer, &failed, &cpErr)
	start := telemetry.Now()
	res := opt.NelderMead(d.objective(ctx, &failed), x0, o)
	mPhaseOptimize.Since(start)
	return d.result(res, failed, cpErr)
}

// MinimizeLBFGSContext is the L-BFGS counterpart of MinimizeContext,
// with the same checkpoint and cancellation semantics. The in-process
// engine supplies adjoint gradients, which need an exponential-structure
// ansatz (UCCSD or Adapt); on a Backend the gradient is opt's central
// finite difference of the energy.
func (d *Driver) MinimizeLBFGSContext(ctx context.Context, x0 []float64, o opt.LBFGSOptions, ro ResilienceOptions) (Result, error) {
	if err := d.checkStart(x0); err != nil {
		return Result{}, err
	}
	var grad opt.Gradient
	if d.opts.Backend == nil {
		exp, ok := d.Ansatz.(Exponential)
		if !ok {
			return Result{}, fmt.Errorf("%w: ansatz does not expose exponential structure", core.ErrInvalidArgument)
		}
		grad = func(x, g []float64) {
			gradStart := telemetry.Now()
			d.adjointGradient(exp, x, g)
			mPhaseGradient.Since(gradStart)
		}
	}
	st := new(opt.LBFGSState)
	if found, err := ro.loadResume(KindLBFGS, st); err != nil {
		return Result{}, err
	} else if found {
		o.Resume = st
	}
	var failed, cpErr error
	o.Observer = loopGuard(ctx, ro, KindLBFGS, func(s *opt.LBFGSState) int { return s.Iter },
		o.Observer, &failed, &cpErr)
	start := telemetry.Now()
	res := opt.LBFGS(d.objective(ctx, &failed), grad, x0, o)
	mPhaseOptimize.Since(start)
	return d.result(res, failed, cpErr)
}

// AdaptState is the Adapt-VQE outer-loop checkpoint payload: the pool
// operator indices in growth order (the ansatz is reconstructed by
// replaying Grow), the optimized parameters, and the convergence
// history. ErrorVsRef may be NaN (no reference energy), which JSON
// cannot carry — history entries encode it as a nullable pointer.
type AdaptState struct {
	Selected []int              `json:"selected"`
	Params   []float64          `json:"params"`
	Energy   float64            `json:"energy"`
	Iter     int                `json:"iter"`
	History  []adaptHistoryJSON `json:"history,omitempty"`
}

type adaptHistoryJSON struct {
	Iteration    int      `json:"iteration"`
	Operator     string   `json:"operator"`
	MaxGradient  float64  `json:"max_gradient"`
	Energy       float64  `json:"energy"`
	ErrorVsRef   *float64 `json:"error_vs_ref,omitempty"` // nil ⇔ NaN
	Parameters   int      `json:"parameters"`
	CircuitDepth int      `json:"circuit_depth"`
	GateCount    int      `json:"gate_count"`
}

func historyToJSON(in []AdaptIteration) []adaptHistoryJSON {
	out := make([]adaptHistoryJSON, len(in))
	for i, it := range in {
		out[i] = adaptHistoryJSON{
			Iteration: it.Iteration, Operator: it.Operator,
			MaxGradient: it.MaxGradient, Energy: it.Energy,
			Parameters: it.Parameters, CircuitDepth: it.CircuitDepth,
			GateCount: it.GateCount,
		}
		if !math.IsNaN(it.ErrorVsRef) {
			v := it.ErrorVsRef
			out[i].ErrorVsRef = &v
		}
	}
	return out
}

func historyFromJSON(in []adaptHistoryJSON) []AdaptIteration {
	out := make([]AdaptIteration, len(in))
	for i, it := range in {
		out[i] = AdaptIteration{
			Iteration: it.Iteration, Operator: it.Operator,
			MaxGradient: it.MaxGradient, Energy: it.Energy,
			ErrorVsRef: math.NaN(), Parameters: it.Parameters,
			CircuitDepth: it.CircuitDepth, GateCount: it.GateCount,
		}
		if it.ErrorVsRef != nil {
			out[i].ErrorVsRef = *it.ErrorVsRef
		}
	}
	return out
}
