package runspec

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/opt"
	"repro/internal/pauli"
	"repro/internal/resilience"
	"repro/internal/xacc"
)

// referenceBackendVQE is the accelerator-routed VQE loop written out by
// hand: the spec's optimizer over acc.Expectation(ctx, a.Circuit(x), h)
// from θ = 0, with opt's own defaults (Nelder–Mead 200·dim iterations,
// L-BFGS on central finite differences). Every non-nwq-sv run must walk
// exactly this trajectory.
func referenceBackendVQE(t *testing.T, spec *RunSpec) (opt.Result, int) {
	t.Helper()
	c := *spec
	c.ApplyDefaults()
	m, err := BuildMolecule(c.Molecule)
	if err != nil {
		t.Fatal(err)
	}
	var bc *BuildCache
	h, n, err := bc.observable(c.Molecule, m, c.Encoding, c.Downfold)
	if err != nil {
		t.Fatal(err)
	}
	a, err := buildAnsatz(&c, n, m.NumElectrons)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := xacc.DefaultRegistry.New(c.Backend.Accelerator, c.Backend.AcceleratorOptions())
	if err != nil {
		t.Fatal(err)
	}
	evals := 0
	f := func(x []float64) float64 {
		evals++
		e, err := acc.Expectation(context.Background(), a.Circuit(x), h)
		if err != nil {
			t.Fatalf("reference expectation: %v", err)
		}
		return e
	}
	x0 := make([]float64, a.NumParameters())
	if c.Optimizer.Method == "nelder-mead" {
		return opt.NelderMead(f, x0, opt.NelderMeadOptions{MaxIter: c.Optimizer.MaxIter}), evals
	}
	return opt.LBFGS(f, nil, x0, opt.LBFGSOptions{MaxIter: c.Optimizer.MaxIter}), evals
}

// acceleratorResultKeys is the JSON shape of an accelerator-routed VQE
// result: no ansatz_executions or gates_applied, which only the
// in-process engine counts.
func acceleratorResultKeys(withCheckpoint bool) []string {
	keys := []string{"spec_hash", "algorithm", "molecule", "num_qubits", "num_terms",
		"hartree_fock", "exact", "energy", "error_vs_exact", "params", "converged",
		"interrupted", "energy_evaluations", "wall_ns"}
	if withCheckpoint {
		keys = append(keys, "checkpoint_path")
	}
	sort.Strings(keys)
	return keys
}

// TestAcceleratorVQEPinned pins what every non-nwq-sv backend computes:
// Run must be bit-identical to referenceBackendVQE in energy and
// parameters, count the same energy evaluations, agree on the
// converged/interrupted flags, and serialize no extra result fields.
// Nelder–Mead runs with max_iter 0, so the 200·dim default is pinned
// too.
func TestAcceleratorVQEPinned(t *testing.T) {
	type pinCase struct {
		name string
		spec RunSpec
	}
	var cases []pinCase
	for _, backend := range []string{"nwq-sv-serial", "nwq-cluster", "nwq-dm", "nwq-resilient"} {
		for _, method := range []string{"lbfgs", "nelder-mead"} {
			cases = append(cases, pinCase{backend + "/" + method, RunSpec{
				Optimizer: OptimizerSpec{Method: method},
				Backend:   BackendSpec{Accelerator: backend},
			}})
		}
	}
	// The cluster fault drill of TestJSONRoundTrip, checkpointing into a
	// scratch file: checkpoints must never steer the trajectory. The
	// drill is bounded (MaxFaults) like the cluster's own drills: with an
	// unbounded injector at 10% drops some transfer eventually loses all
	// of its retry attempts and the run fails, which backend-error below
	// covers.
	cases = append(cases, pinCase{"nwq-cluster/fault-drill", RunSpec{
		Backend: BackendSpec{Accelerator: "nwq-cluster", Ranks: 4,
			Fault: &FaultSpec{Seed: 9, DropProb: 0.1, MaxFaults: 30}},
		Resilience: ResilienceSpec{CheckpointPath: filepath.Join(t.TempDir(), "x.ckpt"),
			CheckpointEvery: 5, Walltime: "00:30"},
	}})

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := tc.spec
			res, err := Run(context.Background(), &spec, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			want, wantEvals := referenceBackendVQE(t, &spec)
			if math.Float64bits(res.Energy) != math.Float64bits(want.F) {
				t.Errorf("energy %v, reference %v", res.Energy, want.F)
			}
			if len(res.Params) != len(want.X) {
				t.Fatalf("params %v, reference %v", res.Params, want.X)
			}
			for i := range want.X {
				if math.Float64bits(res.Params[i]) != math.Float64bits(want.X[i]) {
					t.Errorf("param %d: %v, reference %v", i, res.Params[i], want.X[i])
				}
			}
			if res.EnergyEvaluations != wantEvals {
				t.Errorf("energy_evaluations %d, reference %d", res.EnergyEvaluations, wantEvals)
			}
			if res.Converged != want.Converged || res.Interrupted != want.Interrupted {
				t.Errorf("converged/interrupted %v/%v, reference %v/%v",
					res.Converged, res.Interrupted, want.Converged, want.Interrupted)
			}
			raw, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			var fields map[string]json.RawMessage
			if err := json.Unmarshal(raw, &fields); err != nil {
				t.Fatal(err)
			}
			var got []string
			for k := range fields {
				got = append(got, k)
			}
			sort.Strings(got)
			wantKeys := acceleratorResultKeys(spec.Resilience.CheckpointPath != "")
			if strings.Join(got, ",") != strings.Join(wantKeys, ",") {
				t.Errorf("result fields %v, want %v", got, wantKeys)
			}
		})
	}

	t.Run("backend-error", func(t *testing.T) {
		const name = "test-retries-exhausted"
		if err := xacc.DefaultRegistry.Register(name, xacc.Entry{
			Factory: func(xacc.AcceleratorOptions) xacc.Accelerator { return exhaustedAccelerator{} },
		}); err != nil {
			t.Fatal(err)
		}
		spec := &RunSpec{Optimizer: OptimizerSpec{Method: "nelder-mead"}, Backend: BackendSpec{Accelerator: name}}
		res, err := Run(context.Background(), spec, RunOptions{})
		if !errors.Is(err, resilience.ErrRetriesExhausted) {
			t.Fatalf("Run = %+v, %v; want an error matching ErrRetriesExhausted", res, err)
		}
	})
}

// exhaustedAccelerator fails every request the way a cluster whose
// transfer retries ran out does.
type exhaustedAccelerator struct{}

func (exhaustedAccelerator) Name() string        { return "exhausted" }
func (exhaustedAccelerator) NumQubitsLimit() int { return 30 }

func (exhaustedAccelerator) Execute(context.Context, *circuit.Circuit, int) (*xacc.ExecutionResult, error) {
	return nil, fmt.Errorf("exhausted: %w", resilience.ErrRetriesExhausted)
}

func (exhaustedAccelerator) Expectation(context.Context, *circuit.Circuit, *pauli.Op) (float64, error) {
	return 0, fmt.Errorf("exhausted: %w", resilience.ErrRetriesExhausted)
}
