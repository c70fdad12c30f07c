package main

// The engine workloads: one spec solved repeatedly through runspec.Run,
// with set-up (molecule, observable, FCI reference, expectation plan)
// measured on its own: runspec.Run's build into a fresh BuildCache, and
// pauli.NewPlan.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"time"

	"repro/internal/ansatz"
	"repro/internal/chem"
	"repro/internal/core"
	"repro/internal/pauli"
	"repro/internal/runspec"
	"repro/internal/state"
	"repro/internal/telemetry"
	"repro/internal/vqe"
)

const (
	// setupRepeats is how many times a run builds the set-up; setup_s is
	// the median.
	setupRepeats = 7
	// minSolves is the fewest solves an untraced run makes: enough for a
	// median that one slow solve cannot move, and for the repeatability
	// check to compare.
	minSolves = 3
)

// engineCase is one engine workload instantiated for a seed.
type engineCase struct {
	spec *runspec.RunSpec
	// note is printed with the result (how the seed was used).
	note string
	// initial returns the starting θ for the workload's ansatz, or nil
	// for the engine's default start.
	initial func(a ansatz.Ansatz) []float64
	// check verifies one solve beyond repeatability.
	check func(o *outcome, b *built, res *runspec.Result)
}

func mustParse(doc string) *runspec.RunSpec {
	s, err := runspec.Parse([]byte(doc))
	if err != nil {
		panic(fmt.Sprintf("perfbench: built-in spec %s: %v", doc, err))
	}
	return s
}

// waterVQE solves the downfolded water model with UCCSD and L-BFGS in
// direct mode. Ten L-BFGS iterations take the energy from 164 mHa above
// FCI (Hartree-Fock) to about 0.3 mHa, well inside chemical accuracy; a
// default-tolerance solve spends another ~25 evaluations in the tail and
// takes 20-25 s on a 2-core machine, too long to repeat within a run. The
// seed perturbs the starting θ.
func waterVQE(seed int64) engineCase {
	return engineCase{
		spec: mustParse(`{"molecule":{"kind":"water"},"optimizer":{"method":"lbfgs","max_iter":10}}`),
		note: "seed perturbs the starting θ (σ = 0.003 rad)",
		initial: func(a ansatz.Ansatz) []float64 {
			r := rand.New(rand.NewSource(seed))
			x := make([]float64, a.NumParameters())
			for i := range x {
				x[i] = 0.003 * r.NormFloat64()
			}
			return x
		},
		check: func(o *outcome, b *built, res *runspec.Result) {
			o.check(res.ErrorVsExact < core.ChemicalAccuracy,
				"water-vqe: |E - E(FCI)| = %.3g Ha, above chemical accuracy", res.ErrorVsExact)
		},
	}
}

// waterAdapt runs Adapt-VQE on the same model (paper Fig 5). Adapt starts
// from the Hartree-Fock reference, so the seed changes nothing.
func waterAdapt(int64) engineCase {
	return engineCase{
		spec: mustParse(`{"molecule":{"kind":"water"},"algorithm":"adapt"}`),
		note: "seed ignored: Adapt-VQE starts from the Hartree-Fock reference",
		check: func(o *outcome, b *built, res *runspec.Result) {
			o.check(res.ErrorVsExact < 1e-3 && len(res.History) <= 16,
				"water-adapt: |E - E(FCI)| = %.3g Ha after %d iterations, want < 1 mHa within 16",
				res.ErrorVsExact, len(res.History))
		},
	}
}

// hea14 is the expectation-bound workload: a 14-qubit synthetic
// Hamiltonian, a 1-layer hardware-efficient ansatz and a fixed
// Nelder-Mead budget, so every evaluation is one shallow preparation and
// one batched expectation, with no gradient. The seed picks the synthetic
// integrals and the starting θ.
func hea14(seed int64) engineCase {
	molSeed := uint64(seed)&0xffffffff + 1
	spec := mustParse(fmt.Sprintf(`{"molecule":{"kind":"synthetic","orbitals":7,"seed":%d},`+
		`"ansatz":{"kind":"hea","layers":1},"optimizer":{"method":"nelder-mead","max_iter":40}}`, molSeed))
	return engineCase{
		spec: spec,
		note: fmt.Sprintf("seed picks synthetic integral seed %d and the starting θ", molSeed),
		initial: func(a ansatz.Ansatz) []float64 {
			r := rand.New(rand.NewSource(seed))
			x := make([]float64, a.NumParameters())
			for i := range x {
				x[i] = 0.2 * (r.Float64() - 0.5)
			}
			return x
		},
		check: func(o *outcome, b *built, res *runspec.Result) {
			checkBatchedExpectation(o, b, rand.New(rand.NewSource(seed)))
			a, err := workloadAnsatz(b, spec, nil)
			if err != nil {
				o.check(false, "hea14-expect: ansatz: %v", err)
				return
			}
			drv, err := vqe.New(b.h, a, vqe.Options{Mode: vqe.Direct})
			if err != nil {
				o.check(false, "hea14-expect: driver: %v", err)
				return
			}
			e := drv.Energy(res.Params)
			o.check(e == res.Energy, "hea14-expect: reported energy %v != Driver.Energy(params) %v", res.Energy, e)
		},
	}
}

// checkBatchedExpectation compares the batched plan with the per-term
// evaluator on seeded random states.
func checkBatchedExpectation(o *outcome, b *built, r *rand.Rand) {
	n := b.m.NumSpinOrbitals()
	for k := 0; k < 3; k++ {
		amps := make([]complex128, 1<<n)
		norm := 0.0
		for i := range amps {
			amps[i] = complex(r.NormFloat64(), r.NormFloat64())
			norm += real(amps[i] * cmplx.Conj(amps[i]))
		}
		for i := range amps {
			amps[i] /= complex(math.Sqrt(norm), 0)
		}
		s, err := state.FromAmplitudes(amps, state.Options{})
		if err != nil {
			o.check(false, "random state: %v", err)
			return
		}
		batched := b.plan.Evaluate(s, pauli.ExpectationOptions{})
		naive := pauli.ExpectationNaive(s, b.h, pauli.ExpectationOptions{})
		o.check(math.Abs(batched-naive) <= 1e-10,
			"batched expectation %v differs from per-term %v on random state %d", batched, naive, k)
	}
}

// built is one set-up: everything a solve needs before the optimizer.
type built struct {
	m    *chem.MolecularData
	h    *pauli.Op
	fci  float64
	plan *pauli.Plan
}

// buildSetup runs the set-up constructors once, each inside a span: the
// benchmark's own copy of what runspec.Run builds before the optimizer,
// for the checks and for the per-layer set-up spans of a traced run. The
// workloads use no downfolding, so the observable is the spec's encoding
// of the molecule.
func buildSetup(spec *runspec.RunSpec, rec *Recorder, trace string) (*built, error) {
	c := *spec
	c.ApplyDefaults()
	b := &built{}
	var err error
	step := func(name string, f func()) {
		if err == nil {
			rec.Time(trace, name, f)
		}
	}
	step("setup.molecule", func() { b.m, err = runspec.BuildMolecule(c.Molecule) })
	step("setup.observable", func() { b.h, err = runspec.BuildObservable(b.m, c.Encoding) })
	step("setup.fci", func() {
		var fci *chem.FCIResult
		fci, err = chem.FCIofOp(chem.FermionicHamiltonian(b.m), b.m.NumSpinOrbitals(), b.m.NumElectrons)
		if err == nil {
			b.fci = fci.Energy
		}
	})
	step("setup.plan", func() { b.plan = pauli.NewPlan(b.h) })
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	return b, nil
}

// fillCache loads the spec's molecule, observable and FCI reference into
// bc through the program's own set-up path, so the timed solves that
// share it exclude set-up. It runs the spec as Adapt-VQE under an
// already-cancelled context: runspec.Run builds everything the cache
// holds and then stops before the first iteration.
func fillCache(bc *runspec.BuildCache, spec *runspec.RunSpec) error {
	probe := *spec
	probe.Algorithm = runspec.AlgorithmAdapt
	probe.Ansatz = runspec.AnsatzSpec{}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := runspec.Run(ctx, &probe, runspec.RunOptions{Shared: bc})
	if err != nil && !errors.Is(err, context.Canceled) {
		return fmt.Errorf("filling the build cache: %w", err)
	}
	return nil
}

// timedSetup is one set-up as setup_s counts it: runspec's own build of
// molecule, observable and FCI reference into a fresh BuildCache, and the
// expectation plan for the observable.
func timedSetup(spec *runspec.RunSpec, h *pauli.Op) (*runspec.BuildCache, time.Duration, error) {
	start := time.Now()
	bc := runspec.NewBuildCache()
	if err := fillCache(bc, spec); err != nil {
		return nil, 0, err
	}
	pauli.NewPlan(h)
	return bc, time.Since(start), nil
}

// workloadAnsatz rebuilds the ansatz a solve ran: UCCSD or HEA from the
// spec, or for Adapt-VQE the grown operator sequence in history.
func workloadAnsatz(b *built, spec *runspec.RunSpec, history []runspec.AdaptStep) (ansatz.Ansatz, error) {
	n, ne := b.m.NumSpinOrbitals(), b.m.NumElectrons
	if spec.Algorithm == runspec.AlgorithmAdapt {
		pool, err := ansatz.NewPool(n, ne)
		if err != nil {
			return nil, err
		}
		a := ansatz.NewAdaptAnsatz(n, ne)
		for _, st := range history {
			found := false
			for _, op := range pool.Ops {
				if op.Label == st.Operator {
					a.Grow(op)
					found = true
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("adapt operator %q not in pool", st.Operator)
			}
		}
		return a, nil
	}
	if spec.Ansatz.Kind == "hea" {
		return ansatz.NewHardwareEfficient(n, spec.Ansatz.Layers, 0)
	}
	return ansatz.NewUCCSD(n, ne)
}

func engineRunner(mk func(seed int64) engineCase) func(cfg config) (*outcome, error) {
	return func(cfg config) (*outcome, error) {
		c := mk(cfg.seed)
		fmt.Printf("note %s: %s\n", cfg.workload, c.note)
		if cfg.trace {
			return runEngineTraced(cfg, c)
		}
		return runEngine(cfg, c)
	}
}

// startParams resolves the workload's starting θ for a built set-up.
func startParams(c engineCase, b *built) ([]float64, error) {
	if c.initial == nil {
		return nil, nil
	}
	a, err := workloadAnsatz(b, c.spec, nil)
	if err != nil {
		return nil, err
	}
	return c.initial(a), nil
}

// runEngine is the untraced run: set-up several times, then solves until
// the time budget is spent.
func runEngine(cfg config, c engineCase) (*outcome, error) {
	o := &outcome{metrics: map[string]float64{}}
	b, err := buildSetup(c.spec, nil, "")
	if err != nil {
		return nil, err
	}
	var setups []float64
	var bc *runspec.BuildCache
	for i := 0; i < setupRepeats; i++ {
		var d time.Duration
		if bc, d, err = timedSetup(c.spec, b.h); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	x0, err := startParams(c, b)
	if err != nil {
		return nil, err
	}

	budget := time.Duration(cfg.seconds) * time.Second
	resetPeakRSS()
	start := time.Now()
	var results []*runspec.Result
	var walls, rates []float64
	for {
		t0 := time.Now()
		res, err := runspec.Run(context.Background(), c.spec, runspec.RunOptions{Shared: bc, InitialParams: x0})
		d := time.Since(t0)
		o.check(err == nil && !res.Interrupted, "solve %d: err=%v", len(walls), err)
		if err != nil {
			break
		}
		results = append(results, res)
		walls = append(walls, d.Seconds())
		rates = append(rates, float64(res.EnergyEvaluations)/d.Seconds())
		if len(walls) >= minSolves && time.Since(start)+d > budget {
			break
		}
	}
	measured := time.Since(start).Seconds()
	o.metrics["peak_rss_mb"] = peakRSSMB()
	if len(results) == 0 {
		return o, nil
	}
	checkRepeats(o, results)
	c.check(o, b, results[0])

	o.metrics["setup_s"] = median(setups)
	o.metrics["solve_s"] = median(walls)
	o.metrics["evals_per_s"] = median(rates)
	o.metrics["jobs_per_s"] = float64(len(walls)) / measured
	o.metrics["job_e2e_p50_ms"] = median(walls) * 1e3
	fmt.Printf("solves %d (wall s %.3f), energy evaluations per solve %d, gates per solve %d\n",
		len(results), walls, results[0].EnergyEvaluations, results[0].GatesApplied)
	return o, nil
}

// checkRepeats verifies that solves of one spec agree bit for bit, in
// energy and in their exact work counts.
func checkRepeats(o *outcome, rs []*runspec.Result) {
	for i, r := range rs[1:] {
		o.check(math.Float64bits(r.Energy) == math.Float64bits(rs[0].Energy) &&
			r.EnergyEvaluations == rs[0].EnergyEvaluations && r.GatesApplied == rs[0].GatesApplied,
			"repeat %d of one spec differs: E %v vs %v, evals %d vs %d, gates %d vs %d", i+1,
			r.Energy, rs[0].Energy, r.EnergyEvaluations, rs[0].EnergyEvaluations, r.GatesApplied, rs[0].GatesApplied)
	}
}

// runEngineTraced makes one untraced and one traced solve, then probes
// each layer's public entry point on the solved state.
func runEngineTraced(cfg config, c engineCase) (*outcome, error) {
	o := &outcome{metrics: map[string]float64{}, spans: &Recorder{}}
	rec := o.spans
	trace := cfg.workload
	b, err := buildSetup(c.spec, rec, trace)
	if err != nil {
		return nil, err
	}
	bc := runspec.NewBuildCache()
	if err := fillCache(bc, c.spec); err != nil {
		return nil, err
	}
	x0, err := startParams(c, b)
	if err != nil {
		return nil, err
	}
	solve := func(onProgress func(runspec.Progress)) (*runspec.Result, time.Duration, error) {
		t0 := time.Now()
		res, err := runspec.Run(context.Background(), c.spec,
			runspec.RunOptions{Shared: bc, InitialParams: x0, OnProgress: onProgress})
		return res, time.Since(t0), err
	}
	base, baseWall, err := solve(nil)
	if err != nil {
		return nil, err
	}

	optIters := 0
	telemetry.Reset()
	telemetry.Enable()
	t0 := time.Now()
	res, wall, err := solve(func(p runspec.Progress) {
		if p.Phase == runspec.AlgorithmVQE {
			optIters++
		}
	})
	rec.Add(trace, "solve", 0, t0, t0.Add(wall))
	snap := telemetry.Capture()
	telemetry.Disable()
	if err != nil {
		return nil, err
	}
	o.check(!res.Interrupted, "traced solve interrupted")
	checkRepeats(o, []*runspec.Result{base, res})
	c.check(o, b, res)

	m := o.metrics
	tm := func(name string) telemetry.TimerStat { return snap.Timers[name] }
	optimize := float64(tm("vqe.phase.optimize").TotalNs)
	share := func(name string) float64 {
		if optimize == 0 {
			return 0
		}
		return float64(tm(name).TotalNs) / optimize
	}
	perCallMs := func(name string) float64 {
		st := tm(name)
		if st.Count == 0 {
			return 0
		}
		return float64(st.TotalNs) / float64(st.Count) / 1e6
	}
	m["vqe.prepare_share"] = share("vqe.phase.prepare")
	m["vqe.expect_share"] = share("vqe.phase.expect")
	m["vqe.gradient_share"] = share("vqe.phase.gradient")
	m["vqe.energy_ms"] = perCallMs("vqe.energy")
	m["vqe.gradient_ms"] = perCallMs("vqe.phase.gradient")
	m["vqe.gradient_calls"] = float64(tm("vqe.phase.gradient").Count)
	m["vqe.energy_evals"] = float64(res.EnergyEvaluations)
	m["vqe.ansatz_executions"] = float64(res.AnsatzExecutions)
	m["vqe.gates_applied"] = float64(res.GatesApplied)
	m["pauli.evaluate_share"] = float64(tm("pauli.plan.evaluate").TotalNs) / float64(wall.Nanoseconds())
	m["opt.iterations"] = float64(optIters)
	m["opt.self_ms"] = (optimize - float64(tm("vqe.energy").TotalNs) - float64(tm("vqe.phase.gradient").TotalNs)) / 1e6
	m["adapt.iterations"] = float64(len(res.History))
	m["adapt.iteration_ms"] = perCallMs("vqe.adapt.iteration")
	m["trace.solve_s"] = wall.Seconds()
	m["trace.overhead_pct"] = (wall.Seconds() - baseWall.Seconds()) / baseWall.Seconds() * 100

	if err := probeLayers(o, b, c.spec, res, trace); err != nil {
		return nil, err
	}
	stats := layerStats(rec.Spans())
	for _, name := range []string{"setup.molecule", "setup.observable", "setup.fci", "setup.plan",
		"ansatz.circuit", "state.prepare", "pauli.evaluate", "pauli.matvec", "adapt.pool_gradients"} {
		m[name+"_ms"] = median(stats[name])
	}
	if p := m["state.prepare_ms"]; p > 0 {
		m["state.gates_per_s"] = m["ansatz.gates"] / (p / 1e3)
	}
	return o, nil
}

// probeLayers times each layer's public entry point on the solved
// parameters, with telemetry off: the ansatz circuit build, the state
// preparation, the batched expectation and mat-vec, the expectation's
// pool speed-up, and (Adapt only) the operator-pool gradient scan.
func probeLayers(o *outcome, b *built, spec *runspec.RunSpec, res *runspec.Result, trace string) error {
	const reps = 9
	m := o.metrics
	a, err := workloadAnsatz(b, spec, res.History)
	if err != nil {
		return err
	}
	n := b.m.NumSpinOrbitals()
	vecBytes := float64(int(1)<<n) * 16
	rec := o.spans

	circ := a.Circuit(res.Params)
	for i := 0; i < reps; i++ {
		rec.Time(trace, "ansatz.circuit", func() { circ = a.Circuit(res.Params) })
	}
	gates := float64(circ.Stats().Total)
	m["ansatz.gates"] = gates
	// Computed, not measured: one pass over the state vector per gate.
	m["state.prepare_bytes"] = gates * vecBytes

	s := state.New(n, state.Options{})
	for i := 0; i < reps; i++ {
		rec.Time(trace, "state.prepare", func() {
			s.ResetZero()
			s.Run(circ)
		})
	}
	m["pauli.terms"] = float64(b.plan.NumTerms())
	m["pauli.groups"] = float64(b.plan.NumGroups())
	// Computed: one pass over the state vector per X-mask group.
	m["pauli.evaluate_bytes"] = float64(b.plan.NumGroups()) * vecBytes
	for i := 0; i < reps; i++ {
		rec.Time(trace, "pauli.evaluate", func() { b.plan.Evaluate(s, pauli.ExpectationOptions{}) })
	}
	dst := make([]complex128, 1<<n)
	for i := 0; i < reps; i++ {
		rec.Time(trace, "pauli.matvec", func() { b.plan.MatVec(dst, s.Amplitudes(), s.WorkerPool()) })
	}
	var serial, pooled []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		b.plan.Evaluate(s, pauli.ExpectationOptions{Workers: 1})
		serial = append(serial, time.Since(t0).Seconds())
		t0 = time.Now()
		b.plan.Evaluate(s, pauli.ExpectationOptions{Workers: 2})
		pooled = append(pooled, time.Since(t0).Seconds())
	}
	m["state.pool_speedup"] = median(serial) / median(pooled)

	if spec.Algorithm == runspec.AlgorithmAdapt {
		pool, err := ansatz.NewPool(n, b.m.NumElectrons)
		if err != nil {
			return err
		}
		ref := state.New(n, state.Options{})
		ref.Run(ansatz.NewAdaptAnsatz(n, b.m.NumElectrons).Reference())
		for i := 0; i < 3; i++ {
			rec.Time(trace, "adapt.pool_gradients", func() { vqe.PoolGradients(ref, b.h, pool.Ops) })
		}
	}
	return nil
}
