package vqe

import (
	"context"
	"math"
	"testing"

	"repro/internal/ansatz"
	"repro/internal/chem"
	"repro/internal/core"
	"repro/internal/opt"
)

func TestPerTermMeasurementMatchesGrouped(t *testing.T) {
	h, u, _ := h2Setup(t)
	params := []float64{0.05, -0.03, 0.1}
	grouped, _ := New(h, u, Options{Mode: Rotated, Caching: true})
	perTerm, _ := New(h, u, Options{Mode: Rotated, Caching: true, PerTermMeasurement: true})
	e1, e2 := grouped.Energy(params), perTerm.Energy(params)
	if math.Abs(e1-e2) > 1e-9 {
		t.Errorf("per-term %v vs grouped %v", e2, e1)
	}
	if perTerm.NumMeasurementBases() <= grouped.NumMeasurementBases() {
		t.Errorf("grouping gained nothing: %d groups vs %d terms",
			grouped.NumMeasurementBases(), perTerm.NumMeasurementBases())
	}
	// Per-term mode restores the cached state once per term, grouped mode
	// once per group (many Z-only term rotations are empty circuits, so
	// raw gate counts are not monotone — state preparations are).
	if perTerm.Stats().CacheRestores <= grouped.Stats().CacheRestores {
		t.Errorf("per-term restores %d not above grouped %d",
			perTerm.Stats().CacheRestores, grouped.Stats().CacheRestores)
	}
}

func TestParameterShiftMatchesFiniteDifferenceOnHEA(t *testing.T) {
	m := chem.H2()
	h := chem.QubitHamiltonian(m)
	hea, err := ansatz.NewHardwareEfficient(4, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	params := make([]float64, hea.NumParameters())
	rng := core.NewRNG(5)
	for i := range params {
		params[i] = 0.3 * rng.NormFloat64()
	}
	if !ShiftRuleApplies(hea, params) {
		t.Fatal("shift rule should apply to HEA")
	}
	g := ParameterShiftGradient(h, hea, params, 1)
	d, _ := New(h, hea, Options{Mode: Direct})
	fd := make([]float64, len(params))
	opt.FiniteDifference(d.Energy, 1e-6)(params, fd)
	for i := range g {
		if math.Abs(g[i]-fd[i]) > 1e-5 {
			t.Fatalf("grad[%d]: shift %v vs FD %v", i, g[i], fd[i])
		}
	}
}

func TestShiftRuleRejectsUCCSD(t *testing.T) {
	// UCCSD parameters fan out into several rotations: the two-point rule
	// is invalid and must be detected.
	u, _ := ansatz.NewUCCSD(4, 2)
	if ShiftRuleApplies(u, make([]float64, u.NumParameters())) {
		t.Error("shift rule wrongly claimed for UCCSD")
	}
}

func TestCostModelForAnsatz(t *testing.T) {
	h, u, _ := h2Setup(t)
	c := u.Circuit(make([]float64, u.NumParameters()))
	gc := CostModelForAnsatz(h, c)
	if gc.AnsatzGates != c.GateCount() {
		t.Errorf("ansatz gates %d vs %d", gc.AnsatzGates, c.GateCount())
	}
	if gc.SavingsFactor() <= 1 {
		t.Errorf("savings %v", gc.SavingsFactor())
	}
	if (GateCost{}).SavingsFactor() != 0 {
		t.Error("zero-cost savings should be 0")
	}
}

func TestAdaptAccumulatesStats(t *testing.T) {
	m := chem.H2()
	h := chem.QubitHamiltonian(m)
	fci, _ := chem.FCI(m)
	pool, _ := ansatz.NewPool(4, 2)
	res, err := AdaptContext(context.Background(), h, pool, 4, 2, AdaptOptions{
		MaxIterations: 6, Reference: fci.Energy, EnergyTol: core.ChemicalAccuracy,
	}, ResilienceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalStats.EnergyEvaluations == 0 || res.TotalStats.GatesApplied == 0 {
		t.Errorf("stats not accumulated: %+v", res.TotalStats)
	}
}
