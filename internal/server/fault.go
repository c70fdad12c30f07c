package server

// Test-only worker fault injection for the chaos harness: a FaultHook
// installed via Config.FaultHook runs inside the engine's progress
// observer, where it can panic (exercising per-task panic isolation) or
// stall (exercising the no-progress watchdog). Production deployments
// leave the hook nil; the vqed binary only installs one when the
// VQED_FAULTS environment variable is set.

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/runspec"
	"repro/internal/telemetry"
)

var (
	mFaultPanics = telemetry.GetCounter("server.fault.injected_panics")
	mFaultStalls = telemetry.GetCounter("server.fault.injected_stalls")
)

// FaultHook observes every engine progress sample of every task before it
// is published. key names the task: the job ID for a job, the sweep ID
// plus "-pNNN" (1-based point) for a sweep point. It may panic or block;
// the scheduler's isolation and watchdog must contain either. ctx is the
// task's run context — a stalling hook should select on it so a watchdog
// cancellation unblocks the slot.
type FaultHook func(ctx context.Context, key string, p runspec.Progress)

// faultInjector is the seeded implementation behind FaultHookFromEnv. It
// fires at most one fault per task (so a bounded retry budget always
// recovers) and at most Max faults per process.
type faultInjector struct {
	mu        sync.Mutex
	rng       *rand.Rand
	panicProb float64
	stallProb float64
	stall     time.Duration
	max       int
	fired     int
	perTask   map[string]bool
}

// FaultHookFromEnv parses a fault-drill spec of the form
//
//	seed=7,panic=0.05,stall=0.03,stall_ms=1500,max=6
//
// into a seeded FaultHook: each progress sample of a not-yet-faulted task
// draws once; with probability panic the hook panics, else with
// probability stall it blocks for stall_ms (or until the task context is
// canceled). max bounds total injected faults (default 16). An empty
// spec returns a nil hook.
func FaultHookFromEnv(spec string) (FaultHook, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	inj := &faultInjector{
		rng:     rand.New(rand.NewSource(1)),
		stall:   time.Second,
		max:     16,
		perTask: map[string]bool{},
	}
	for _, kv := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return nil, fmt.Errorf("%w: server: fault spec field %q (want key=value)", core.ErrInvalidArgument, kv)
		}
		switch key {
		case "seed":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("%w: server: fault seed %q: %v", core.ErrInvalidArgument, val, err)
			}
			inj.rng = rand.New(rand.NewSource(n))
		case "panic":
			p, err := strconv.ParseFloat(val, 64)
			if err != nil || p < 0 || p > 1 {
				return nil, fmt.Errorf("%w: server: fault panic prob %q", core.ErrInvalidArgument, val)
			}
			inj.panicProb = p
		case "stall":
			p, err := strconv.ParseFloat(val, 64)
			if err != nil || p < 0 || p > 1 {
				return nil, fmt.Errorf("%w: server: fault stall prob %q", core.ErrInvalidArgument, val)
			}
			inj.stallProb = p
		case "stall_ms":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("%w: server: fault stall_ms %q", core.ErrInvalidArgument, val)
			}
			inj.stall = time.Duration(n) * time.Millisecond
		case "max":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("%w: server: fault max %q", core.ErrInvalidArgument, val)
			}
			inj.max = n
		default:
			return nil, fmt.Errorf("%w: server: unknown fault spec key %q", core.ErrInvalidArgument, key)
		}
	}
	return inj.hook, nil
}

// hook is the FaultHook. The RNG draw happens under the injector lock;
// the fault itself (panic or stall) happens outside it so a stalled task
// never blocks injection bookkeeping for other workers.
func (f *faultInjector) hook(ctx context.Context, key string, p runspec.Progress) {
	f.mu.Lock()
	if f.fired >= f.max || f.perTask[key] {
		f.mu.Unlock()
		return
	}
	draw := f.rng.Float64()
	doPanic := draw < f.panicProb
	doStall := !doPanic && draw < f.panicProb+f.stallProb
	if doPanic || doStall {
		f.fired++
		f.perTask[key] = true
	}
	f.mu.Unlock()

	switch {
	case doPanic:
		mFaultPanics.Inc()
		panic(fmt.Sprintf("server: injected fault panic (task %s, iteration %d)", key, p.Iteration))
	case doStall:
		mFaultStalls.Inc()
		t := time.NewTimer(f.stall)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
		}
	}
}
