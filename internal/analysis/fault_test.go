package analysis

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"rta/internal/curve"
	"rta/internal/model"
	"rta/internal/randsys"
)

// faultSystem draws a deterministic mixed-scheduler system for the
// containment tests.
func faultSystem(seed int64, scheds ...model.Scheduler) *model.System {
	r := rand.New(rand.NewSource(seed))
	cfg := randsys.Default
	if len(scheds) > 0 {
		cfg.Schedulers = scheds
	}
	return randsys.New(r, cfg)
}

// TestCanceledContextDeterministic: a pre-canceled context makes every
// entry point return an error wrapping context.Canceled, with no result,
// at every worker count.
func TestCanceledContextDeterministic(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sys := faultSystem(71)
	spp := faultSystem(72, model.SPP)
	for _, workers := range []int{1, 8} {
		opts := Options{Workers: workers, Context: ctx}
		cases := []struct {
			name string
			run  func() (*Result, error)
		}{
			{"Approximate", func() (*Result, error) { return ApproximateOpts(sys, opts) }},
			{"Exact", func() (*Result, error) { return ExactOpts(spp, opts) }},
			{"Analyze", func() (*Result, error) { return AnalyzeOpts(sys, opts) }},
			{"Iterative", func() (*Result, error) { return IterativeOpts(sys, 0, opts) }},
		}
		for _, tc := range cases {
			res, err := tc.run()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s workers=%d: err = %v, want context.Canceled", tc.name, workers, err)
			}
			if res != nil {
				t.Fatalf("%s workers=%d: returned a result under a pre-canceled context", tc.name, workers)
			}
		}
	}
}

// TestUnbudgetedOptionsUnobserved: passing an explicit background context
// and a huge budget is behaviorally invisible — the results are
// field-identical to the plain run, at several worker counts.
func TestUnbudgetedOptionsUnobserved(t *testing.T) {
	huge := Budget{Breakpoints: 1 << 60, FixedPointSteps: 1 << 60}
	for trial := int64(0); trial < 10; trial++ {
		sys := faultSystem(80 + trial)
		plain, perr := AnalyzeOpts(sys, Options{})
		for _, workers := range []int{1, 4} {
			got, gerr := AnalyzeOpts(sys, Options{
				Workers: workers, Context: context.Background(), Budget: huge,
			})
			if (perr == nil) != (gerr == nil) {
				t.Fatalf("trial %d workers=%d: error mismatch %v vs %v", trial, workers, perr, gerr)
			}
			if perr != nil {
				continue
			}
			requireSameResult(t, "Analyze+options", plain, got)
		}
		iplain, ierr := IterativeOpts(sys, 0, Options{})
		igot, igerr := IterativeOpts(sys, 0, Options{Context: context.Background(), Budget: huge})
		if (ierr == nil) != (igerr == nil) {
			t.Fatalf("trial %d: iterative error mismatch %v vs %v", trial, ierr, igerr)
		}
		requireSameResult(t, "Iterative+options", iplain, igot)
	}
}

// checkBudgetPartial asserts the partial-result contract against the
// unbudgeted reference: every finite bound matches, the rest are Inf.
func checkBudgetPartial(t *testing.T, label string, full, part *Result) {
	t.Helper()
	for k := range full.WCRTSum {
		if curve.IsInf(part.WCRTSum[k]) {
			continue
		}
		if part.WCRTSum[k] != full.WCRTSum[k] || part.WCRT[k] != full.WCRT[k] {
			t.Fatalf("%s: job %d partial bounds (%d, %d) differ from converged (%d, %d)",
				label, k, part.WCRT[k], part.WCRTSum[k], full.WCRT[k], full.WCRTSum[k])
		}
	}
}

// TestBreakpointBudgetPartialApproximate: sweeping the breakpoint ceiling
// from starvation to abundance, a budgeted approximate run either fails
// cleanly, returns a flagged partial result whose finite bounds equal the
// converged ones, or completes identically to the unbudgeted run.
func TestBreakpointBudgetPartialApproximate(t *testing.T) {
	sys := faultSystem(90)
	full, err := ApproximateOpts(sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sawPartial := false
	for b := int64(1); ; b *= 2 {
		res, err := ApproximateOpts(sys, Options{Budget: Budget{Breakpoints: b}})
		if err == nil {
			requireSameResult(t, "converged under budget", full, res)
			break
		}
		if !errors.Is(err, ErrBudgetExceeded) {
			t.Fatalf("budget %d: err = %v, want ErrBudgetExceeded", b, err)
		}
		if res == nil {
			continue // tripped before any hop was computed
		}
		if res.Method != "App(budget)" {
			t.Fatalf("budget %d: Method = %q", b, res.Method)
		}
		sawPartial = true
		checkBudgetPartial(t, "App", full, res)
		if b > 1<<40 {
			t.Fatal("budget never sufficed")
		}
	}
	if !sawPartial {
		t.Error("no budget produced a partial result; the sweep never exercised the partial path")
	}
}

// TestBreakpointBudgetPartialExact: the same sweep over the all-SPP exact
// engine.
func TestBreakpointBudgetPartialExact(t *testing.T) {
	sys := faultSystem(91, model.SPP)
	full, err := ExactOpts(sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sawPartial := false
	for b := int64(1); ; b *= 2 {
		res, err := ExactOpts(sys, Options{Budget: Budget{Breakpoints: b}})
		if err == nil {
			requireSameResult(t, "exact under budget", full, res)
			break
		}
		if !errors.Is(err, ErrBudgetExceeded) {
			t.Fatalf("budget %d: err = %v, want ErrBudgetExceeded", b, err)
		}
		if res == nil {
			continue
		}
		if res.Method != "SPP/Exact(budget)" {
			t.Fatalf("budget %d: Method = %q", b, res.Method)
		}
		sawPartial = true
		for k := range full.WCRT {
			if !curve.IsInf(res.WCRT[k]) && res.WCRT[k] != full.WCRT[k] {
				t.Fatalf("budget %d: job %d partial %d != exact %d", b, k, res.WCRT[k], full.WCRT[k])
			}
		}
		if b > 1<<40 {
			t.Fatal("budget never sufficed")
		}
	}
	if !sawPartial {
		t.Error("no budget produced a partial exact result")
	}
}

// TestStepBudgetIterative: the fixed-point step ceiling stops the
// iteration with a flagged partial result; finite bounds match the
// converged fixed point, and a generous ceiling is unobservable.
func TestStepBudgetIterative(t *testing.T) {
	sys := faultSystem(92)
	full, err := IterativeOpts(sys, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sawPartial := false
	for b := int64(1); ; b *= 2 {
		res, err := IterativeOpts(sys, 0, Options{Budget: Budget{FixedPointSteps: b}})
		if err == nil {
			requireSameResult(t, "iterative under budget", full, res)
			break
		}
		if !errors.Is(err, ErrBudgetExceeded) {
			t.Fatalf("steps %d: err = %v, want ErrBudgetExceeded", b, err)
		}
		if res == nil {
			t.Fatalf("steps %d: step-budgeted run lost its partial result", b)
		}
		if res.Method != "App/Iterative(budget)" {
			t.Fatalf("steps %d: Method = %q", b, res.Method)
		}
		sawPartial = true
		checkBudgetPartial(t, "Iterative", full, res)
		if b > 1<<40 {
			t.Fatal("step budget never sufficed")
		}
	}
	if !sawPartial {
		t.Error("no step budget produced a partial result")
	}
}

// TestSessionBudgetPartialNotStale: a warm converge that trips the
// breakpoint budget reports, for every job, either its converged bound or
// curve.Inf - never the bound of the previous converge, which the dirty
// rows still held before they were re-evaluated. Covers the exact,
// approximate and iterative engines.
func TestSessionBudgetPartialNotStale(t *testing.T) {
	cases := []struct {
		name   string
		sc     model.Scheduler
		engine Engine
		cold   func(*model.System) (*Result, error)
	}{
		{"exact", model.SPP, EngineAuto, func(sys *model.System) (*Result, error) { return AnalyzeOpts(sys, Options{}) }},
		{"approximate", model.SPNP, EngineAuto, func(sys *model.System) (*Result, error) { return AnalyzeOpts(sys, Options{}) }},
		{"iterative", model.FCFS, EngineIterative, func(sys *model.System) (*Result, error) { return IterativeOpts(sys, 0, Options{}) }},
	}
	for _, tc := range cases {
		sawPartial := false
		for b := int64(64); b < 1<<24; b *= 2 {
			s, err := NewSession(churnSystem(tc.sc, 10, 4, 6, 0), SessionConfig{Engine: tc.engine})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Mutate(func(sys *model.System) error {
				for k := range sys.Jobs {
					sys.Jobs[k].Subjobs[0].Exec += 5
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			s.SetOptions(Options{Budget: Budget{Breakpoints: b}})
			part, perr := s.Converge()
			if perr == nil {
				break
			}
			if !errors.Is(perr, ErrBudgetExceeded) {
				t.Fatalf("%s budget %d: err = %v", tc.name, b, perr)
			}
			if part == nil {
				continue
			}
			sawPartial = true
			full, err := tc.cold(s.WorkingSystem())
			if err != nil {
				t.Fatal(err)
			}
			checkBudgetPartial(t, tc.name, full, part)
		}
		if !sawPartial {
			t.Errorf("%s: no budget produced a partial warm result", tc.name)
		}
	}
}
