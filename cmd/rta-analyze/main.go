// Command rta-analyze reads a system description in JSON (see
// internal/model for the format) and prints worst-case end-to-end
// response-time bounds per job, next to the deadline verdict.
//
// Usage:
//
//	rta-analyze [-method auto|exact|approx|iterative] [-sim] system.json
//
// With -sim the discrete-event simulator also runs and its observed worst
// responses are printed for comparison (the exact analysis matches them;
// the approximate analyses dominate them). -gantt additionally draws the
// simulated schedule as a per-processor timeline.
//
// -timeout bounds the wall-clock time of the analysis and the simulator;
// -budget-breakpoints and -budget-steps bound the work of the analysis
// itself (see DESIGN.md, "Fault containment"). A budget-exceeded run
// still prints the jobs that converged; the rest show as "inf".
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"text/tabwriter"

	"rta"
	"rta/internal/cli"
	"rta/internal/dot"
	"rta/internal/gantt"
	"rta/internal/model"
	"rta/internal/report"
	"rta/internal/sched"
	"rta/internal/tracelog"
)

// usageLine is the one-line synopsis, listing every registered scheduler
// so the help output stays current as disciplines are added.
func usageLine() string {
	var names []string
	for _, p := range sched.Policies() {
		names = append(names, p.Name())
	}
	return fmt.Sprintf("usage: rta-analyze [flags] system.json\nschedulers: %s\n",
		strings.Join(names, ", "))
}

func main() { cli.Main("rta-analyze", body) }

func body() error {
	method := flag.String("method", "auto", "analysis method: auto, exact, approx or iterative")
	withSim := flag.Bool("sim", false, "also run the discrete-event simulator")
	withGantt := flag.Bool("gantt", false, "draw the simulated schedule (implies -sim)")
	width := flag.Int("width", 72, "gantt chart width in characters")
	tracePath := flag.String("trace", "", "write the simulated schedule as Chrome trace JSON (implies -sim)")
	dotPath := flag.String("dot", "", "write the system structure as Graphviz DOT")
	reportPath := flag.String("report", "", "write a full markdown dossier (analysis + simulation)")
	htmlPath := flag.String("html", "", "write a self-contained HTML dossier (tables + CDF chart + timeline)")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "worker pool size for the parallel analysis engines")
	timeout := flag.Duration("timeout", 0, "abort analysis and simulation after this long (0 = no limit)")
	budgetBreaks := flag.Int64("budget-breakpoints", 0, "abort the analysis after materializing this many curve breakpoints (0 = no limit)")
	budgetSteps := flag.Int64("budget-steps", 0, "abort the iterative analysis after this many fixed-point steps (0 = no limit)")
	flag.Usage = func() {
		fmt.Fprint(os.Stderr, usageLine())
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		return cli.Exit(2)
	}
	ctx, cancel := cli.Timeout(*timeout)
	defer cancel()

	f, err := os.Open(flag.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	sys, err := model.Load(f)
	if err != nil {
		return err
	}

	var res *rta.Result
	opts := rta.Options{
		Workers: *workers,
		Context: ctx,
		Budget:  rta.Budget{Breakpoints: *budgetBreaks, FixedPointSteps: *budgetSteps},
	}
	switch *method {
	case "auto":
		res, err = rta.AnalyzeOpts(sys, opts)
	case "exact":
		res, err = rta.ExactOpts(sys, opts)
	case "approx":
		res, err = rta.ApproximateOpts(sys, opts)
	case "iterative":
		res, err = rta.IterativeOpts(sys, 0, opts)
	default:
		return fmt.Errorf("unknown method %q", *method)
	}
	// A budget trip still carries partial results: report them, flag the
	// run as over budget, and exit 1 through the MISS path below.
	overBudget := err != nil && errors.Is(err, rta.ErrBudgetExceeded) && res != nil
	if err != nil && !overBudget {
		return err
	}

	// The dossiers render this run's result (method, workers, budgets) and
	// their own simulation sections; the table shows the simulation only
	// when asked.
	showSim := *withSim || *withGantt || *tracePath != ""
	var simRes *rta.SimResult
	if showSim || *reportPath != "" || *htmlPath != "" {
		simRes, err = rta.SimulateOpts(sys, rta.SimOptions{Context: ctx})
		if err != nil {
			return err
		}
	}

	fmt.Printf("method: %s\n", res.Method)
	if overBudget {
		fmt.Printf("# over budget: %v\n", err)
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprint(w, "job\tdeadline\twcrt\twcrt(thm4)\tverdict")
	if showSim {
		fmt.Fprint(w, "\tsimulated")
	}
	fmt.Fprintln(w)
	allOK := true
	for k := range sys.Jobs {
		verdict := "OK"
		if rta.IsInf(res.WCRTSum[k]) || res.WCRTSum[k] > sys.Jobs[k].Deadline {
			verdict = "MISS"
			allOK = false
		}
		fmt.Fprintf(w, "%s\t%d\t%s\t%s\t%s", sys.JobName(k), sys.Jobs[k].Deadline,
			tick(res.WCRT[k]), tick(res.WCRTSum[k]), verdict)
		if showSim {
			fmt.Fprintf(w, "\t%d", simRes.WorstResponse(k))
		}
		fmt.Fprintln(w)
	}
	w.Flush()
	if *withGantt {
		fmt.Println()
		gantt.Render(os.Stdout, sys, simRes, gantt.Options{Width: *width})
	}
	if *tracePath != "" {
		if err := writeFile(*tracePath, func(f *os.File) error {
			return tracelog.Write(f, sys, simRes)
		}); err != nil {
			return err
		}
		fmt.Printf("\nwrote %s (open in https://ui.perfetto.dev)\n", *tracePath)
	}
	if *reportPath != "" {
		if err := writeFile(*reportPath, func(f *os.File) error {
			return report.Write(f, sys, res, simRes, report.Options{Title: "Response-time analysis: " + flag.Arg(0)})
		}); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *reportPath)
	}
	if *htmlPath != "" {
		if err := writeFile(*htmlPath, func(f *os.File) error {
			return report.WriteHTML(f, sys, res, simRes, report.Options{Title: "Response-time analysis: " + flag.Arg(0)})
		}); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *htmlPath)
	}
	if *dotPath != "" {
		if err := writeFile(*dotPath, func(f *os.File) error {
			dot.Write(f, sys)
			return nil
		}); err != nil {
			return err
		}
		fmt.Printf("wrote %s (render with: dot -Tsvg)\n", *dotPath)
	}
	if !allOK || overBudget {
		return cli.Exit(1)
	}
	return nil
}

// writeFile creates path, runs body on it and closes it, reporting the
// first error.
func writeFile(path string, body func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := body(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func tick(t rta.Ticks) string {
	if rta.IsInf(t) {
		return "inf"
	}
	return fmt.Sprintf("%d", t)
}
