// Package report renders a complete markdown dossier for a system: the
// verdict per job (bound vs deadline, slack), per-hop detail (local
// bounds, queue depths), simulated distributions, and the schedule
// timeline. One call collects what an engineer would otherwise assemble
// from four tools; rta-analyze -report writes it to a file. The dossier
// renders results the caller already computed, so it shows whichever
// analysis method, worker count and budget produced them.
package report

import (
	"fmt"
	"io"
	"strings"

	"rta/internal/analysis"
	"rta/internal/curve"
	"rta/internal/gantt"
	"rta/internal/metrics"
	"rta/internal/model"
	"rta/internal/sim"
)

// Options configure the dossier.
type Options struct {
	// Title heads the document (defaults to "Response-time analysis").
	Title string
	// GanttWidth is the timeline width in characters (0 = 100).
	GanttWidth int
}

// Write renders the dossier of sys from its analysis result res and, when
// simRes is non-nil, the simulation-backed sections (distributions, load
// and timeline) from simRes. It returns the error of writing to w.
func Write(w io.Writer, sys *model.System, res *analysis.Result, simRes *sim.Result, opts Options) error {
	if opts.Title == "" {
		opts.Title = "Response-time analysis"
	}
	if opts.GanttWidth <= 0 {
		opts.GanttWidth = 100
	}
	var doc strings.Builder

	fmt.Fprintf(&doc, "# %s\n\n", opts.Title)
	fmt.Fprintf(&doc, "Method: **%s** — %d processors, %d jobs.\n\n", res.Method, len(sys.Procs), len(sys.Jobs))

	// Verdict table.
	fmt.Fprintln(&doc, "## End-to-end verdicts")
	fmt.Fprintln(&doc)
	fmt.Fprintln(&doc, "| job | bound | deadline | slack | verdict |")
	fmt.Fprintln(&doc, "|-----|-------|----------|-------|---------|")
	allOK := true
	for k := range sys.Jobs {
		b := res.WCRTSum[k]
		verdict, slack := "OK", ""
		if curve.IsInf(b) {
			verdict, slack = "**UNBOUNDED**", "-"
			allOK = false
		} else {
			slack = fmt.Sprint(sys.Jobs[k].Deadline - b)
			if b > sys.Jobs[k].Deadline {
				verdict = "**MISS**"
				allOK = false
			}
		}
		fmt.Fprintf(&doc, "| %s | %s | %d | %s | %s |\n",
			sys.JobName(k), tick(b), sys.Jobs[k].Deadline, slack, verdict)
	}
	fmt.Fprintln(&doc)
	if allOK {
		fmt.Fprintln(&doc, "All deadlines are guaranteed.")
	} else {
		fmt.Fprintln(&doc, "At least one job is not guaranteed; see the hop detail below.")
	}
	fmt.Fprintln(&doc)

	// Per-hop detail (approximate path only; the exact path has equal
	// information in the end-to-end numbers).
	if res.Hops != nil {
		fmt.Fprintln(&doc, "## Per-hop detail")
		fmt.Fprintln(&doc)
		fmt.Fprintln(&doc, "| job | hop | processor | local bound | queue bound |")
		fmt.Fprintln(&doc, "|-----|-----|-----------|-------------|-------------|")
		for k := range sys.Jobs {
			for j, hop := range res.Hops[k] {
				q := "unbounded"
				if hop.Backlog >= 0 {
					q = fmt.Sprint(hop.Backlog)
				}
				fmt.Fprintf(&doc, "| %s | %d | %s | %s | %s |\n",
					sys.JobName(k), j+1, sys.ProcName(sys.Jobs[k].Subjobs[j].Proc),
					tick(hop.Local), q)
			}
		}
		fmt.Fprintln(&doc)
	}

	if simRes == nil {
		_, err := io.WriteString(w, doc.String())
		return err
	}
	rep := metrics.Summarize(sys, simRes)

	fmt.Fprintln(&doc, "## Simulated response distributions")
	fmt.Fprintln(&doc)
	fmt.Fprintln(&doc, "| job | count | min | mean | p50 | p90 | p99 | max | bound/max |")
	fmt.Fprintln(&doc, "|-----|-------|-----|------|-----|-----|-----|-----|-----------|")
	for k, m := range rep.Jobs {
		ratio := "-"
		if m.Max > 0 && !curve.IsInf(res.WCRTSum[k]) {
			ratio = fmt.Sprintf("%.2f", float64(res.WCRTSum[k])/float64(m.Max))
		}
		fmt.Fprintf(&doc, "| %s | %d | %d | %.1f | %d | %d | %d | %d | %s |\n",
			sys.JobName(k), m.Count, m.Min, m.Mean, m.P50, m.P90, m.P99, m.Max, ratio)
	}
	fmt.Fprintln(&doc)

	fmt.Fprintln(&doc, "## Processor load")
	fmt.Fprintln(&doc)
	fmt.Fprintln(&doc, "| processor | scheduler | busy | span | segments | preemptions | utilization |")
	fmt.Fprintln(&doc, "|-----------|-----------|------|------|----------|-------------|-------------|")
	for p, pm := range rep.Procs {
		fmt.Fprintf(&doc, "| %s | %s | %d | %d | %d | %d | %.3f |\n",
			sys.ProcName(p), sys.Procs[p].Sched, pm.Busy, pm.Span, pm.Segments, pm.Preemptions, pm.Utilization())
	}
	fmt.Fprintln(&doc)

	fmt.Fprintln(&doc, "## Schedule timeline")
	fmt.Fprintln(&doc)
	fmt.Fprintln(&doc, "```")
	gantt.Render(&doc, sys, simRes, gantt.Options{Width: opts.GanttWidth})
	fmt.Fprintln(&doc, "```")
	_, err := io.WriteString(w, doc.String())
	return err
}

func tick(t model.Ticks) string {
	if curve.IsInf(t) {
		return "inf"
	}
	return fmt.Sprint(t)
}
