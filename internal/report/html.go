package report

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"rta/internal/analysis"
	"rta/internal/curve"
	"rta/internal/gantt"
	"rta/internal/metrics"
	"rta/internal/model"
	"rta/internal/plot"
	"rta/internal/sim"
)

// WriteHTML renders a self-contained HTML dossier of sys from its
// analysis result res and its simulation simRes (both required): the
// verdict tables, an embedded SVG chart of the response-time CDFs
// (observed) with the analytical bounds as reference marks, and the
// schedule timeline. No external assets; open the file in any browser.
func WriteHTML(w io.Writer, sys *model.System, res *analysis.Result, simRes *sim.Result, opts Options) error {
	if opts.Title == "" {
		opts.Title = "Response-time analysis"
	}
	if opts.GanttWidth <= 0 {
		opts.GanttWidth = 120
	}
	rep := metrics.Summarize(sys, simRes)

	var b strings.Builder
	fmt.Fprintf(&b, "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\"><title>%s</title>\n", esc(opts.Title))
	b.WriteString(`<style>
body { font-family: sans-serif; margin: 2em; color: #222; }
table { border-collapse: collapse; margin: 1em 0; }
th, td { border: 1px solid #bbb; padding: 4px 10px; text-align: right; }
th { background: #f0f0f0; }
td:first-child, th:first-child { text-align: left; }
pre { background: #f7f7f7; padding: 8px; overflow-x: auto; }
.miss { color: #b00; font-weight: bold; }
</style></head><body>
`)
	fmt.Fprintf(&b, "<h1>%s</h1>\n", esc(opts.Title))
	fmt.Fprintf(&b, "<p>Method: <b>%s</b> — %d processors, %d jobs.</p>\n",
		esc(res.Method), len(sys.Procs), len(sys.Jobs))

	// Verdicts.
	b.WriteString("<h2>End-to-end verdicts</h2>\n<table><tr><th>job</th><th>bound</th><th>deadline</th><th>simulated max</th><th>verdict</th></tr>\n")
	for k := range sys.Jobs {
		bound := res.WCRTSum[k]
		verdict := "OK"
		cls := ""
		if curve.IsInf(bound) || bound > sys.Jobs[k].Deadline {
			verdict, cls = "MISS", ` class="miss"`
		}
		fmt.Fprintf(&b, "<tr><td>%s</td><td>%s</td><td>%d</td><td>%d</td><td%s>%s</td></tr>\n",
			esc(sys.JobName(k)), tick(bound), sys.Jobs[k].Deadline, rep.Jobs[k].Max, cls, verdict)
	}
	b.WriteString("</table>\n")

	// CDF chart: per job, observed response CDF; bound shown as a final
	// vertical step to 1.05 (visually marks the analytical guarantee).
	b.WriteString("<h2>Observed response-time CDFs (bound marked)</h2>\n")
	p := &plot.Plot{
		Title: "response-time CDF", XLabel: "response (ticks)", YLabel: "fraction of instances",
		YMin: 0, YMax: 1.08,
	}
	for k := range sys.Jobs {
		responses := append([]model.Ticks(nil), simRes.Response[k]...)
		sort.Slice(responses, func(a, b int) bool { return responses[a] < responses[b] })
		s := plot.Series{Name: sys.JobName(k)}
		n := len(responses)
		for i, rv := range responses {
			s.X = append(s.X, float64(rv))
			s.Y = append(s.Y, float64(i+1)/float64(n))
		}
		if !curve.IsInf(res.WCRTSum[k]) {
			// The guarantee: nothing can ever sit right of this x.
			s.X = append(s.X, float64(res.WCRTSum[k]), float64(res.WCRTSum[k]))
			s.Y = append(s.Y, 1, 1.05)
		}
		p.Series = append(p.Series, s)
	}
	if err := p.WriteSVG(&b, 640, 400); err != nil {
		return err
	}

	// Timeline.
	b.WriteString("<h2>Schedule timeline</h2>\n<pre>")
	var gb strings.Builder
	gantt.Render(&gb, sys, simRes, gantt.Options{Width: opts.GanttWidth})
	b.WriteString(esc(gb.String()))
	b.WriteString("</pre>\n</body></html>\n")

	_, err := io.WriteString(w, b.String())
	return err
}

func esc(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
	return r.Replace(s)
}
