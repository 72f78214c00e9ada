package report

import (
	"bytes"
	"strings"
	"testing"

	"rta/internal/analysis"
	"rta/internal/model"
	"rta/internal/sim"
)

func demoSystem() *model.System {
	return &model.System{
		Procs: []model.Processor{{Name: "CPU", Sched: model.SPNP}, {Name: "NET", Sched: model.FCFS}},
		Jobs: []model.Job{
			{Name: "ctl", Deadline: 60, Subjobs: []model.Subjob{
				{Proc: 0, Exec: 3, Priority: 0}, {Proc: 1, Exec: 4, Priority: 0},
			}, Releases: []model.Ticks{0, 20, 40}},
			{Name: "log", Deadline: 100, Subjobs: []model.Subjob{
				{Proc: 0, Exec: 8, Priority: 1},
			}, Releases: []model.Ticks{0, 0}},
		},
	}
}

func analyze(t *testing.T, sys *model.System) *analysis.Result {
	t.Helper()
	res, err := analysis.Analyze(sys)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestWriteFullDossier(t *testing.T) {
	var buf bytes.Buffer
	sys := demoSystem()
	if err := Write(&buf, sys, analyze(t, sys), sim.Run(sys), Options{Title: "demo"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# demo",
		"## End-to-end verdicts",
		"| ctl |",
		"## Per-hop detail",
		"| queue bound |",
		"## Simulated response distributions",
		"## Processor load",
		"| CPU | SPNP |",
		"## Schedule timeline",
		"A=ctl B=log",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
	if strings.Contains(out, "MISS") {
		t.Errorf("unexpected miss verdict:\n%s", out)
	}
}

func TestWriteDetectsMiss(t *testing.T) {
	sys := demoSystem()
	sys.Jobs[0].Deadline = 5 // impossible: exec sum is 7
	var buf bytes.Buffer
	if err := Write(&buf, sys, analyze(t, sys), nil, Options{}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "**MISS**") || !strings.Contains(out, "not guaranteed") {
		t.Fatalf("miss not reported:\n%s", out)
	}
	if strings.Contains(out, "## Simulated") {
		t.Error("simulation sections rendered without a simulation")
	}
}

func TestWriteHTML(t *testing.T) {
	var buf bytes.Buffer
	sys := demoSystem()
	if err := WriteHTML(&buf, sys, analyze(t, sys), sim.Run(sys), Options{Title: "html demo"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"<!DOCTYPE html>",
		"<h1>html demo</h1>",
		"End-to-end verdicts",
		"<svg", "response-time CDF",
		"Schedule timeline",
		"</html>",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
	if strings.Contains(out, "MISS") {
		t.Error("unexpected miss")
	}
	// Tags balance for the elements we emit explicitly.
	for _, tag := range []string{"table", "h2", "pre"} {
		open := strings.Count(out, "<"+tag)
		closed := strings.Count(out, "</"+tag+">")
		if open != closed {
			t.Errorf("unbalanced <%s>: %d vs %d", tag, open, closed)
		}
	}
}
