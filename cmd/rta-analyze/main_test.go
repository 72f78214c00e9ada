package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rta/internal/model"
	"rta/internal/sched"
)

// TestUsageListsRegisteredSchedulers pins the help output to the policy
// registry: every registered discipline must be named, so the synopsis
// stays current as schedulers are added.
func TestUsageListsRegisteredSchedulers(t *testing.T) {
	u := usageLine()
	pols := sched.Policies()
	if len(pols) < 4 {
		t.Fatalf("expected at least 4 registered policies (SPP, SPNP, FCFS, TDMA), got %d", len(pols))
	}
	for _, p := range pols {
		if !strings.Contains(u, p.Name()) {
			t.Errorf("usage %q does not mention registered scheduler %s", u, p.Name())
		}
	}
	// The model-level registry must agree with the policy registry.
	for _, s := range model.RegisteredSchedulers() {
		if _, ok := sched.Lookup(s); !ok {
			t.Errorf("scheduler %v registered with the model layer but has no policy", s)
		}
	}
}

// TestReportUsesChosenMethod: -report and -html render the result of the
// analysis the flags selected. The loop shop is cyclic, so only the
// iterative engine analyzes it; a dossier that re-ran the default
// analysis would fail with ErrCyclic.
func TestReportUsesChosenMethod(t *testing.T) {
	dir := t.TempDir()
	md, page := filepath.Join(dir, "loop.md"), filepath.Join(dir, "loop.html")
	args, fs := os.Args, flag.CommandLine
	defer func() { os.Args, flag.CommandLine = args, fs }()
	flag.CommandLine = flag.NewFlagSet("rta-analyze", flag.ContinueOnError)
	os.Args = []string{"rta-analyze", "-method", "iterative", "-workers", "2",
		"-report", md, "-html", page, filepath.Join("..", "..", "testdata", "loopshop.json")}
	if err := body(); err != nil {
		t.Fatalf("rta-analyze: %v", err)
	}
	for path, wants := range map[string][]string{
		md:   {"Method: **App**", "| forward | 24100 |", "## Per-hop detail", "## Schedule timeline"},
		page: {"<b>App</b>", "forward", "Schedule timeline"},
	} {
		out, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range wants {
			if !strings.Contains(string(out), want) {
				t.Errorf("%s: missing %q", filepath.Base(path), want)
			}
		}
	}
}
