// Package conformance checks observed execution logs against a model and
// its analysis: did every instance respect its release contract, did any
// response exceed the computed bound, and do the observed arrivals still
// fit the envelopes the admission decision assumed? This is the
// deployment-side complement of the analyses - bounds are only as good as
// the model's match with reality, and this package is the detector for
// the mismatch.
//
// An observation log is a flat list of records, one per completed
// instance hop. Logs can be checked against a system (structure + bound
// checks) and summarized into per-job envelopes for re-admission.
package conformance

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"rta/internal/envelope"
	"rta/internal/model"
)

// Record is one observed instance hop.
type Record struct {
	Job, Hop, Idx int
	Release       model.Ticks // observed release at this hop
	Complete      model.Ticks // observed completion at this hop
}

// Log is a set of observations.
type Log struct {
	Records []Record
}

// ParseCSV reads "job,hop,idx,release,complete" lines ('#' comments and
// blank lines ignored).
func ParseCSV(r io.Reader) (*Log, error) {
	sc := bufio.NewScanner(r)
	log := &Log{}
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		parts := strings.Split(text, ",")
		if len(parts) != 5 {
			return nil, fmt.Errorf("conformance: line %d: want 5 fields, got %d", line, len(parts))
		}
		var vals [5]int64
		for i, p := range parts {
			v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("conformance: line %d field %d: %v", line, i+1, err)
			}
			vals[i] = v
		}
		log.Records = append(log.Records, Record{
			Job: int(vals[0]), Hop: int(vals[1]), Idx: int(vals[2]),
			Release: vals[3], Complete: vals[4],
		})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return log, nil
}

// Violation describes one conformance failure.
type Violation struct {
	Kind   string // "structure", "order", "deadline", "bound", "envelope"
	Record Record
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: T_{%d,%d} #%d: %s", v.Kind, v.Record.Job+1, v.Record.Hop+1, v.Record.Idx, v.Detail)
}

// Check validates the log against the system: references must exist,
// completions must follow releases, chains must be causally ordered,
// end-to-end responses must respect deadlines and, when bounds are given
// (per job, from any analysis), the computed worst-case bounds.
func Check(sys *model.System, log *Log, bounds []model.Ticks) []Violation {
	var out []Violation
	report := func(kind string, rec Record, format string, args ...any) {
		out = append(out, Violation{Kind: kind, Record: rec, Detail: fmt.Sprintf(format, args...)})
	}
	// Index records per (job, hop, idx).
	type key struct{ j, h, i int }
	byKey := map[key]Record{}
	for _, rec := range log.Records {
		if rec.Job < 0 || rec.Job >= len(sys.Jobs) {
			report("structure", rec, "unknown job")
			continue
		}
		if rec.Hop < 0 || rec.Hop >= len(sys.Jobs[rec.Job].Subjobs) {
			report("structure", rec, "unknown hop")
			continue
		}
		if rec.Idx < 0 || rec.Idx >= len(sys.Jobs[rec.Job].Releases) {
			report("structure", rec, "unknown instance")
			continue
		}
		if rec.Complete < rec.Release {
			report("order", rec, "completion %d before release %d", rec.Complete, rec.Release)
			continue
		}
		if min := rec.Release + 1; rec.Complete < min {
			report("order", rec, "completion implies zero execution")
		}
		byKey[key{rec.Job, rec.Hop, rec.Idx}] = rec
	}
	topo := sys.Topology()
	isSink := make([]map[int]bool, len(sys.Jobs))
	for j := range sys.Jobs {
		isSink[j] = map[int]bool{}
		for _, h := range topo.Sinks(j) {
			isSink[j][h] = true
		}
	}
	var scratch [1]int
	for k, rec := range byKey {
		// Precedence causality: a hop must not be released before any of
		// its predecessors' completions (plus the link latency).
		for _, p := range sys.Jobs[k.j].HopPreds(k.h, &scratch) {
			if pred, ok := byKey[key{k.j, p, k.i}]; ok {
				if rec.Release < pred.Complete+sys.Jobs[k.j].Subjobs[p].PostDelay {
					report("order", rec, "released %d before predecessor hop %d completion %d (+%d link)",
						rec.Release, p+1, pred.Complete, sys.Jobs[k.j].Subjobs[p].PostDelay)
				}
			}
		}
		// End-to-end checks on the sink hops: every sink's completion is a
		// lower bound on the instance's response, so a violation at any
		// sink is a violation of the end-to-end contract.
		if isSink[k.j][k.h] {
			if first, ok := byKey[key{k.j, topo.Sources(k.j)[0], k.i}]; ok {
				resp := rec.Complete - first.Release
				if resp > sys.Jobs[k.j].Deadline {
					report("deadline", rec, "response %d exceeds deadline %d", resp, sys.Jobs[k.j].Deadline)
				}
				if bounds != nil && k.j < len(bounds) && resp > bounds[k.j] {
					report("bound", rec, "response %d exceeds the analyzed bound %d - model mismatch", resp, bounds[k.j])
				}
			}
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].String() < out[b].String() })
	return out
}

// ObservedEnvelopes extracts, per job, the tightest minimum-distance
// envelope of the observed source-hop releases (maxGroup as in
// envelope.FromTrace). Every source hop shares the job's release trace,
// so only the first source is sampled to avoid double-counting releases.
// Jobs without observations get empty envelopes.
func ObservedEnvelopes(sys *model.System, log *Log, maxGroup int) []envelope.Envelope {
	topo := sys.Topology()
	traces := make([][]model.Ticks, len(sys.Jobs))
	for _, rec := range log.Records {
		if rec.Job < 0 || rec.Job >= len(sys.Jobs) {
			continue
		}
		if rec.Hop != topo.Sources(rec.Job)[0] {
			continue
		}
		traces[rec.Job] = append(traces[rec.Job], rec.Release)
	}
	out := make([]envelope.Envelope, len(sys.Jobs))
	for k, tr := range traces {
		if len(tr) == 0 {
			continue
		}
		sort.Slice(tr, func(a, b int) bool { return tr[a] < tr[b] })
		out[k] = envelope.FromTrace(tr, maxGroup)
	}
	return out
}
