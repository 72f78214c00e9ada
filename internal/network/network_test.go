package network

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"rta/internal/analysis"
	"rta/internal/envelope"
	"rta/internal/model"
	"rta/internal/sim"
)

// tandem builds a two-link tandem with a voice flow (high priority,
// periodic) and a data flow (low priority, bursty) sharing the first link.
func tandem() *Net {
	voiceEnv := envelope.Periodic(100, 6)
	dataEnv := envelope.LeakyBucket(4, 150, 8)
	return &Net{
		Links: []Link{
			{Name: "A->B", Sched: model.SPNP, BytesPerTick: 10, Propagation: 5},
			{Name: "B->C", Sched: model.SPNP, BytesPerTick: 10, Propagation: 5},
			{Name: "A->D", Sched: model.SPNP, BytesPerTick: 5},
		},
		Flows: []Flow{
			{Name: "voice", Path: []string{"A->B", "B->C"}, PacketBytes: 53,
				Priority: 0, Deadline: 200, Envelope: &voiceEnv, Packets: 10},
			{Name: "data", Path: []string{"A->B", "A->D"}, PacketBytes: 530,
				Priority: 2, Deadline: 2000, Envelope: &dataEnv, Packets: 12},
		},
	}
}

func TestBuildShape(t *testing.T) {
	sys, err := tandem().Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.Procs) != 3 || len(sys.Jobs) != 2 {
		t.Fatalf("shape: %d procs, %d jobs", len(sys.Procs), len(sys.Jobs))
	}
	// Voice: 53 bytes at 10 B/tick -> 6 ticks per link; propagation 5
	// between hops, none after the last.
	v := sys.Jobs[0]
	if v.Subjobs[0].Exec != 6 || v.Subjobs[1].Exec != 6 {
		t.Fatalf("voice exec = %d,%d; want 6,6", v.Subjobs[0].Exec, v.Subjobs[1].Exec)
	}
	if v.Subjobs[0].PostDelay != 5 || v.Subjobs[1].PostDelay != 0 {
		t.Fatalf("voice delays = %d,%d; want 5,0", v.Subjobs[0].PostDelay, v.Subjobs[1].PostDelay)
	}
	// Data: 530 bytes -> 53 ticks on A->B, 106 on the slow A->D link.
	d := sys.Jobs[1]
	if d.Subjobs[0].Exec != 53 || d.Subjobs[1].Exec != 106 {
		t.Fatalf("data exec = %d,%d; want 53,106", d.Subjobs[0].Exec, d.Subjobs[1].Exec)
	}
	// Envelope-driven releases: the leaky bucket bursts 4 packets at 0.
	if d.Releases[3] != 0 || d.Releases[4] == 0 {
		t.Fatalf("data releases = %v; want burst of 4 at zero", d.Releases)
	}
}

func TestEndToEndBoundsDominateSimulation(t *testing.T) {
	sys, err := tandem().Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := analysis.Analyze(sys)
	if err != nil {
		t.Fatal(err)
	}
	got := sim.Run(sys)
	for k := range sys.Jobs {
		if w := got.WorstResponse(k); res.WCRT[k] < w {
			t.Fatalf("flow %s: bound %d below simulated %d", sys.JobName(k), res.WCRT[k], w)
		}
	}
	// Voice sees at most one blocking data packet per link (SPNP): its
	// end-to-end bound stays within transmission+propagation+blocking.
	// 2 links x (6 own + 53 blocking) + 5 propagation = 123 plus possible
	// queueing behind its own earlier packets.
	if res.WCRTSum[0] > 200 {
		t.Fatalf("voice bound %d implausibly loose", res.WCRTSum[0])
	}
}

// TestIsolatedFlowExactLatency: a single flow on idle links has latency
// = sum of transmissions + propagations, exactly.
func TestIsolatedFlowExactLatency(t *testing.T) {
	n := &Net{
		Links: []Link{
			{Name: "l1", Sched: model.SPP, BytesPerTick: 10, Propagation: 7},
			{Name: "l2", Sched: model.SPP, BytesPerTick: 20, Propagation: 3},
			{Name: "l3", Sched: model.SPP, BytesPerTick: 5},
		},
		Flows: []Flow{{
			Name: "f", Path: []string{"l1", "l2", "l3"}, PacketBytes: 100,
			Priority: 0, Deadline: 1000, Releases: []model.Ticks{0, 500},
		}},
	}
	sys, err := n.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := analysis.Analyze(sys)
	if err != nil {
		t.Fatal(err)
	}
	// 10 + 7 + 5 + 3 + 20 = 45.
	if res.WCRT[0] != 45 {
		t.Fatalf("latency = %d, want 45", res.WCRT[0])
	}
	if got := sim.Run(sys); got.WorstResponse(0) != 45 {
		t.Fatalf("simulated = %d, want 45", got.WorstResponse(0))
	}
}

func TestBuildErrors(t *testing.T) {
	base := tandem()
	cases := []struct {
		mutate func(*Net)
		want   string
	}{
		{func(n *Net) { n.Links[1].Name = "A->B" }, "duplicate link"},
		{func(n *Net) { n.Links[0].BytesPerTick = 0 }, "non-positive rate"},
		{func(n *Net) { n.Links[0].Propagation = -1 }, "negative propagation"},
		{func(n *Net) { n.Flows[0].Path = nil }, "empty path"},
		{func(n *Net) { n.Flows[0].Path = []string{"nope"} }, "unknown link"},
		{func(n *Net) { n.Flows[0].Path = []string{"A->B", "A->B"} }, "revisits"},
		{func(n *Net) { n.Flows[0].PacketBytes = 0 }, "non-positive packet size"},
		{func(n *Net) { n.Flows[0].Releases = []model.Ticks{0} }, "both Releases and Envelope"},
		{func(n *Net) { n.Flows[0].Envelope = nil }, "neither Releases nor Envelope"},
		{func(n *Net) { n.Flows[0].Packets = 0 }, "needs Packets"},
	}
	for i, tc := range cases {
		n := tandem()
		tc.mutate(n)
		_, err := n.Build()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("case %d: err = %v, want containing %q", i, err, tc.want)
		}
	}
	_ = base
}

// TestJSONRoundTrip: the JSON document describing the tandem fixture
// loads back into exactly that network.
func TestJSONRoundTrip(t *testing.T) {
	n := tandem()
	gaps := func(f int) string {
		b, err := json.Marshal(n.Flows[f].Envelope.MinGap)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	doc := `{"links": [
		{"name": "A->B", "scheduler": "SPNP", "bytesPerTick": 10, "propagation": 5},
		{"name": "B->C", "scheduler": "SPNP", "bytesPerTick": 10, "propagation": 5},
		{"name": "A->D", "scheduler": "SPNP", "bytesPerTick": 5}],
	"flows": [
		{"name": "voice", "path": ["A->B", "B->C"], "packetBytes": 53, "deadline": 200,
		 "envelope": {"minGaps": ` + gaps(0) + `}, "packets": 10},
		{"name": "data", "path": ["A->B", "A->D"], "packetBytes": 530, "priority": 2,
		 "deadline": 2000, "envelope": {"minGaps": ` + gaps(1) + `}, "packets": 12}]}`
	got, err := Load(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, n) {
		t.Fatalf("loaded network %+v, want %+v", got, n)
	}
	if len(got.Links) != 3 || got.Links[0].BytesPerTick != 10 || got.Links[0].Propagation != 5 {
		t.Fatalf("links mangled: %+v", got.Links)
	}
	if len(got.Flows) != 2 || got.Flows[0].Envelope == nil || got.Flows[0].Packets != 10 {
		t.Fatalf("flows mangled: %+v", got.Flows)
	}
	// The rebuilt network must produce the identical system.
	a, err := n.Build()
	if err != nil {
		t.Fatal(err)
	}
	b, err := got.Build()
	if err != nil {
		t.Fatal(err)
	}
	for k := range a.Jobs {
		if len(a.Jobs[k].Releases) != len(b.Jobs[k].Releases) {
			t.Fatalf("flow %d releases differ after round trip", k)
		}
		for i := range a.Jobs[k].Releases {
			if a.Jobs[k].Releases[i] != b.Jobs[k].Releases[i] {
				t.Fatalf("flow %d release %d differs", k, i)
			}
		}
	}
}

func TestLoadRejectsBadEnvelope(t *testing.T) {
	_, err := Load(strings.NewReader(`{"links":[{"name":"l","scheduler":"SPNP","bytesPerTick":1}],
		"flows":[{"name":"f","path":["l"],"packetBytes":1,"deadline":10,
		"envelope":{"minGaps":[5,3]},"packets":2}]}`))
	if err == nil {
		t.Fatal("non-monotone envelope accepted")
	}
}
