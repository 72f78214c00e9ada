package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"time"

	"rta/internal/experiments"
	"rta/internal/stats"
	"rta/internal/workload"
)

const (
	// figureSets is the number of job sets per utilization point of the
	// timed sweep (the paper uses 1000; this is sized to the run length).
	figureSets = 10
	// paperSets is the paper's number of sets per utilization point; the
	// latency sample draws from that many.
	paperSets = 1000
	// latencyDrawsPerSecond sizes the per-draw latency sample: this many
	// draws per second of --seconds.
	latencyDrawsPerSecond = 80
)

// figureDigests are the SHA-256 digests of the Figure 3 and Figure 4
// CSVs the timed sweep writes for the committed seeds; they equal
// `rta-jobshop -figure 3|4 -sets 10 -seed N -workers 1 -csv`.
var figureDigests = map[int64][2]string{
	1: {"dd2a1f03216fa14131313e5821489333a42776c3723fb1d471fa5db336b14492", "26158339481325f0c73f8ff0516b2a88b19a81b6b8d25e3191a454f587e345b0"},
	2: {"954a7c4f914fdbeb830325a3b434af700db9543cd404333b2e4cd47e20bfceac", "e28996093f33a51164409985f0506c9dc011b2fece904e4cc7a55a3c9df6d193"},
}

// methodOrder lists the analysis methods in the order a draw is analyzed.
var methodOrder = []experiments.Method{experiments.SPPExact, experiments.SunLiu, experiments.SPNPApp, experiments.FCFSApp}

// figure runs Figure 3 (i = 0) or Figure 4 (i = 1) with every panel, the
// default utilization grid and one worker.
func figure(i int, seed int64, sets int) ([]experiments.Panel, error) {
	opts := experiments.Options{Seed: seed, Sets: sets, Utilizations: experiments.DefaultUtilizations(), Workers: 1}
	if i == 0 {
		return experiments.Figure3(workload.Default, experiments.Figure3Stages, experiments.Figure3DeadlineFactors, opts)
	}
	base := workload.Default
	base.Stages = 4 // Figure 4's shop, as rta-jobshop builds it
	return experiments.Figure4(base, experiments.Figure4Means, experiments.Figure4Scales, opts)
}

// sweep runs Figure 3 then Figure 4.
func sweep(seed int64, sets int) ([2][]experiments.Panel, error) {
	var figs [2][]experiments.Panel
	for i := range figs {
		var err error
		if figs[i], err = figure(i, seed, sets); err != nil {
			return figs, err
		}
	}
	return figs, nil
}

// drawRef names one draw of the sweep: a panel's configuration at one
// utilization point, and the set index that keys its random stream.
type drawRef struct {
	cfg     workload.Config
	methods []experiments.Method
	ui, set int
}

// generate draws the job shop exactly as the sweep does.
func (d drawRef) generate(seed int64) (*workload.Draw, error) {
	return workload.Generate(stats.NewRand(seed, int64(d.ui)*1_000_003+int64(d.set)), d.cfg)
}

// drawSample returns about n distinct draws of the paper-sized sweep
// (every panel and utilization point, paperSets sets each), in a seeded
// order. The sample is stratified: every (panel, point) cell gets the same
// number of draws, with seeded set indices. A draw's cost grows steeply
// with its panel's shop and its utilization, and drawing cells at random
// moved the latency sample's tail by more between seeds than the machine
// does between runs. Sets beyond the timed sweep's keep the sample's
// random streams independent: the sweep reuses one stream per (point,
// set) across all twelve panels.
func drawSample(seed int64, panels []experiments.Panel, n int) []drawRef {
	type panelMethods struct {
		p  experiments.Panel
		ms []experiments.Method
	}
	var ps []panelMethods
	for _, p := range panels {
		var ms []experiments.Method
		for _, m := range methodOrder {
			if _, ok := p.Points[0].Admission[m]; ok {
				ms = append(ms, m)
			}
		}
		ps = append(ps, panelMethods{p, ms})
	}
	rng := rand.New(rand.NewSource(seed))
	points := len(ps[0].p.Points)
	perCell := max(1, n/(len(ps)*points))
	var out []drawRef
	for _, pm := range ps {
		for ui, pt := range pm.p.Points {
			cfg := pm.p.Config
			cfg.Utilization = pt.Utilization
			for _, set := range rng.Perm(paperSets)[:perCell] {
				out = append(out, drawRef{cfg: cfg, methods: pm.ms, ui: ui, set: set})
			}
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// checkFigures is the sweep's oracle: the CSVs must match the committed
// digests for the committed seeds, and at every point of every seed the
// exact analysis must admit at least as often as Sun & Liu's.
func checkFigures(seed int64, figs [2][]experiments.Panel, tl *tally) {
	if want, ok := figureDigests[seed]; ok {
		for i, fig := range figs {
			var csv bytes.Buffer
			experiments.RenderCSV(&csv, fig)
			tl.attempted++
			sum := sha256.Sum256(csv.Bytes())
			if got := hex.EncodeToString(sum[:]); got != want[i] {
				tl.fail("figure %d CSV digest %s, want %s", i+3, got, want[i])
			}
		}
	}
	for _, p := range figs[0] {
		for _, pt := range p.Points {
			tl.attempted++
			if ex, sl := pt.Admission[experiments.SPPExact], pt.Admission[experiments.SunLiu]; ex.Successes < sl.Successes {
				tl.fail("%s utilization %.2f: SPP/Exact admits %d, SPP/S&L %d", p.Name, pt.Utilization, ex.Successes, sl.Successes)
			}
		}
	}
}

func runFigures(cfg runConfig) (*result, error) {
	res := newResult()
	tl := &res.tl
	// Set-up is a one-set-per-point pass over both figures: it pays the
	// first-use costs before the timed sweep and is what a user waits for
	// to see a first table.
	setup := func() (time.Duration, error) {
		t0 := time.Now()
		_, err := sweep(cfg.seed, 1)
		return time.Since(t0), err
	}
	setups, err := timeSetup(setup)
	if err != nil {
		return nil, err
	}
	configs, err := sweep(cfg.seed, 0) // panel configurations only
	if err != nil {
		return nil, err
	}
	sample := drawSample(cfg.seed, append(configs[0], configs[1]...), latencyDrawsPerSecond*cfg.seconds)

	// The timed sweep runs one figure at a time, each followed by half the
	// latency sample, so the capacity reading samples the machine at two
	// moments of the run instead of one.
	var figs [2][]experiments.Panel
	var elapsed time.Duration
	var dec, qry []float64
	verdicts := 0
	for i := range figs {
		t0 := time.Now()
		if figs[i], err = figure(i, cfg.seed, figureSets); err != nil {
			return nil, err
		}
		elapsed += time.Since(t0)
		half := sample[i*len(sample)/2 : (i+1)*len(sample)/2]
		verdicts += decideSample(cfg.seed, half, &dec, &qry, tl)
	}
	draws, grants := 0, 0
	for _, fig := range figs {
		for _, p := range fig {
			for _, pt := range p.Points {
				// Every method analyzes every draw of the point.
				draws += pt.Admission[experiments.SPPExact].Trials
				for _, pr := range pt.Admission {
					grants += pr.Successes
				}
			}
		}
	}
	tl.attempted += draws
	res.metrics["capacity_ops_per_s"] = float64(draws) / elapsed.Seconds()
	res.samples["capacity"] = draws
	checkFigures(cfg.seed, figs, tl)
	if err := res.latencies([][]float64{dec}, [][]float64{qry}, cfg.tail); err != nil {
		return nil, err
	}
	more, err := timeSetup(setup)
	if err != nil {
		return nil, err
	}
	res.metrics["setup_s"] = median(append(setups, more...))
	res.info["sweep.draws"] = float64(draws)
	res.info["sweep.admissions"] = float64(grants)
	res.info["sample.admissions"] = float64(verdicts)
	return res, nil
}

// decideSample generates each sampled draw and decides it with every
// method again, one call at a time, appending the latencies: a decision
// is the whole draw, a query one method's bound computation and verdict.
// It returns the number of admitting verdicts.
func decideSample(seed int64, sample []drawRef, dec, qry *[]float64, tl *tally) int {
	verdicts := 0
	for _, d := range sample {
		tl.attempted++
		start := time.Now()
		draw, err := d.generate(seed)
		if err != nil {
			tl.fail("%s: %v", d, err)
			continue
		}
		ok := map[experiments.Method]bool{}
		for _, m := range d.methods {
			q := time.Now()
			v, err := experiments.Admit(draw, []experiments.Method{m})
			*qry = append(*qry, ms(time.Since(q)))
			if err != nil {
				tl.fail("%s %s: %v", d, m, err)
				continue
			}
			ok[m] = v[m]
			if v[m] {
				verdicts++
			}
		}
		*dec = append(*dec, ms(time.Since(start)))
		if ok[experiments.SunLiu] && !ok[experiments.SPPExact] {
			tl.fail("%s: SPP/S&L admits a draw SPP/Exact rejects", d)
		}
	}
	return verdicts
}

// String identifies a draw in failure notes.
func (d drawRef) String() string {
	return fmt.Sprintf("utilization %.2f set %d", d.cfg.Utilization, d.set)
}
