// Command perfbench is the repository benchmark: it follows a bid's life
// through the sharded pricing tier (admission, journal, transport,
// settlement fold, the mechanism's AdvanceSlot, invoice) and through the
// engine that derives astronomy bids from measured query savings.
//
//	go run . --workload churn-additive --seed 1 --seconds 20 --trace 0
//
// It generates the workload's inputs from the seed, measures periods for
// the given number of seconds, checks every period's outputs, and
// prints one JSON object as its last line of output: the end-to-end
// metrics, or with --trace 1 the per-layer metrics of a traced run.
// README.md records why each workload exists and how steady each metric
// is.
package main

import (
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloads names every workload; see README.md for why each exists.
var workloads = []string{"churn-additive", "intake-subst", "astro-derive"}

// bench runs one workload.
type bench interface {
	// setup times one extra set-up, for a steadier setup_s median.
	setup() (time.Duration, error)
	// period runs one checked period, traced when tr is non-nil.
	period(tr *tracer) (*period, error)
	// observe folds a traced period's spans into the layer figures,
	// recording failed checks on p.
	observe(tr *tracer, p *period)
	// layers writes the workload's per-layer metrics.
	layers(v map[string]float64)
}

func main() {
	name := flag.String("workload", "", fmt.Sprintf("workload to run: one of %v", workloads))
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 20, "how long to measure, in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer breakdown instead of the end-to-end metrics")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		os.Exit(2)
	}
	res, err := run(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func run(name string, seed uint64, budget time.Duration, traced bool) (*result, error) {
	var (
		b  bench
		tb *tierBench
	)
	switch name {
	case "churn-additive":
		tb = newTierBench(churnAdditive(seed), false, 1)
	case "intake-subst":
		tb = newTierBench(intakeSubst(seed), false, 1)
		if traced {
			tb.wire = newTierBench(tb.st, true, 2)
		}
	case "astro-derive":
		ab, err := newAstroBench(seed, traced)
		if err != nil {
			return nil, err
		}
		b = ab
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloads)
	}
	if tb != nil {
		if err := tb.prepare(); err != nil {
			return nil, err
		}
		d := tb.st.digest()
		line, err := json.Marshal(map[string]any{
			"workload": name, "seed": seed, "stream": tb.st.measure(), "digest": hex.EncodeToString(d[:]),
		})
		if err != nil {
			return nil, err
		}
		fmt.Println(string(line))
		b = tb
	}

	var setups, calib []time.Duration
	var plain, withTrace []*period
	var last *tracer
	deadline := time.Now().Add(budget)
	for i := 0; ; i++ {
		var tr *tracer
		if traced && i%2 == 1 {
			tr = newTracer()
		}
		if !traced {
			// Extra set-ups are timed before every period rather than
			// all at once: the host's speed drifts within seconds, and
			// the median should see the same mix of fast and slow
			// stretches as the periods do.
			t := time.Now()
			for n := 0; n < setupsPerPeriod && (n == 0 || time.Since(t) < setupBudget); n++ {
				d, err := b.setup()
				if err != nil {
					return nil, fmt.Errorf("set-up: %w", err)
				}
				setups = append(setups, d)
			}
		}
		p, err := b.period(tr)
		if err != nil {
			return nil, err
		}
		if tr == nil {
			plain = append(plain, p)
			setups = append(setups, p.setup)
			if !traced {
				calib = append(calib, calibrate(p.wall)...)
			}
		} else {
			b.observe(tr, p)
			withTrace = append(withTrace, p)
			last = tr
		}
		for _, c := range p.checks {
			fmt.Fprintln(os.Stderr, "perfbench: check failed:", c)
		}
		if time.Now().After(deadline) && (!traced || len(withTrace) > 0) {
			break
		}
	}

	res := &result{Correct: true}
	for _, p := range append(plain, withTrace...) {
		res.Attempted += int64(p.attempted)
		res.Failed += int64(p.failed)
		if len(p.checks) > 0 {
			res.Correct = false
		}
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	if !traced {
		// The raw figures go on a line of their own before the result.
		c := time.Duration(median(durationsIn(calib, 1)))
		line, err := json.Marshal(map[string]any{
			"calibration_ms": float64(c) / 1e6, "calibration_runs": len(calib),
			"raw": endToEnd(plain, setups, calibNominal),
		})
		if err != nil {
			return nil, err
		}
		fmt.Println(string(line))
		res.Metrics = endToEnd(plain, setups, c)
		return res, nil
	}
	res.Metrics = perLayer(b, plain, withTrace)
	path := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.csv", name, seed))
	if err := writeSpans(path, last.spans); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	return res, nil
}

// Before each untraced period a run times up to setupsPerPeriod extra
// set-ups, stopping early once setupBudget is spent: a loopback tier
// builds in tens of microseconds, a universe in tens of milliseconds.
const (
	setupsPerPeriod = 50
	setupBudget     = 10 * time.Millisecond
)
