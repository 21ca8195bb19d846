package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"runtime"
	"time"

	"sharedopt"
	"sharedopt/internal/astro"
	"sharedopt/internal/engine"
	"sharedopt/internal/simulate"
	"sharedopt/internal/stats"
	"sharedopt/internal/workload"
)

// astroBench is the §7.2 use-case with engine-derived bids: generate a
// universe (set-up), measure every astronomer's per-view savings on the
// metered engine, derive per-view bids from them, and price the bids
// of many seeded subscription choices through sharedopt.Service.
type astroBench struct {
	cfg        astro.Config
	linkLen    float64
	minMembers int
	// workers is MeasureSavingsParallel's worker count: GOMAXPROCS,
	// or 1 in the traced run so untraced periods compare with the
	// serial traced replication.
	workers int
	choices [][workload.AstroUsers]workload.QuarterSpan
	// wantTable is the savings-table digest of a serial measurement;
	// wantPrices is the first period's pricing digest.
	wantTable  [32]byte
	wantPrices [32]byte
	lay        astroLayers
	core       coreAgg
}

// astroLayers accumulates the engine layer's traced figures.
type astroLayers struct {
	haloFind, viewBuild, workloadRun []float64 // ms per call
	workUnits, jobs                  int64     // per traced period
}

const (
	astroChoices    = 500 // seeded subscription choices priced per period
	astroExecutions = 40  // workload executions a bid's value covers
	astroAnchor     = 18  // cents: user 0's final-view saving, as in the paper
	astroHalosPer   = 2   // tracked halos per astronomer
)

func newAstroBench(seed uint64, traced bool) (*astroBench, error) {
	cfg := astro.DefaultConfig()
	cfg.Particles = 2000
	cfg.Seed = seed
	b := &astroBench{cfg: cfg, linkLen: 2.5, minMembers: 5, workers: runtime.GOMAXPROCS(0)}
	if traced {
		b.workers = 1
	}
	r := stats.NewRNG(seed)
	spans := workload.AllQuarterSpans(workload.AstroQuarters)
	for i := 0; i < astroChoices; i++ {
		var c [workload.AstroUsers]workload.QuarterSpan
		for u := range c {
			c[u] = spans[r.Intn(len(spans))]
		}
		b.choices = append(b.choices, c)
	}
	// The reference table comes from the serial measurement, so every
	// period's parallel measurement is checked against it.
	u, err := astro.Generate(cfg)
	if err != nil {
		return nil, err
	}
	users, err := astro.DefaultUsers(astro.NewTracker(u, b.linkLen, b.minMembers), astroHalosPer)
	if err != nil {
		return nil, err
	}
	rep, err := astro.MeasureSavingsParallel(u, users, b.linkLen, b.minMembers, engine.DefaultCostModel(), 1)
	if err != nil {
		return nil, err
	}
	cents, err := rep.DeriveSavingsCents(astroAnchor)
	if err != nil {
		return nil, err
	}
	b.wantTable = tableDigest(cents)
	// Every astronomer bids in every choice; live users per quarter
	// are those whose subscription covers it.
	b.core.usersEver = workload.AstroUsers
	var live []float64
	for _, c := range b.choices {
		for q := 1; q <= workload.AstroQuarters; q++ {
			n := 0
			for _, sp := range c {
				if sp.Start <= q && q < sp.Start+sp.Len {
					n++
				}
			}
			live = append(live, float64(n))
		}
	}
	b.core.liveP50 = median(live)
	return b, nil
}

// setup is one timed universe generation.
func (b *astroBench) setup() (time.Duration, error) {
	t := time.Now()
	_, err := astro.Generate(b.cfg)
	return time.Since(t), err
}

func (b *astroBench) period(tr *tracer) (*period, error) {
	p := &period{}
	t0 := time.Now()
	u, err := astro.Generate(b.cfg)
	if err != nil {
		return nil, err
	}
	p.setup = time.Since(t0)

	if tr != nil {
		b.core.grants, b.core.activeGrants = 0, 0
	}
	m0 := memAfterGC()
	start := time.Now()
	users, err := astro.DefaultUsers(astro.NewTracker(u, b.linkLen, b.minMembers), astroHalosPer)
	if err != nil {
		return nil, err
	}
	var rep *astro.SavingsReport
	if tr == nil {
		rep, err = astro.MeasureSavingsParallel(u, users, b.linkLen, b.minMembers, engine.DefaultCostModel(), b.workers)
	} else {
		rep, err = b.measureTraced(u, users, tr)
	}
	if err != nil {
		return nil, err
	}
	cents, err := rep.DeriveSavingsCents(astroAnchor)
	if err != nil {
		return nil, err
	}
	scenarios := make([]simulate.AdditiveScenario, len(b.choices))
	for i, c := range b.choices {
		scenarios[i] = workload.AstronomyDerived(cents, c, astroExecutions, workload.AstroViewCost)
		p.accepted += len(scenarios[i].Bids)
	}
	p.derive = time.Since(start)
	p.attempted += len(users) * (1 + len(u.Tables))
	submits := make([]time.Duration, 0, p.accepted)

	prices := sha256.New()
	for _, sc := range scenarios {
		o, err := b.price(sc, p, &submits, tr)
		if err != nil {
			return nil, err
		}
		prices.Write(o[:])
	}
	p.wall = time.Since(start)
	m1 := readMem()
	p.alloc = m1.TotalAlloc - m0.TotalAlloc
	p.gcs = m1.NumGC - m0.NumGC
	p.submitLatency(submits)

	if got := tableDigest(cents); got != b.wantTable {
		p.check("savings table digest %x, want %x", got[:8], b.wantTable[:8])
	}
	var got [32]byte
	copy(got[:], prices.Sum(nil))
	if b.wantPrices == ([32]byte{}) {
		b.wantPrices = got
	} else if got != b.wantPrices {
		p.check("pricing digest %x differs from the first period's %x", got[:8], b.wantPrices[:8])
	}
	if tr != nil {
		if err := b.probeHaloFinder(u, tr); err != nil {
			return nil, err
		}
	}
	p.finishHeap(memAfterGC().HeapAlloc, func() { u, rep, scenarios = nil, nil, nil })
	return p, nil
}

// price runs one scenario through a fresh Service: submit every bid,
// advance every quarter (the last advance closes the period), then
// ClosePeriod, and checks cost recovery.
func (b *astroBench) price(sc simulate.AdditiveScenario, p *period, submits *[]time.Duration, tr *tracer) (outcome, error) {
	svc, err := sharedopt.NewAdditiveService(sc.Opts, sc.Horizon)
	if err != nil {
		return outcome{}, err
	}
	for k, bid := range sc.Bids {
		ts := tr.start()
		t := time.Now()
		err := svc.SubmitAdditiveBid(bid.Opt, sharedopt.OnlineBid{User: bid.User, Start: bid.Start, End: bid.End, Values: bid.Values})
		*submits = append(*submits, time.Since(t))
		tr.record(coreSubmit, int64(k), 0, ts)
		p.attempted++
		if err != nil {
			p.failed++
			reportFailure("submit", err)
		}
	}
	for s := sharedopt.Slot(1); s <= sc.Horizon; s++ {
		ts := tr.start()
		t := time.Now()
		rep, err := svc.AdvanceSlot()
		d := time.Since(t)
		tr.record(coreAdvance, int64(s), 0, ts)
		if tr != nil {
			b.core.grants += len(rep.NewGrants)
			b.core.activeGrants += len(rep.Active)
		}
		p.advances = append(p.advances, d)
		p.settle += d
		p.attempted++
		if err != nil {
			p.failed++
			reportFailure("advance", err)
		}
	}
	t := time.Now()
	_, err = svc.ClosePeriod()
	p.settle += time.Since(t)
	p.attempted++
	if err != nil {
		p.failed++
		reportFailure("close", err)
	}
	if s := svc.Surplus(); s < 0 {
		p.check("astronomy pricing surplus %v < 0", s)
	}
	return outcomeOf(svc.Invoices(), svc.Revenue(), svc.CostIncurred(), svc.ImplementedOpts()), nil
}

// measureTraced is MeasureSavingsParallel's serial loop rebuilt from
// Tracker calls, one span per MaterializeView and RunWorkload: job 0 of
// each user is the no-view baseline, job s measures the view on
// snapshot s alone.
func (b *astroBench) measureTraced(u *astro.Universe, users []astro.UserSpec, tr *tracer) (*astro.SavingsReport, error) {
	model := engine.DefaultCostModel()
	trk := astro.NewTracker(u, b.linkLen, b.minMembers)
	perUser := 1 + len(u.Tables)
	units := make([]int64, len(users)*perUser)
	var work int64
	for job := range units {
		spec, s := users[job/perUser], job%perUser
		if s > 0 {
			build := engine.NewMeter(model)
			ts := tr.start()
			_, err := trk.MaterializeView(s, build)
			tr.record(viewBuild, int64(s), 0, ts)
			if err != nil {
				return nil, err
			}
			work += build.WorkUnits()
		}
		meter := engine.NewMeter(model)
		ts := tr.start()
		err := trk.RunWorkload(spec, meter)
		tr.record(workloadRun, int64(job), 0, ts)
		if s > 0 {
			trk.DropView(s)
		}
		if err != nil {
			return nil, fmt.Errorf("astro job %d: %w", job, err)
		}
		units[job] = meter.WorkUnits()
		work += units[job]
	}
	b.lay.workUnits = work
	b.lay.jobs = int64(len(units))
	rep := &astro.SavingsReport{Users: users, Model: model}
	for ui := range users {
		base := units[ui*perUser]
		rep.BaselineUnits = append(rep.BaselineUnits, base)
		row := make([]int64, len(u.Tables))
		for s := range row {
			row[s] = base - units[ui*perUser+s+1]
		}
		rep.SavingUnits = append(rep.SavingUnits, row)
	}
	return rep, nil
}

// probeHaloFinder clusters every snapshot once with a fresh HaloFinder,
// one span per Find; the tracker's own clustering is hidden behind its
// assignment cache.
func (b *astroBench) probeHaloFinder(u *astro.Universe, tr *tracer) error {
	f := astro.NewHaloFinder(b.linkLen, b.minMembers)
	for s, tbl := range u.Tables {
		ts := tr.start()
		_, err := f.Find(tbl, engine.NewMeter(engine.DefaultCostModel()))
		tr.record(haloFind, int64(s+1), 0, ts)
		if err != nil {
			return err
		}
	}
	return nil
}

// observe folds a traced period's spans into the engine and mechanism
// figures.
func (b *astroBench) observe(tr *tracer, _ *period) {
	for _, s := range tr.spans {
		ms := float64(s.dur()) / 1e6
		switch s.name {
		case haloFind:
			b.lay.haloFind = append(b.lay.haloFind, ms)
		case viewBuild:
			b.lay.viewBuild = append(b.lay.viewBuild, ms)
		case workloadRun:
			b.lay.workloadRun = append(b.lay.workloadRun, ms)
		case coreSubmit:
			b.core.submits = append(b.core.submits, float64(s.dur())/1e3)
		case coreAdvance:
			b.core.addAdvance(int(s.key), time.Duration(s.dur()))
		}
	}
}

// layers writes the engine's and the mechanism's per-layer metrics.
func (b *astroBench) layers(v map[string]float64) {
	v["astro.halo_find_ms"] = median(b.lay.haloFind)
	v["astro.view_build_ms"] = median(b.lay.viewBuild)
	v["astro.workload_ms"] = median(b.lay.workloadRun)
	v["engine.work_units"] = float64(b.lay.workUnits)
	v["astro.jobs"] = float64(b.lay.jobs)
	b.core.fill(v)
}

// tableDigest is a SHA-256 over a savings table in row order.
func tableDigest(cents [][]int64) [32]byte {
	var buf []byte
	for _, row := range cents {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(row)))
		for _, c := range row {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(c))
		}
	}
	return sha256.Sum256(buf)
}
