package main

import (
	"time"
)

// endToEnd computes the end-to-end metrics from the untraced periods.
// Per-period figures take the median across periods. Advance
// percentiles pool every call of the run, since an intake period has
// only 8. setup_s is the median of every set-up timed. Every timing is
// scaled by calibNominal over calib, the calibration kernel's median
// time in the run (see calib.go); with calib equal to calibNominal the
// metrics are the raw figures.
func endToEnd(ps []*period, setups []time.Duration, calib time.Duration) map[string]metric {
	scale := float64(calibNominal) / float64(calib)
	var bps, settle, alloc, live []float64
	var advs []time.Duration
	for _, p := range ps {
		bps = append(bps, float64(p.accepted)/p.wall.Seconds())
		settle = append(settle, p.settle.Seconds())
		alloc = append(alloc, float64(p.alloc)/1e6)
		live = append(live, float64(p.live)/1e6)
		advs = append(advs, p.advances...)
	}
	a := durationsIn(advs, time.Millisecond)
	return map[string]metric{
		"bids_per_s":     {median(bps) / scale, "1/s"},
		"advance_p50_ms": {quantile(a, 0.50) * scale, "ms"},
		"advance_p95_ms": {quantile(a, 0.95) * scale, "ms"},
		"settle_s":       {median(settle) * scale, "s"},
		"setup_s":        {median(durationsIn(setups, time.Second)) * scale, "s"},
		"alloc_mb":       {median(alloc), "MB"},
		"live_heap_mb":   {median(live), "MB"},
	}
}

// layerUnits lists every per-layer metric with its unit. A workload
// reports 0 for a layer it does not run (the transport's wire counts on
// loopback shards, the engine on tier workloads, the tier on
// astro-derive).
var layerUnits = [][2]string{
	{"resilience.submit_self_us", "us"},
	{"resilience.host_submit_us", "us"},
	{"resilience.journal_write_us", "us"},
	{"resilience.journal_bytes_per_bid", "B"},
	{"resilience.fresh_ratio", "ratio"},
	{"resilience.host_advance_ms", "ms"},
	{"resilience.advance_self_ms", "ms"},
	{"core.advance_p50_ms", "ms"},
	{"core.advance_p95_ms", "ms"},
	{"core.submit_us", "us"},
	{"core.advance_growth", "ratio"},
	{"core.users_ever", "count"},
	{"core.live_users_p50", "count"},
	{"core.grants", "count"},
	{"core.active_grants", "count"},
	{"transport.client_submit_us", "us"},
	{"transport.wire_us", "us"},
	{"transport.bytes_per_bid", "B"},
	{"transport.writes_per_bid", "count"},
	{"transport.dials", "count"},
	{"astro.halo_find_ms", "ms"},
	{"astro.view_build_ms", "ms"},
	{"astro.workload_ms", "ms"},
	{"engine.work_units", "count"},
	{"astro.jobs", "count"},
	{"client.submit_p50_us", "us"},
	{"client.submit_p99_us", "us"},
	{"astro.derive_s", "s"},
	{"runtime.gc_cycles", "count"},
	{"runtime.alloc_per_bid_b", "B"},
	{"trace.overhead", "ratio"},
}

// perLayer assembles the per-layer metrics: the workload's traced
// figures; from the untraced periods of the same run, the client's
// submit latency, the derivation time and the runtime's counts; and the
// tracer's overhead (traced period time over untraced). Submit
// percentiles are taken per period, then the median across periods.
// None of them is scaled by the calibration kernel.
func perLayer(b bench, plain, traced []*period) map[string]metric {
	v := make(map[string]float64)
	b.layers(v)
	var sub50, sub99, derive, gcs, perBid, plainWall, tracedWall []float64
	for _, p := range plain {
		sub50 = append(sub50, p.sub50)
		sub99 = append(sub99, p.sub99)
		derive = append(derive, p.derive.Seconds())
		gcs = append(gcs, float64(p.gcs))
		perBid = append(perBid, float64(p.alloc)/float64(p.accepted))
		plainWall = append(plainWall, p.wall.Seconds())
	}
	for _, p := range traced {
		tracedWall = append(tracedWall, p.wall.Seconds())
	}
	v["client.submit_p50_us"] = median(sub50)
	v["client.submit_p99_us"] = median(sub99)
	v["astro.derive_s"] = median(derive)
	v["runtime.gc_cycles"] = median(gcs)
	v["runtime.alloc_per_bid_b"] = median(perBid)
	v["trace.overhead"] = median(tracedWall) / median(plainWall)
	out := make(map[string]metric, len(layerUnits))
	for _, lu := range layerUnits {
		out[lu[0]] = metric{v[lu[0]], lu[1]}
	}
	return out
}

// coreAgg accumulates the mechanism layer's figures: sharedopt.Service
// calls timed one by one (the tier's replay, or astro-derive's pricing).
type coreAgg struct {
	submits []float64   // µs per Submit*Bid
	bySlot  [][]float64 // ms per AdvanceSlot, by slot
	// grants and activeGrants are Σ NewGrants and Σ Active over one
	// period's slots; usersEver and liveP50 describe its inputs.
	grants, activeGrants, usersEver int
	liveP50                         float64
}

func (c *coreAgg) addAdvance(slot int, d time.Duration) {
	for len(c.bySlot) < slot {
		c.bySlot = append(c.bySlot, nil)
	}
	c.bySlot[slot-1] = append(c.bySlot[slot-1], float64(d)/1e6)
}

// fill writes the core.* metrics. core.advance_growth is the median
// advance over the last quarter of slots divided by the median over the
// first quarter.
func (c *coreAgg) fill(v map[string]float64) {
	var all []float64
	for _, s := range c.bySlot {
		all = append(all, s...)
	}
	q := max(1, len(c.bySlot)/4)
	var first, last []float64
	for i := 0; i < q; i++ {
		first = append(first, c.bySlot[i]...)
		last = append(last, c.bySlot[len(c.bySlot)-1-i]...)
	}
	v["core.advance_p50_ms"] = quantile(all, 0.50)
	v["core.advance_p95_ms"] = quantile(all, 0.95)
	v["core.submit_us"] = median(c.submits)
	if f := median(first); f > 0 {
		v["core.advance_growth"] = median(last) / f
	}
	v["core.users_ever"] = float64(c.usersEver)
	v["core.live_users_p50"] = c.liveP50
	v["core.grants"] = float64(c.grants)
	v["core.active_grants"] = float64(c.activeGrants)
}
