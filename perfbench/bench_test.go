package main

import (
	"math"
	"testing"
	"time"

	"sharedopt/internal/core"
	"sharedopt/internal/econ"
)

func TestStreamsAreDeterministic(t *testing.T) {
	for name, gen := range map[string]func(uint64) *stream{
		"churn-additive": churnAdditive,
		"intake-subst":   intakeSubst,
	} {
		a, b, c := gen(7).digest(), gen(7).digest(), gen(8).digest()
		if a != b {
			t.Errorf("%s: seed 7 gave two different streams", name)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", name)
		}
	}
}

func TestIntakeStreamShares(t *testing.T) {
	pr := intakeSubst(1).measure()
	if pr.DuplicateShare < 0.04 || pr.DuplicateShare > 0.06 {
		t.Errorf("duplicate share %.3f, want about 0.05", pr.DuplicateShare)
	}
	if pr.RevisionShare < 0.09 || pr.RevisionShare > 0.11 {
		t.Errorf("revision share %.3f, want about 0.10", pr.RevisionShare)
	}
	if pr.Accepted+int(pr.DuplicateShare*float64(pr.Submissions)+0.5) != pr.Submissions {
		t.Errorf("accepted %d + duplicates != submissions %d", pr.Accepted, pr.Submissions)
	}
}

// TestEndToEndScalesOnlyTimings checks the calibration scaling: on a host
// where the kernel takes twice calibNominal, timings halve, bids_per_s
// doubles and the memory figures are left as measured.
func TestEndToEndScalesOnlyTimings(t *testing.T) {
	ps := []*period{{
		wall: time.Second, settle: 400 * time.Millisecond, accepted: 1000, alloc: 5e6, live: 2e6,
		advances: []time.Duration{10 * time.Millisecond, 30 * time.Millisecond},
	}}
	setups := []time.Duration{2 * time.Millisecond}
	raw := endToEnd(ps, setups, calibNominal)
	if raw["bids_per_s"].Value != 1000 || raw["settle_s"].Value != 0.4 || raw["alloc_mb"].Value != 5 {
		t.Fatalf("unscaled metrics %v", raw)
	}
	got := endToEnd(ps, setups, 2*calibNominal)
	for name, m := range raw {
		want := m.Value
		switch name {
		case "bids_per_s":
			want *= 2
		case "alloc_mb", "live_heap_mb":
		default:
			want /= 2
		}
		if math.Abs(got[name].Value-want) > 1e-9*want {
			t.Errorf("%s = %v on a host at half speed, want %v", name, got[name].Value, want)
		}
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []span{
		{name: tierSubmit, parent: -1, start: 0, end: 100},
		{name: linkSubmit, parent: 0, start: 10, end: 30},
		{name: linkSubmit, parent: 0, start: 20, end: 50},  // overlaps the first child
		{name: linkSubmit, parent: 0, start: 90, end: 120}, // runs past its parent
		{name: hostSubmit, parent: 1, start: 12, end: 18},  // a grandchild of 0
	}
	got := selfTimes(spans)
	want := []int64{100 - 40 - 10, 20 - 6, 30, 30, 6}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d: self time %d, want %d", i, got[i], want[i])
		}
	}
}

func TestLinkFollowsTheLayers(t *testing.T) {
	spans := []span{
		{name: tierSubmit, key: 4, start: 0, end: 100},
		{name: linkSubmit, key: 4, aux: 1, start: 5, end: 95},
		{name: hostSubmit, key: 4, aux: shardSeq(1, 9), start: 10, end: 90},
		{name: journalWrite, key: -1, aux: shardSeq(1, 9), start: 20, end: 30},
		{name: tierAdvance, key: 1, start: 200, end: 300},
		{name: linkAdvance, key: 1, aux: 1, start: 210, end: 290},
		{name: hostAdvance, key: 1, aux: 1, start: 220, end: 280},
		{name: journalWrite, key: -1, aux: shardSeq(1, 10), start: 230, end: 240},
	}
	link(spans)
	wantParent := []int32{-1, 0, 1, 2, -1, 4, 5, 6}
	for i, s := range spans {
		if s.parent != wantParent[i] {
			t.Errorf("span %d (%s): parent %d, want %d", i, s.name, s.parent, wantParent[i])
		}
	}
	if spans[3].key != 4 {
		t.Errorf("journal write inherited key %d, want the bid's 4", spans[3].key)
	}
}

func TestFrameSeq(t *testing.T) {
	if got := frameSeq([]byte(`0badf00d {"seq":1234,"kind":"abid"}` + "\n")); got != 1234 {
		t.Errorf("frameSeq = %d, want 1234", got)
	}
	if got := frameSeq([]byte("short")); got != 0 {
		t.Errorf("frameSeq of a short frame = %d, want 0", got)
	}
}

// TestTierPeriodChecks runs an untraced loopback period and a traced
// one, which is followed by a traced TCP period; all must settle like
// the plain-Service replay. Then it shows the settlement check fails
// once one invoice is off by a micro-dollar.
func TestTierPeriodChecks(t *testing.T) {
	st := intakeSubst(3)
	b := newTierBench(st, false, 1)
	b.wire = newTierBench(st, true, 2)
	if err := b.prepare(); err != nil {
		t.Fatal(err)
	}
	p, err := b.period(nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	traced, err := b.period(tr)
	if err != nil {
		t.Fatal(err)
	}
	b.observe(tr, traced)
	for _, q := range []*period{p, traced} {
		if len(q.checks) > 0 || q.failed > 0 {
			t.Fatalf("period failed: %v (%d failed operations)", q.checks, q.failed)
		}
	}
	if b.wire.lay.periods != 1 || b.wire.lay.seams.dials == 0 {
		t.Fatalf("no traced TCP period ran: %+v", b.wire.lay.seams)
	}

	svc, err := newService(st.game, st.opts, st.horizon)
	if err != nil {
		t.Fatal(err)
	}
	for _, win := range st.windows {
		for _, s := range win {
			if s.kind == duplicate {
				continue
			}
			if err := submitTo(svc, s); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := svc.AdvanceSlot(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := svc.ClosePeriod(); err != nil {
		t.Fatal(err)
	}
	inv := svc.Invoices()
	if got := outcomeOf(inv, svc.Revenue(), svc.CostIncurred(), svc.ImplementedOpts()); got != b.want {
		t.Fatalf("stream-order replay settled to %s, want %s", got, b.want)
	}
	var some core.UserID
	for u := range inv {
		some = u
		break
	}
	inv[some] += econ.Money(1)
	var bad period
	bad.checkOutcome(outcomeOf(inv, svc.Revenue(), svc.CostIncurred(), svc.ImplementedOpts()), b.want)
	if len(bad.checks) != 1 {
		t.Fatalf("corrupted invoice map passed the settlement check")
	}
}
