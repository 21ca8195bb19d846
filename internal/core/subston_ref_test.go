package core

import (
	"fmt"
	"reflect"
	"testing"

	"sharedopt/internal/econ"
	"sharedopt/internal/stats"
)

// refSubstOn is SubstOn with the slot loop and settlement that scan every
// user ever seen, kept verbatim as a differential oracle for the live-set
// index. It shares Submit, Payment, GrantedOpt and TotalRevenue with
// SubstOn, and SubstOn's per-optimization grant counts (once lists of
// granted users, of which only the lengths were read); the embedded
// game's pending/live index fills up but is never read.
type refSubstOn struct{ *SubstOn }

func (s refSubstOn) AdvanceSlot() SlotReport {
	s.now++
	t := s.now
	report := SlotReport{Slot: t, Departures: make(map[UserID]econ.Money)}

	bidders := s.bidders[:0]
	for id, u := range s.users {
		if u.granted || t < u.start {
			continue
		}
		r := u.curve.residual(t)
		if r <= 0 {
			continue
		}
		bidders = append(bidders, substBidder{user: id, bid: r, opts: u.opts})
	}
	phases := substPhases(s.opts, bidders, s.granted, &s.scratch)
	s.bidders = bidders[:0]

	for _, g := range phases.newGrants {
		u := s.users[g.User]
		u.granted = true
		u.grantedOpt = g.Opt
		s.granted[s.optPos[g.Opt]]++
	}
	report.NewGrants = phases.newGrants
	for _, pos := range phases.order {
		j := s.opts[pos].ID
		if _, seen := s.implemented[j]; !seen {
			s.implemented[j] = t
			report.Implemented = append(report.Implemented, j)
		}
	}
	sortOpts(report.Implemented)

	for id, u := range s.users {
		if u.granted && t >= u.start && t <= u.curve.end {
			report.Active = append(report.Active, Grant{User: id, Opt: u.grantedOpt})
		}
	}
	sortGrants(report.Active)

	for id, u := range s.users {
		if u.paid || u.curve.end != t {
			continue
		}
		u.paid = true
		if u.granted {
			u.payment = phases.share[s.optPos[u.grantedOpt]]
		}
		report.Departures[id] = u.payment
	}
	return report
}

func (s refSubstOn) Close() map[UserID]econ.Money {
	settled := make(map[UserID]econ.Money)
	for id, u := range s.users {
		if u.paid {
			continue
		}
		u.paid = true
		if u.granted {
			u.payment = s.opts[s.optPos[u.grantedOpt]].Cost.DivCeil(s.granted[s.optPos[u.grantedOpt]])
		}
		settled[id] = u.payment
	}
	return settled
}

// checkSubstOnIndex is checkAddOnIndex for SubstOn; the pending gate is
// the first bid's start.
func checkSubstOnIndex(t *testing.T, s *SubstOn) {
	t.Helper()
	seen := make(map[UserID]bool, len(s.pending)+len(s.live))
	for _, u := range append(append([]indexedSubstUser(nil), s.pending...), s.live...) {
		if u.paid {
			t.Fatalf("slot %d: paid user %d still indexed", s.now, u.id)
		}
		if seen[u.id] {
			t.Fatalf("slot %d: user %d indexed twice", s.now, u.id)
		}
		if s.users[u.id] != u.substUser {
			t.Fatalf("slot %d: index entry for user %d is not her record", s.now, u.id)
		}
		seen[u.id] = true
	}
	for _, u := range s.pending {
		if u.start <= s.now {
			t.Fatalf("slot %d: started user %d still pending", s.now, u.id)
		}
	}
	unpaid := 0
	for _, u := range s.users {
		if !u.paid {
			unpaid++
		}
	}
	if got := len(s.pending) + len(s.live); got != unpaid {
		t.Fatalf("slot %d: index holds %d users, %d are unpaid", s.now, got, unpaid)
	}
}

// substOnScript is one scripted or random SubstOn game: the catalog, the
// bids submitted before each slot (a bid for a known user is a revision)
// and the horizon after which the game is closed.
type substOnScript struct {
	opts    []Optimization
	horizon Slot
	before  func(slot Slot, s *SubstOn) []OnlineSubstBid
}

// runSubstOnDifferential drives the live-set SubstOn and the reference
// through the same script, comparing every submit outcome, SlotReport,
// the Close map, and the per-user payments, grants and total revenue.
func runSubstOnDifferential(t *testing.T, sc substOnScript) {
	t.Helper()
	got, want := NewSubstOn(sc.opts), refSubstOn{NewSubstOn(sc.opts)}
	users := make(map[UserID]bool)
	for slot := Slot(1); slot <= sc.horizon; slot++ {
		for _, bid := range sc.before(slot, want.SubstOn) {
			users[bid.User] = true
			errGot, errWant := got.Submit(bid), want.Submit(bid)
			if fmt.Sprint(errGot) != fmt.Sprint(errWant) {
				t.Fatalf("slot %d: submit %+v: live-set %v, reference %v", slot, bid, errGot, errWant)
			}
		}
		rg, rw := got.AdvanceSlot(), want.AdvanceSlot()
		if !reflect.DeepEqual(rg, rw) {
			t.Fatalf("slot %d: live-set report %+v, reference %+v", slot, rg, rw)
		}
		checkSubstOnIndex(t, got)
	}
	cg, cw := got.Close(), want.Close()
	if !reflect.DeepEqual(cg, cw) {
		t.Fatalf("close: live-set %v, reference %v", cg, cw)
	}
	if got.pending != nil || got.live != nil {
		t.Fatalf("close left %d pending, %d live users indexed", len(got.pending), len(got.live))
	}
	for u := range users {
		pg, okg := got.Payment(u)
		pw, okw := want.Payment(u)
		if pg != pw || okg != okw {
			t.Fatalf("user %d: live-set payment %v,%v, reference %v,%v", u, pg, okg, pw, okw)
		}
		jg, okg := got.GrantedOpt(u)
		jw, okw := want.GrantedOpt(u)
		if jg != jw || okg != okw {
			t.Fatalf("user %d: live-set grant %d,%v, reference %d,%v", u, jg, okg, jw, okw)
		}
	}
	if got.TotalRevenue() != want.TotalRevenue() {
		t.Fatalf("revenue: live-set %v, reference %v", got.TotalRevenue(), want.TotalRevenue())
	}
	if got.CostIncurred() != want.CostIncurred() {
		t.Fatalf("cost: live-set %v, reference %v", got.CostIncurred(), want.CostIncurred())
	}
}

// randomSubstOnScript draws a churn-heavy, revision-heavy substitutive
// game over 2–5 optimizations: every slot brings new users wanting 1–3
// of them, and about a third of the unpaid users revise, which moves a
// not-yet-started user's curve ahead of her first bid's start.
func randomSubstOnScript(r *stats.RNG) substOnScript {
	opts := make([]Optimization, 2+r.Intn(4))
	for i := range opts {
		opts[i] = Optimization{ID: OptID(10 + i), Cost: econ.FromCents(int64(100 + r.Intn(1500)))}
	}
	horizon := Slot(1 + r.Intn(24))
	next := UserID(1)
	return substOnScript{
		opts:    opts,
		horizon: horizon,
		before: func(slot Slot, s *SubstOn) []OnlineSubstBid {
			var bids []OnlineSubstBid
			for _, id := range sortedKeys(s.users) {
				if u := s.users[id]; !u.paid && r.Intn(3) == 0 {
					b := churnRevision(r, id, u.curve, s.now)
					bids = append(bids, OnlineSubstBid{User: id, Opts: u.opts, Start: b.Start, End: b.End, Values: b.Values})
				}
			}
			for n := r.Intn(6); n > 0; n-- {
				b := churnBid(r, next, s.now, horizon)
				var set []OptID
				for _, pos := range r.Perm(len(opts))[:1+r.Intn(min(3, len(opts)))] {
					set = append(set, opts[pos].ID)
				}
				bids = append(bids, OnlineSubstBid{User: next, Opts: set, Start: b.Start, End: b.End, Values: b.Values})
				next++
			}
			return bids
		},
	}
}

// The live-set SubstOn must agree with the scan-everyone reference on
// random churn- and revision-heavy games, slot by slot.
func TestSubstOnMatchesReferenceRandomChurn(t *testing.T) {
	r := stats.NewRNG(9191)
	for trial := 0; trial < 400; trial++ {
		sc := randomSubstOnScript(r)
		t.Run(fmt.Sprint(trial), func(t *testing.T) { runSubstOnDifferential(t, sc) })
	}
}

// The corner cases of the index, each against the reference.
func TestSubstOnMatchesReferenceCornerCases(t *testing.T) {
	v := centValues
	opts := []Optimization{{ID: 1, Cost: econ.FromCents(300)}, {ID: 2, Cost: econ.FromCents(500)}}
	scripted := func(horizon Slot, bids map[Slot][]OnlineSubstBid) substOnScript {
		return substOnScript{
			opts:    opts,
			horizon: horizon,
			before:  func(slot Slot, _ *SubstOn) []OnlineSubstBid { return bids[slot] },
		}
	}
	cases := map[string]substOnScript{
		// User 2 first bids for slots 4–5; the revision before slot 2
		// starts her curve at slot 2, but she participates only from
		// slot 4, her first bid's start.
		"revision curve begins before the first bid's start": scripted(6, map[Slot][]OnlineSubstBid{
			1: {{User: 1, Opts: []OptID{1}, Start: 1, End: 3, Values: v(100, 100, 100)},
				{User: 2, Opts: []OptID{1, 2}, Start: 4, End: 5, Values: v(50, 50)}},
			2: {{User: 2, Opts: []OptID{2, 1}, Start: 2, End: 5, Values: v(400, 400, 50, 50)}},
		}),
		// User 1 would depart at slot 2; the revision before slot 2
		// extends her to slot 4, so she must stay live.
		"revision extends end past the departure slot": scripted(5, map[Slot][]OnlineSubstBid{
			1: {{User: 1, Opts: []OptID{2}, Start: 1, End: 2, Values: v(100, 100)},
				{User: 2, Opts: []OptID{2}, Start: 1, End: 4, Values: v(100, 100, 100, 100)}},
			2: {{User: 1, Opts: []OptID{2}, Start: 2, End: 4, Values: v(100, 300, 300)}},
		}),
		"granted in the final slot": scripted(3, map[Slot][]OnlineSubstBid{
			1: {{User: 1, Opts: []OptID{1}, Start: 1, End: 3, Values: v(100, 100, 100)}},
			3: {{User: 2, Opts: []OptID{1, 2}, Start: 3, End: 3, Values: v(300)}},
		}),
		"zero residuals": scripted(4, map[Slot][]OnlineSubstBid{
			1: {{User: 1, Opts: []OptID{1}, Start: 1, End: 2, Values: v(0, 0)},
				{User: 2, Opts: []OptID{2}, Start: 2, End: 4, Values: v(0, 0, 0)},
				{User: 3, Opts: []OptID{1, 2}, Start: 1, End: 3, Values: v(350, 0, 0)}},
		}),
		"bids starting at the horizon": scripted(4, map[Slot][]OnlineSubstBid{
			1: {{User: 1, Opts: []OptID{1}, Start: 4, End: 4, Values: v(350)},
				{User: 2, Opts: []OptID{1, 2}, Start: 4, End: 6, Values: v(160, 10, 10)}},
		}),
		"close with users who never started": scripted(2, map[Slot][]OnlineSubstBid{
			1: {{User: 1, Opts: []OptID{1}, Start: 1, End: 5, Values: v(400, 0, 0, 0, 0)},
				{User: 2, Opts: []OptID{1}, Start: 3, End: 4, Values: v(500, 500)},
				{User: 3, Opts: []OptID{2}, Start: 9, End: 9, Values: v(1)}},
		}),
	}
	for name, sc := range cases {
		t.Run(name, func(t *testing.T) { runSubstOnDifferential(t, sc) })
	}
}

// SubstOn's index, like AddOn's, holds exactly the unpaid users after
// every slot of a long churn game, and Close empties it.
func TestSubstOnIndexHoldsExactlyUnpaid(t *testing.T) {
	// Bids start up to 3 slots ahead and last up to 7; revisions extend
	// some, so a live window holds well under twice arrivals × 10 users.
	const horizon, arrivals, window = 300, 20, 2 * (3 + 7)
	r := stats.NewRNG(78)
	opts := []Optimization{{ID: 1, Cost: econ.FromDollars(4)}, {ID: 2, Cost: econ.FromDollars(6)}, {ID: 3, Cost: econ.FromDollars(9)}}
	s := NewSubstOn(opts)
	next := UserID(1)
	for slot := Slot(1); slot <= horizon; slot++ {
		for _, id := range sortedKeys(s.users) {
			if u := s.users[id]; !u.paid && r.Intn(5) == 0 {
				b := churnRevision(r, id, u.curve, s.now)
				mustSubmit(t, s.Submit(OnlineSubstBid{User: id, Opts: u.opts, Start: b.Start, End: b.End, Values: b.Values}))
			}
		}
		for n := 0; n < arrivals; n++ {
			start := s.now + 1 + Slot(r.Intn(3))
			end := start + Slot(r.Intn(7))
			set := []OptID{opts[r.Intn(3)].ID}
			mustSubmit(t, s.Submit(OnlineSubstBid{User: next, Opts: set, Start: start, End: end,
				Values: churnValues(r, int(end-start+1), 300)}))
			next++
		}
		s.AdvanceSlot()
		checkSubstOnIndex(t, s)
		if n := len(s.pending) + len(s.live); n > arrivals*window {
			t.Fatalf("slot %d: %d users indexed, more than the %d a live window holds", slot, n, arrivals*window)
		}
	}
	s.Close()
	if s.pending != nil || s.live != nil {
		t.Fatalf("close left %d pending, %d live users indexed", len(s.pending), len(s.live))
	}
}
