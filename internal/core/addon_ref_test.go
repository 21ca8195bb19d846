package core

import (
	"fmt"
	"reflect"
	"testing"

	"sharedopt/internal/econ"
	"sharedopt/internal/stats"
)

// refAddOn is AddOn with the slot loop and settlement that scan every
// user ever seen, kept verbatim as a differential oracle for the live-set
// index. It shares Submit, Payment and TotalRevenue with AddOn; the
// embedded game's pending/live index fills up but is never read.
type refAddOn struct{ *AddOn }

func newRefAddOn(opt Optimization) refAddOn { return refAddOn{NewAddOn(opt)} }

func (a refAddOn) AdvanceSlot() SlotReport {
	a.now++
	t := a.now
	report := SlotReport{Slot: t, Departures: make(map[UserID]econ.Money)}

	// Collect residual bids of not-yet-serviced users into the reusable
	// scratch buffer; previously serviced users are the forced set and
	// only contribute their count.
	bidders := a.scratch[:0]
	for id, u := range a.users {
		if u.serviced || t < u.start {
			continue
		}
		if r := u.residual(t); r > 0 {
			bidders = append(bidders, userBid{user: id, bid: r})
		}
	}
	sortBidsDesc(bidders)
	k := servicedPrefix(a.opt.Cost, bidders, a.servicedCount)

	if k+a.servicedCount > 0 && !a.implemented {
		a.implemented = true
		a.implementedAt = t
		report.Implemented = []OptID{a.opt.ID}
	}
	for _, ub := range bidders[:k] {
		a.users[ub.user].serviced = true
		a.servicedCount++
		report.NewGrants = append(report.NewGrants, Grant{User: ub.user, Opt: a.opt.ID})
	}
	for id, u := range a.users {
		if u.serviced && t >= u.start && t <= u.end {
			report.Active = append(report.Active, Grant{User: id, Opt: a.opt.ID})
		}
	}
	sortGrants(report.NewGrants)
	sortGrants(report.Active)

	// Charge users whose bid interval ends now. Serviced users pay the
	// current (lowest so far) share; never-serviced users pay nothing.
	share := a.currentShare()
	for id, u := range a.users {
		if u.paid || u.end != t {
			continue
		}
		u.paid = true
		if u.serviced {
			u.payment = share
		}
		report.Departures[id] = u.payment
	}
	a.scratch = bidders
	return report
}

func (a refAddOn) Close() map[UserID]econ.Money {
	share := a.currentShare()
	settled := make(map[UserID]econ.Money)
	for id, u := range a.users {
		if u.paid {
			continue
		}
		u.paid = true
		if u.serviced {
			u.payment = share
		}
		settled[id] = u.payment
	}
	return settled
}

// churnValues draws n per-slot values in cents, a quarter of them zero.
func churnValues(r *stats.RNG, n int, maxCents int) []econ.Money {
	values := make([]econ.Money, n)
	for k := range values {
		if r.Intn(4) > 0 {
			values[k] = econ.FromCents(int64(r.Intn(maxCents)))
		}
	}
	return values
}

// centValues converts per-slot values in cents to Money.
func centValues(cents ...int64) []econ.Money {
	out := make([]econ.Money, len(cents))
	for i, c := range cents {
		out[i] = econ.FromCents(c)
	}
	return out
}

// churnBid draws a first bid arriving after slot now: it starts within a
// few slots (possibly at or past the horizon), lasts 1–4 slots, and one
// time in eight declares nothing at all.
func churnBid(r *stats.RNG, user UserID, now, horizon Slot) OnlineBid {
	start := now + 1 + Slot(r.Intn(3))
	if r.Intn(10) == 0 {
		start = horizon + Slot(r.Intn(2))
	}
	end := start + Slot(r.Intn(4))
	values := churnValues(r, int(end-start+1), 300)
	if r.Intn(8) == 0 {
		clear(values)
	}
	return OnlineBid{User: user, Start: start, End: end, Values: values}
}

// churnRevision draws a revision of curve c that the monotone-revision
// rule accepts after slot now: it starts at the next slot, or earlier
// than a not-yet-started bid's start, keeps every declared value or
// raises it, and may extend the end.
func churnRevision(r *stats.RNG, user UserID, c valueCurve, now Slot) OnlineBid {
	start := now + 1
	if c.start > start && r.Intn(2) == 0 {
		start = c.start // keep the start; the other branch moves it earlier
	}
	end := c.end + Slot(r.Intn(3))
	values := churnValues(r, int(end-start+1), 100)
	for k := range values {
		values[k] += c.valueAt(start + Slot(k))
	}
	return OnlineBid{User: user, Start: start, End: end, Values: values}
}

// checkAddOnIndex asserts the pending/live index holds exactly the unpaid
// users, each once: per-slot work then never touches a departed user.
func checkAddOnIndex(t *testing.T, a *AddOn) {
	t.Helper()
	seen := make(map[UserID]bool, len(a.pending)+len(a.live))
	for _, u := range append(append([]indexedUser(nil), a.pending...), a.live...) {
		if u.paid {
			t.Fatalf("slot %d: paid user %d still indexed", a.now, u.id)
		}
		if seen[u.id] {
			t.Fatalf("slot %d: user %d indexed twice", a.now, u.id)
		}
		if a.users[u.id] != u.onlineUser {
			t.Fatalf("slot %d: index entry for user %d is not her record", a.now, u.id)
		}
		seen[u.id] = true
	}
	for _, u := range a.pending {
		if u.start <= a.now {
			t.Fatalf("slot %d: started user %d still pending", a.now, u.id)
		}
	}
	unpaid := 0
	for _, u := range a.users {
		if !u.paid {
			unpaid++
		}
	}
	if got := len(a.pending) + len(a.live); got != unpaid {
		t.Fatalf("slot %d: index holds %d users, %d are unpaid", a.now, got, unpaid)
	}
}

// addOnScript is one scripted or random AddOn game: the bids submitted
// before each slot (a bid for a known user is a revision) and the horizon
// after which the game is closed.
type addOnScript struct {
	cost    econ.Money
	horizon Slot
	before  func(slot Slot, a *AddOn) []OnlineBid
}

// runAddOnDifferential drives the live-set AddOn and the reference
// through the same script, comparing every submit outcome, SlotReport,
// the Close map, and the per-user and total payments.
func runAddOnDifferential(t *testing.T, sc addOnScript) {
	t.Helper()
	opt := Optimization{ID: 7, Cost: sc.cost}
	got, want := NewAddOn(opt), newRefAddOn(opt)
	users := make(map[UserID]bool)
	for slot := Slot(1); slot <= sc.horizon; slot++ {
		for _, bid := range sc.before(slot, want.AddOn) {
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
		checkAddOnIndex(t, got)
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
	}
	if got.TotalRevenue() != want.TotalRevenue() {
		t.Fatalf("revenue: live-set %v, reference %v", got.TotalRevenue(), want.TotalRevenue())
	}
	sg, okg := got.Implemented()
	sw, okw := want.Implemented()
	if sg != sw || okg != okw {
		t.Fatalf("implemented: live-set %d,%v, reference %d,%v", sg, okg, sw, okw)
	}
}

// randomAddOnScript draws a churn-heavy, revision-heavy game: every slot
// brings new users, and about a third of the unpaid users revise.
func randomAddOnScript(r *stats.RNG) addOnScript {
	horizon := Slot(1 + r.Intn(24))
	next := UserID(1)
	return addOnScript{
		cost:    econ.FromCents(int64(100 + r.Intn(2000))),
		horizon: horizon,
		before: func(slot Slot, a *AddOn) []OnlineBid {
			var bids []OnlineBid
			for _, id := range sortedKeys(a.users) {
				if u := a.users[id]; !u.paid && r.Intn(3) == 0 {
					bids = append(bids, churnRevision(r, id, u.valueCurve, a.now))
				}
			}
			for n := r.Intn(6); n > 0; n-- {
				bids = append(bids, churnBid(r, next, a.now, horizon))
				next++
			}
			return bids
		},
	}
}

// sortedKeys lists a game's users in ascending order, so random draws
// per user do not depend on map iteration order.
func sortedKeys[U any](users map[UserID]U) []UserID {
	ids := make([]UserID, 0, len(users))
	for id := range users {
		ids = append(ids, id)
	}
	sortUsers(ids)
	return ids
}

// The live-set AddOn must agree with the scan-everyone reference on
// random churn- and revision-heavy games, slot by slot.
func TestAddOnMatchesReferenceRandomChurn(t *testing.T) {
	r := stats.NewRNG(9090)
	for trial := 0; trial < 400; trial++ {
		sc := randomAddOnScript(r)
		t.Run(fmt.Sprint(trial), func(t *testing.T) { runAddOnDifferential(t, sc) })
	}
}

// scripted returns a script that submits the given bids before their
// slots (key = the slot they precede).
func scripted(cost econ.Money, horizon Slot, bids map[Slot][]OnlineBid) addOnScript {
	return addOnScript{
		cost:    cost,
		horizon: horizon,
		before:  func(slot Slot, _ *AddOn) []OnlineBid { return bids[slot] },
	}
}

// The corner cases of the index, each against the reference.
func TestAddOnMatchesReferenceCornerCases(t *testing.T) {
	v := centValues
	cases := map[string]addOnScript{
		// User 2 bids for slots 4–5, then before slot 2 revises to start
		// at slot 2: she must be admitted at slot 2, not 4.
		"revision moves a pending start earlier": scripted(econ.FromCents(300), 6, map[Slot][]OnlineBid{
			1: {{User: 1, Start: 1, End: 3, Values: v(100, 100, 100)},
				{User: 2, Start: 4, End: 5, Values: v(50, 50)}},
			2: {{User: 2, Start: 2, End: 5, Values: v(200, 0, 50, 50)}},
		}),
		// User 1 would depart at slot 2; the revision before slot 2
		// extends her to slot 4, so she must stay live.
		"revision extends end past the departure slot": scripted(econ.FromCents(500), 5, map[Slot][]OnlineBid{
			1: {{User: 1, Start: 1, End: 2, Values: v(100, 100)},
				{User: 2, Start: 1, End: 4, Values: v(100, 100, 100, 100)}},
			2: {{User: 1, Start: 2, End: 4, Values: v(100, 300, 300)}},
		}),
		// User 2 is serviced in the one slot she is live, which is also
		// her departure slot.
		"serviced in the final slot": scripted(econ.FromCents(400), 3, map[Slot][]OnlineBid{
			1: {{User: 1, Start: 1, End: 3, Values: v(100, 100, 100)}},
			3: {{User: 2, Start: 3, End: 3, Values: v(300)}},
		}),
		"zero residuals": scripted(econ.FromCents(100), 4, map[Slot][]OnlineBid{
			1: {{User: 1, Start: 1, End: 2, Values: v(0, 0)},
				{User: 2, Start: 2, End: 4, Values: v(0, 0, 0)},
				{User: 3, Start: 1, End: 3, Values: v(150, 0, 0)}},
		}),
		"bids starting at the horizon": scripted(econ.FromCents(200), 4, map[Slot][]OnlineBid{
			1: {{User: 1, Start: 4, End: 4, Values: v(150)},
				{User: 2, Start: 4, End: 6, Values: v(60, 10, 10)}},
		}),
		"close with users who never started": scripted(econ.FromCents(100), 2, map[Slot][]OnlineBid{
			1: {{User: 1, Start: 1, End: 5, Values: v(200, 0, 0, 0, 0)},
				{User: 2, Start: 3, End: 4, Values: v(500, 500)},
				{User: 3, Start: 9, End: 9, Values: v(1)}},
		}),
	}
	for name, sc := range cases {
		t.Run(name, func(t *testing.T) { runAddOnDifferential(t, sc) })
	}
}

// In a long churn game the index holds exactly the unpaid users after
// every slot, so its size is set by the live window, not by the users who
// have come and gone; Close empties it.
func TestAddOnIndexHoldsExactlyUnpaid(t *testing.T) {
	// Bids start up to 3 slots ahead and last up to 7; revisions extend
	// some, so a live window holds well under twice arrivals × 10 users.
	const horizon, arrivals, window = 300, 20, 2 * (3 + 7)
	r := stats.NewRNG(77)
	a := NewAddOn(Optimization{ID: 1, Cost: econ.FromDollars(5)})
	next := UserID(1)
	for slot := Slot(1); slot <= horizon; slot++ {
		for _, id := range sortedKeys(a.users) {
			if u := a.users[id]; !u.paid && r.Intn(5) == 0 {
				mustSubmit(t, a.Submit(churnRevision(r, id, u.valueCurve, a.now)))
			}
		}
		for n := 0; n < arrivals; n++ {
			start := a.now + 1 + Slot(r.Intn(3))
			end := start + Slot(r.Intn(7))
			mustSubmit(t, a.Submit(OnlineBid{User: next, Start: start, End: end,
				Values: churnValues(r, int(end-start+1), 300)}))
			next++
		}
		a.AdvanceSlot()
		checkAddOnIndex(t, a)
		if n := len(a.pending) + len(a.live); n > arrivals*window {
			t.Fatalf("slot %d: %d users indexed, more than the %d a live window holds", slot, n, arrivals*window)
		}
	}
	if len(a.users) != int(next-1) {
		t.Fatalf("users-ever %d, want %d", len(a.users), next-1)
	}
	a.Close()
	if a.pending != nil || a.live != nil {
		t.Fatalf("close left %d pending, %d live users indexed", len(a.pending), len(a.live))
	}
}
