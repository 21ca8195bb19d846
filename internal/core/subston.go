package core

import (
	"cmp"
	"fmt"
	"slices"

	"sharedopt/internal/econ"
)

// OnlineSubstBid declares a user's substitutive demand in an online game:
// the substitute set Ji, the service interval [Start, End], and per-slot
// values obtained in each slot if she has access to at least one
// optimization in Ji.
type OnlineSubstBid struct {
	User   UserID
	Opts   []OptID
	Start  Slot
	End    Slot
	Values []econ.Money
}

// Validate reports an error if the bid is structurally malformed.
func (b OnlineSubstBid) Validate() error {
	if err := (SubstBid{User: b.User, Opts: b.Opts}).Validate(); err != nil {
		return err
	}
	return OnlineBid{User: b.User, Start: b.Start, End: b.End, Values: b.Values}.Validate()
}

// substUser is SubstOn's record of one user. start is the first bid's
// start slot and gates participation; the curve's own interval may begin
// earlier after a revision, matching the original mechanism's behavior.
type substUser struct {
	opts       []OptID
	start      Slot
	curve      valueCurve
	granted    bool
	grantedOpt OptID
	paid       bool
	payment    econ.Money
}

// indexedSubstUser is one entry of SubstOn's index of unpaid users; see
// indexedUser.
type indexedSubstUser struct {
	id UserID
	*substUser
}

// SubstOn is the SubstOn Mechanism (paper, Mechanism 4): the online
// cost-sharing mechanism for substitutive optimizations. Each slot it runs
// the SubstOff phase loop over the residual values of users seen so far,
// forcing every previously granted (user, optimization) pair to stay
// serviced by that same optimization — a user may never switch
// optimizations, which is crucial for truthfulness (paper, Example 8).
// Users pay the cost-share of their granted optimization in force when
// their bid interval ends; as with AddOn, shares only fall over time, and
// departed users keep counting toward the share denominator.
//
// The per-slot phase loop runs on scratch buffers reused across
// AdvanceSlot calls and on O(1) suffix-sum residual lookups. Like AddOn,
// AdvanceSlot touches only the unpaid users, held in two index slices
// (not-yet-started and live), so a slot costs O(live · log live) plus a
// scan of the not-yet-started bids, independent of how many users have
// already departed; Close is O(unpaid).
type SubstOn struct {
	opts []Optimization
	// optPos maps each optimization to its position in opts — the index
	// space of the phase loop's slice-indexed results and the single
	// source for by-ID lookups (the optimization itself is opts[pos]).
	optPos      map[OptID]int
	now         Slot
	users       map[UserID]*substUser
	implemented map[OptID]Slot
	// granted[pos] counts the users ever granted opts[pos]: the size of
	// its forced set, and its cost-share denominator.
	granted []int

	// pending holds users whose first bid's start slot has not been
	// reached; live holds users who have started and are not yet paid,
	// granted or not. Together they are exactly the unpaid users. Their
	// backing arrays are reused across slots; Close drops both.
	pending []indexedSubstUser
	live    []indexedSubstUser

	bidders []substBidder // per-slot buffer, reused across AdvanceSlot
	scratch substScratch
}

// NewSubstOn returns a new online substitutive game over the given
// optimizations. It panics on invalid or duplicate optimizations.
func NewSubstOn(opts []Optimization) *SubstOn {
	if _, err := validateOpts(opts); err != nil {
		panic(err)
	}
	optPos := make(map[OptID]int, len(opts))
	for pos, o := range opts {
		optPos[o.ID] = pos
	}
	return &SubstOn{
		opts:        append([]Optimization(nil), opts...),
		optPos:      optPos,
		users:       make(map[UserID]*substUser),
		implemented: make(map[OptID]Slot),
		granted:     make([]int, len(opts)),
	}
}

// Now returns the last processed slot (0 if none yet).
func (s *SubstOn) Now() Slot { return s.now }

// Optimizations returns the game's catalog in ascending ID order.
func (s *SubstOn) Optimizations() []Optimization {
	out := append([]Optimization(nil), s.opts...)
	slices.SortFunc(out, func(a, b Optimization) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// Implemented reports whether the optimization has been implemented and at
// which slot.
func (s *SubstOn) Implemented(opt OptID) (Slot, bool) {
	at, ok := s.implemented[opt]
	return at, ok
}

// Submit places or revises a bid. New bids must start after the last
// processed slot. A revision may only increase per-slot values and extend
// the interval, and may not change the substitute set.
func (s *SubstOn) Submit(bid OnlineSubstBid) error {
	if err := bid.Validate(); err != nil {
		return err
	}
	for _, j := range bid.Opts {
		if _, ok := s.optPos[j]; !ok {
			return fmt.Errorf("core: user %d bid for unknown optimization %d", bid.User, j)
		}
	}
	if bid.Start <= s.now {
		return fmt.Errorf("core: user %d: retroactive bid starting at slot %d, current slot is %d",
			bid.User, bid.Start, s.now)
	}
	online := OnlineBid{User: bid.User, Start: bid.Start, End: bid.End, Values: bid.Values}
	u := s.users[bid.User]
	if u == nil {
		u = &substUser{
			opts:  append([]OptID(nil), bid.Opts...),
			start: bid.Start,
			curve: newValueCurve(online),
		}
		s.users[bid.User] = u
		s.pending = append(s.pending, indexedSubstUser{bid.User, u})
		return nil
	}
	if u.paid {
		return fmt.Errorf("core: user %d: bid after departure", bid.User)
	}
	if !sameOptSet(u.opts, bid.Opts) {
		return fmt.Errorf("core: user %d: revision changes substitute set", bid.User)
	}
	return u.curve.revise(online, s.now)
}

func sameOptSet(a, b []OptID) bool {
	if len(a) != len(b) {
		return false
	}
	set := make(map[OptID]bool, len(a))
	for _, j := range a {
		set[j] = true
	}
	for _, j := range b {
		if !set[j] {
			return false
		}
	}
	return true
}

// AdvanceSlot processes the next time slot by running the SubstOff phase
// loop over residual bids with all existing grants forced, then charging
// users whose interval ends at this slot.
func (s *SubstOn) AdvanceSlot() SlotReport {
	s.now++
	t := s.now
	report := SlotReport{Slot: t, Departures: make(map[UserID]econ.Money)}

	// Move users whose first bid's start slot has come from pending to
	// live; a revision's curve may begin earlier, but participation is
	// gated on the first bid.
	pending := s.pending[:0]
	for _, u := range s.pending {
		if t < u.start {
			pending = append(pending, u)
		} else {
			s.live = append(s.live, u)
		}
	}
	s.pending = pending

	bidders := s.bidders[:0]
	for _, u := range s.live {
		if u.granted {
			continue
		}
		r := u.curve.residual(t)
		if r <= 0 {
			continue
		}
		bidders = append(bidders, substBidder{user: u.id, bid: r, opts: u.opts})
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

	// One pass over the live set lists granted users as active and
	// charges those whose interval ends now, dropping them from the
	// index. end is read here, not cached, since a revision may extend
	// it.
	live := s.live[:0]
	for _, u := range s.live {
		if u.granted {
			report.Active = append(report.Active, Grant{User: u.id, Opt: u.grantedOpt})
		}
		if u.curve.end != t {
			live = append(live, u)
			continue
		}
		u.paid = true
		if u.granted {
			u.payment = phases.share[s.optPos[u.grantedOpt]]
		}
		report.Departures[u.id] = u.payment
	}
	s.live = live
	sortGrants(report.Active)
	return report
}

// Close settles every user who has not yet paid at the current cost-share
// of her granted optimization. It returns the payments charged by this
// call. Close empties the index of unpaid users, so a later AdvanceSlot
// prices only bids submitted after it.
func (s *SubstOn) Close() map[UserID]econ.Money {
	settled := make(map[UserID]econ.Money, len(s.pending)+len(s.live))
	for _, unpaid := range [2][]indexedSubstUser{s.pending, s.live} {
		for _, u := range unpaid {
			u.paid = true
			if u.granted {
				pos := s.optPos[u.grantedOpt]
				u.payment = s.opts[pos].Cost.DivCeil(s.granted[pos])
			}
			settled[u.id] = u.payment
		}
	}
	s.pending, s.live = nil, nil
	return settled
}

// Payment returns the user's final payment and whether she has been
// charged yet.
func (s *SubstOn) Payment(u UserID) (econ.Money, bool) {
	usr := s.users[u]
	if usr == nil || !usr.paid {
		return 0, false
	}
	return usr.payment, true
}

// GrantedOpt returns the optimization granted to the user, if any.
func (s *SubstOn) GrantedOpt(u UserID) (OptID, bool) {
	usr := s.users[u]
	if usr == nil || !usr.granted {
		return 0, false
	}
	return usr.grantedOpt, true
}

// TotalRevenue returns the sum of all payments charged so far.
func (s *SubstOn) TotalRevenue() econ.Money {
	var total econ.Money
	for _, u := range s.users {
		if u.paid {
			total += u.payment
		}
	}
	return total
}

// CostIncurred sums the costs of implemented optimizations.
func (s *SubstOn) CostIncurred() econ.Money {
	var total econ.Money
	for j := range s.implemented {
		total += s.opts[s.optPos[j]].Cost
	}
	return total
}
