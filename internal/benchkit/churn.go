package benchkit

import (
	"testing"

	"sharedopt/internal/core"
	"sharedopt/internal/econ"
	"sharedopt/internal/stats"
)

// The churn benchmarks hold the live set fixed and grow the horizon, so
// the users who have come and gone grow with it: 64 users arrive every
// slot, each bidding for 1–7 slots from the next one (about 256 live at
// a time), and a game of horizon h has seen 64·h users by its end. Only
// the last churnTimed AdvanceSlot calls of each game are timed; the
// build-up before them, and the submissions between timed slots, run
// off-timer. One op is those churnTimed slots, so a per-slot cost that
// depends only on the live set gives the same ns/op at every horizon.
const (
	churnArrivals = 64
	churnTimed    = 64
)

// churnBid is one arrival of the churn stream. It holds no pointers —
// its values are stream.values[lo:hi] and its substitute set is
// churnSets[set] — so the stream adds nothing to the garbage
// collector's marking while games are built.
type churnBid struct {
	user       core.UserID
	start, end core.Slot
	lo, hi     int
	set        int
}

// churnStream is the arrivals submitted before each slot of a game:
// bySlot[t-1] lists those starting at slot t.
type churnStream struct {
	bySlot [][]churnBid
	values []econ.Money
}

// churnSets lists every substitute set of 1–3 of the four churnOpts.
var churnSets = func() [][]core.OptID {
	var sets [][]core.OptID
	for mask := 1; mask < 1<<len(churnOpts); mask++ {
		var set []core.OptID
		for pos, o := range churnOpts {
			if mask&(1<<pos) != 0 {
				set = append(set, o.ID)
			}
		}
		if len(set) <= 3 {
			sets = append(sets, set)
		}
	}
	return sets
}()

// newChurnStream draws the arrivals of a game of the given horizon.
// Per-slot values are uniform in [0, $1); each user wants a uniformly
// drawn substitute set (used by SubstOn only).
func newChurnStream(horizon int) churnStream {
	r := stats.NewRNG(17)
	stream := churnStream{bySlot: make([][]churnBid, horizon)}
	user := core.UserID(1)
	for t := range stream.bySlot {
		start := core.Slot(t + 1)
		bids := make([]churnBid, churnArrivals)
		for i := range bids {
			end := start + core.Slot(r.Intn(7))
			lo := len(stream.values)
			for s := start; s <= end; s++ {
				stream.values = append(stream.values, econ.Money(r.Int63n(int64(econ.Dollar))))
			}
			bids[i] = churnBid{user: user, start: start, end: end,
				lo: lo, hi: len(stream.values), set: r.Intn(len(churnSets))}
			user++
		}
		stream.bySlot[t] = bids
	}
	return stream
}

// churnOpts is the churn games' catalog; AddOnChurn prices the first.
var churnOpts = []core.Optimization{
	{ID: 1, Cost: econ.FromDollars(40)},
	{ID: 2, Cost: econ.FromDollars(25)},
	{ID: 3, Cost: econ.FromDollars(60)},
	{ID: 4, Cost: econ.FromDollars(15)},
}

// churnGame is the part of an online game the churn body drives.
type churnGame interface {
	submit(c churnBid, values []econ.Money) error
	AdvanceSlot() core.SlotReport
}

type addOnChurn struct{ *core.AddOn }

func (g addOnChurn) submit(c churnBid, values []econ.Money) error {
	return g.Submit(core.OnlineBid{User: c.user, Start: c.start, End: c.end, Values: values})
}

type substOnChurn struct{ *core.SubstOn }

func (g substOnChurn) submit(c churnBid, values []econ.Money) error {
	return g.Submit(core.OnlineSubstBid{User: c.user, Opts: churnSets[c.set], Start: c.start, End: c.end, Values: values})
}

// churnBody plays one game of the given horizon per op, timing only its
// last churnTimed slots.
func churnBody(horizon int, newGame func() churnGame) func(b *testing.B) {
	return func(b *testing.B) {
		stream := newChurnStream(horizon)
		b.ReportAllocs()
		b.StopTimer()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			game := newGame()
			for t, bids := range stream.bySlot {
				for _, c := range bids {
					if err := game.submit(c, stream.values[c.lo:c.hi]); err != nil {
						b.Fatal(err)
					}
				}
				timed := t >= horizon-churnTimed
				if timed {
					b.StartTimer()
				}
				game.AdvanceSlot()
				if timed {
					b.StopTimer()
				}
			}
		}
	}
}

// AddOnChurn returns the churn benchmark body for a single-optimization
// AddOn game of the given horizon.
func AddOnChurn(horizon int) func(b *testing.B) {
	return churnBody(horizon, func() churnGame { return addOnChurn{core.NewAddOn(churnOpts[0])} })
}

// SubstOnChurn returns the churn benchmark body for a SubstOn game of
// the given horizon over the four churnOpts.
func SubstOnChurn(horizon int) func(b *testing.B) {
	return churnBody(horizon, func() churnGame { return substOnChurn{core.NewSubstOn(churnOpts)} })
}
