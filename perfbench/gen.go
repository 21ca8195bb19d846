package main

import (
	"crypto/sha256"
	"encoding/binary"

	"sharedopt"
	"sharedopt/internal/core"
	"sharedopt/internal/econ"
	"sharedopt/internal/stats"
)

// subKind classifies one submission of a generated stream.
type subKind uint8

const (
	// fresh is a user's first bid.
	fresh subKind = iota
	// revision raises the values of the same user's latest bid in the
	// same window, which the mechanisms accept as a monotone revision.
	revision
	// duplicate resubmits an earlier submission byte for byte, as a
	// client retrying after a lost reply would; the shard's fingerprint
	// dedup acknowledges it without journaling it again.
	duplicate
)

// sub is one submission: an additive bid on opt, or a substitutive bid.
type sub struct {
	kind subKind
	opt  core.OptID
	add  core.OnlineBid
	sb   core.OnlineSubstBid
}

func (s sub) user() core.UserID {
	if s.sb.Opts != nil {
		return s.sb.User
	}
	return s.add.User
}

// stream is one period's input: the catalog, and the submissions made
// before each AdvanceSlot. A period submits windows[w] and advances,
// for every window, then closes; horizon is one slot past the last
// window, so ClosePeriod is what ends the period.
type stream struct {
	game    sharedopt.GameKind
	opts    []sharedopt.Optimization
	horizon core.Slot
	windows [][]sub
}

// slots is the number of AdvanceSlot calls a period makes.
func (st *stream) slots() int { return len(st.windows) }

// props are the measured properties of a stream that a claim of the
// form "helps only inputs with property X" can cite.
type props struct {
	Submissions    int     `json:"submissions"`
	Accepted       int     `json:"accepted"`
	UsersEver      int     `json:"users_ever"`
	LiveUsersP50   float64 `json:"live_users_p50"`
	DuplicateShare float64 `json:"duplicate_share"`
	RevisionShare  float64 `json:"revision_share"`
}

// measure counts the stream's properties. A user is live in slot t when
// t lies inside the interval of her latest bid.
func (st *stream) measure() props {
	var p props
	type span struct{ start, end core.Slot }
	spans := make(map[core.UserID]span)
	dups, revs := 0, 0
	for _, win := range st.windows {
		for _, s := range win {
			p.Submissions++
			switch s.kind {
			case duplicate:
				dups++
				continue
			case revision:
				revs++
			}
			p.Accepted++
			start, end := s.add.Start, s.add.End
			if s.sb.Opts != nil {
				start, end = s.sb.Start, s.sb.End
			}
			if old, ok := spans[s.user()]; ok && old.start < start {
				start = old.start
			}
			spans[s.user()] = span{start, end}
		}
	}
	p.UsersEver = len(spans)
	live := make([]float64, st.slots())
	for _, sp := range spans {
		for t := sp.start; t <= sp.end && int(t) <= len(live); t++ {
			live[t-1]++
		}
	}
	p.LiveUsersP50 = median(live)
	p.DuplicateShare = float64(dups) / float64(p.Submissions)
	p.RevisionShare = float64(revs) / float64(p.Submissions)
	return p
}

// digest is a SHA-256 over the stream's canonical encoding: same seed,
// same digest.
func (st *stream) digest() [32]byte {
	var buf []byte
	put := func(v int64) { buf = binary.LittleEndian.AppendUint64(buf, uint64(v)) }
	put(int64(st.game))
	put(int64(st.horizon))
	for _, o := range st.opts {
		put(int64(o.ID))
		put(int64(o.Cost))
	}
	for w, win := range st.windows {
		put(int64(w))
		for _, s := range win {
			b := s.add
			if s.sb.Opts != nil {
				b = core.OnlineBid{User: s.sb.User, Start: s.sb.Start, End: s.sb.End, Values: s.sb.Values}
				for _, j := range s.sb.Opts {
					put(int64(j))
				}
			}
			put(int64(s.kind))
			put(int64(s.opt))
			put(int64(b.User))
			put(int64(b.Start))
			put(int64(b.End))
			for _, v := range b.Values {
				put(int64(v))
			}
		}
	}
	return sha256.Sum256(buf)
}

// randValues draws n per-slot values uniformly from [0, max).
func randValues(r *stats.RNG, n int, max econ.Money) []econ.Money {
	vs := make([]econ.Money, n)
	for i := range vs {
		vs[i] = econ.Money(r.Int63n(int64(max)))
	}
	return vs
}

// churnAdditive is the online AddOn game with users coming and going:
// arrivals per window, each bidding on one of a few optimizations for a
// short interval, so the live set stays near arrivals × mean length
// while users-ever grows with the horizon.
func churnAdditive(seed uint64) *stream {
	const (
		windows  = 256
		arrivals = 250
		maxLen   = 7 // lengths uniform in [1, 7]: mean 4 slots
	)
	r := stats.NewRNG(seed)
	st := &stream{game: sharedopt.Additive, horizon: windows + 1}
	for i, dollars := range []float64{25, 60, 150, 400} {
		st.opts = append(st.opts, sharedopt.Optimization{ID: core.OptID(i + 1), Cost: econ.FromDollars(dollars)})
	}
	next := core.UserID(1)
	for w := 0; w < windows; w++ {
		start := core.Slot(w + 1)
		win := make([]sub, 0, arrivals)
		for i := 0; i < arrivals; i++ {
			end := min(start+core.Slot(r.Intn(maxLen)), core.Slot(windows))
			win = append(win, sub{
				kind: fresh,
				opt:  core.OptID(1 + r.Intn(len(st.opts))),
				add:  core.OnlineBid{User: next, Start: start, End: end, Values: randValues(r, int(end-start+1), econ.Dollar)},
			})
			next++
		}
		st.windows = append(st.windows, win)
	}
	return st
}

// intakeSubst is the online SubstOn game under heavy intake: a short
// horizon, many bids per window over 3-option substitute sets, users
// who mostly stay to the end (users-ever stays close to the live set),
// about 5% duplicate resubmits and about 10% monotone revisions.
func intakeSubst(seed uint64) *stream {
	const (
		windows   = 8
		perWindow = 4000
		nOpts     = 12
		setSize   = 3
		dupShare  = 0.05
		revShare  = 0.10
	)
	r := stats.NewRNG(seed)
	st := &stream{game: sharedopt.Substitutive, horizon: windows + 1}
	for i := 0; i < nOpts; i++ {
		st.opts = append(st.opts, sharedopt.Optimization{ID: core.OptID(i + 1), Cost: econ.FromDollars(float64(200 + 100*i))})
	}
	next := core.UserID(1)
	var sent []sub // every submission so far, the pool duplicates draw from
	for w := 0; w < windows; w++ {
		start := core.Slot(w + 1)
		win := make([]sub, 0, perWindow)
		// latest[k] indexes win: the newest version of each user's bid
		// placed in this window, the pool revisions draw from.
		var latest []int
		for i := 0; i < perWindow; i++ {
			x := r.Float64()
			switch {
			case x < dupShare && len(sent)+len(win) > 0:
				k := r.Intn(len(sent) + len(win))
				var orig sub
				if k < len(sent) {
					orig = sent[k]
				} else {
					orig = win[k-len(sent)]
				}
				orig.kind = duplicate
				win = append(win, orig)
			case x < dupShare+revShare && len(latest) > 0:
				k := r.Intn(len(latest))
				prev := win[latest[k]].sb
				end := prev.End
				if end < core.Slot(windows) && r.Intn(2) == 0 {
					end++
				}
				vals := make([]econ.Money, int(end-prev.Start+1))
				for j := range vals {
					bump := econ.Money(1 + r.Int63n(int64(20*econ.Cent)))
					if j < len(prev.Values) {
						vals[j] = prev.Values[j] + bump
					} else {
						vals[j] = bump
					}
				}
				latest[k] = len(win)
				win = append(win, sub{kind: revision, sb: core.OnlineSubstBid{
					User: prev.User, Opts: prev.Opts, Start: prev.Start, End: end, Values: vals,
				}})
			default:
				// Most users stay to the end of the period.
				end := core.Slot(windows)
				if r.Intn(4) == 0 {
					end = start + core.Slot(r.Intn(int(core.Slot(windows)-start+1)))
				}
				set := r.SampleK(nOpts, setSize)
				opts := make([]core.OptID, setSize)
				for j, o := range set {
					opts[j] = core.OptID(o + 1)
				}
				latest = append(latest, len(win))
				win = append(win, sub{kind: fresh, sb: core.OnlineSubstBid{
					User: next, Opts: opts, Start: start, End: end,
					Values: randValues(r, int(end-start+1), econ.Dollar),
				}})
				next++
			}
		}
		sent = append(sent, win...)
		st.windows = append(st.windows, win)
	}
	return st
}
