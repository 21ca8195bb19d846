package resilience

// The crash-replay property: for randomized additive and substitutive
// workloads, killing the journaled service at EVERY record boundary —
// and at every torn prefix of the next record — then recovering from the
// surviving bytes must reproduce invoices, revenue, cost, and the
// implemented set byte-identically to the uncrashed run at that same
// point. The uncrashed run is its own oracle: a snapshot string is taken
// after every journaled record, and each recovery is compared against
// the snapshot of its surviving prefix.

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"testing"

	"sharedopt"
	"sharedopt/internal/core"
	"sharedopt/internal/econ"
	"sharedopt/internal/stats"
)

// snapshotService renders the complete priced state of a service: the
// recovery targets named in the crash-replay contract plus the clock.
func snapshotService(s *sharedopt.Service) string {
	var b strings.Builder
	fmt.Fprintf(&b, "now=%d closed=%v revenue=%v cost=%v surplus=%v\n",
		s.Now(), s.Closed(), s.Revenue(), s.CostIncurred(), s.Surplus())
	fmt.Fprintf(&b, "implemented=%v\n", s.ImplementedOpts())
	inv := s.Invoices()
	users := make([]core.UserID, 0, len(inv))
	for u := range inv {
		users = append(users, u)
	}
	sort.Slice(users, func(i, j int) bool { return users[i] < users[j] })
	for _, u := range users {
		fmt.Fprintf(&b, "user %d paid %v\n", u, inv[u])
	}
	return b.String()
}

// randomCatalog draws a small catalog with cent-precision costs.
func randomCatalog(r *stats.RNG, n int) []sharedopt.Optimization {
	opts := make([]sharedopt.Optimization, n)
	for i := range opts {
		opts[i] = sharedopt.Optimization{
			ID:   core.OptID(i + 1),
			Cost: econ.FromCents(int64(200 + r.Intn(1800))),
		}
	}
	return opts
}

// randomValues draws per-slot values for a [start, end] bid.
func randomValues(r *stats.RNG, start, end core.Slot) []econ.Money {
	vals := make([]econ.Money, int(end-start+1))
	for i := range vals {
		vals[i] = econ.FromCents(int64(r.Intn(800)))
	}
	return vals
}

// driveRandomWorkload runs one seeded randomized workload against js,
// returning one state snapshot per journaled record (snaps[k] is the
// state after record k+1). The mix includes valid bids, revisions-as-
// duplicates (idempotent no-ops), deliberately invalid bids (rejected,
// never journaled), slot advances, and a possible early close.
func driveRandomWorkload(t *testing.T, r *stats.RNG, js *JournaledService, m *MemLog,
	kind sharedopt.GameKind, catalog []sharedopt.Optimization, horizon core.Slot) []string {
	t.Helper()
	snaps := []string{snapshotService(js.Service())} // after the config record

	recordCount := func() int {
		recs, _, torn := ReadJournal(m.Bytes())
		if torn {
			t.Fatal("live journal torn without fault injection")
		}
		return len(recs)
	}
	snap := func() {
		for n := recordCount(); len(snaps) < n; {
			snaps = append(snaps, snapshotService(js.Service()))
		}
	}

	type accepted struct {
		opt core.OptID
		a   core.OnlineBid
		s   core.OnlineSubstBid
	}
	var bids []accepted
	nextUser := core.UserID(1)

	submit := func(now core.Slot) {
		start := now + 1 + core.Slot(r.Intn(int(horizon-now)))
		end := start + core.Slot(r.Intn(int(horizon-start)+1))
		u := nextUser
		nextUser++
		if kind == sharedopt.Additive {
			opt := catalog[r.Intn(len(catalog))].ID
			bid := core.OnlineBid{User: u, Start: start, End: end, Values: randomValues(r, start, end)}
			if err := js.SubmitAdditiveBid(opt, bid); err != nil {
				t.Fatalf("valid additive bid rejected: %v", err)
			}
			bids = append(bids, accepted{opt: opt, a: bid})
		} else {
			set := []core.OptID{catalog[r.Intn(len(catalog))].ID}
			if r.Intn(2) == 0 {
				for _, o := range catalog {
					if o.ID != set[0] && r.Intn(2) == 0 {
						set = append(set, o.ID)
					}
				}
			}
			bid := core.OnlineSubstBid{User: u, Opts: set, Start: start, End: end, Values: randomValues(r, start, end)}
			if err := js.SubmitSubstitutiveBid(bid); err != nil {
				t.Fatalf("valid substitutive bid rejected: %v", err)
			}
			bids = append(bids, accepted{s: bid})
		}
		snap()
	}

	resubmitDuplicate := func() {
		if len(bids) == 0 {
			return
		}
		before := recordCount()
		b := bids[r.Intn(len(bids))]
		var err error
		if kind == sharedopt.Additive {
			err = js.SubmitAdditiveBid(b.opt, b.a)
		} else {
			err = js.SubmitSubstitutiveBid(b.s)
		}
		if err != nil {
			t.Fatalf("duplicate resubmission not a no-op: %v", err)
		}
		if after := recordCount(); after != before {
			t.Fatalf("duplicate resubmission journaled a record (%d -> %d)", before, after)
		}
	}

	submitInvalid := func(now core.Slot) {
		before := recordCount()
		// Retroactive bid: always rejected once a slot was processed.
		if now == 0 {
			return
		}
		bad := core.OnlineBid{User: 9999, Start: now, End: now, Values: []econ.Money{econ.Dollar}}
		var err error
		if kind == sharedopt.Additive {
			err = js.SubmitAdditiveBid(catalog[0].ID, bad)
		} else {
			err = js.SubmitSubstitutiveBid(core.OnlineSubstBid{
				User: 9999, Opts: []core.OptID{catalog[0].ID},
				Start: bad.Start, End: bad.End, Values: bad.Values,
			})
		}
		if err == nil {
			t.Fatal("retroactive bid accepted")
		}
		if after := recordCount(); after != before {
			t.Fatal("rejected bid was journaled")
		}
	}

	for now := core.Slot(0); now < horizon; now++ {
		for i, k := 0, r.Intn(4); i < k; i++ {
			submit(now)
		}
		switch r.Intn(6) {
		case 0:
			resubmitDuplicate()
		case 1:
			submitInvalid(now)
		}
		if now > 0 && r.Intn(12) == 0 {
			if _, err := js.ClosePeriod(); err != nil {
				t.Fatal(err)
			}
			snap()
			return snaps
		}
		if _, err := js.AdvanceSlot(); err != nil {
			t.Fatal(err)
		}
		snap()
	}
	return snaps
}

// verifyCrashBoundaries recovers the journal image at every record
// boundary and at torn prefixes of each next record, comparing against
// the uncrashed run's snapshots. recover rebuilds state from a valid
// record prefix and renders its snapshot.
func verifyCrashBoundaries(t *testing.T, data []byte, snaps []string,
	recoverFn func(recs []Record) (string, error)) {
	t.Helper()
	bounds := recordBoundaries(data)
	if len(bounds) != len(snaps) {
		t.Fatalf("have %d record boundaries but %d snapshots", len(bounds), len(snaps))
	}
	for k, end := range bounds {
		cuts := []int{end} // exact record boundary
		if k+1 < len(bounds) {
			next := bounds[k+1]
			cuts = append(cuts, end+1, (end+next)/2, next-1) // torn tails
		}
		for _, cut := range cuts {
			if cut <= 0 || cut > len(data) {
				continue
			}
			recs, _, _ := ReadJournal(data[:cut])
			if len(recs) != k+1 {
				t.Fatalf("cut %d: surviving prefix has %d records, want %d", cut, len(recs), k+1)
			}
			got, err := recoverFn(recs)
			if err != nil {
				t.Fatalf("cut %d (after record %d): recovery failed: %v", cut, k+1, err)
			}
			if got != snaps[k] {
				t.Fatalf("cut %d (after record %d): recovered state diverged\n--- recovered ---\n%s--- uncrashed ---\n%s",
					cut, k+1, got, snaps[k])
			}
		}
	}
}

func testRecoverServiceCrashReplay(t *testing.T, kind sharedopt.GameKind) {
	for seed := uint64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := stats.NewRNG(seed)
			catalog := randomCatalog(r, 3)
			horizon := core.Slot(4 + r.Intn(5))
			var m MemLog
			js, err := NewJournaledService(kind, catalog, horizon, &m)
			if err != nil {
				t.Fatal(err)
			}
			snaps := driveRandomWorkload(t, r, js, &m, kind, catalog, horizon)
			data := m.Bytes()
			verifyCrashBoundaries(t, data, snaps, func(recs []Record) (string, error) {
				rec, err := RecoverService(recs, io.Discard)
				if err != nil {
					return "", err
				}
				return snapshotService(rec.Service()), nil
			})

			// A full recovery must also be able to continue operating:
			// replay everything into a truncated copy of the log and keep
			// journaling on it.
			var m2 MemLog
			if _, err := m2.Write(data); err != nil {
				t.Fatal(err)
			}
			recs, _, _ := ReadJournal(m2.Bytes())
			rec, err := RecoverService(recs, &m2)
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Closed() {
				if _, err := rec.AdvanceSlot(); err != nil {
					t.Fatalf("recovered service cannot continue: %v", err)
				}
			} else if _, err := rec.ClosePeriod(); err != nil {
				t.Fatalf("recovered closed service: %v", err)
			}
		})
	}
}

func TestRecoverServiceCrashReplayAdditive(t *testing.T) {
	testRecoverServiceCrashReplay(t, sharedopt.Additive)
}

func TestRecoverServiceCrashReplaySubstitutive(t *testing.T) {
	testRecoverServiceCrashReplay(t, sharedopt.Substitutive)
}

// TestRecoverIdempotentDuplicateAfterRecovery checks the idempotency
// fingerprints survive recovery: a duplicate of a pre-crash bid is still
// a no-op on the recovered service.
func TestRecoverIdempotentDuplicateAfterRecovery(t *testing.T) {
	catalog := []sharedopt.Optimization{{ID: 1, Cost: econ.FromDollars(10)}}
	var m MemLog
	js, err := NewJournaledService(sharedopt.Additive, catalog, 3, &m)
	if err != nil {
		t.Fatal(err)
	}
	bid := core.OnlineBid{User: 4, Start: 2, End: 2, Values: []econ.Money{econ.FromDollars(3)}}
	if err := js.SubmitAdditiveBid(1, bid); err != nil {
		t.Fatal(err)
	}
	recs, _, _ := ReadJournal(m.Bytes())
	rec, err := RecoverService(recs, &m)
	if err != nil {
		t.Fatal(err)
	}
	before := m.Len()
	if err := rec.SubmitAdditiveBid(1, bid); err != nil {
		t.Fatalf("duplicate after recovery: %v", err)
	}
	if m.Len() != before {
		t.Fatal("duplicate after recovery appended a record")
	}
	// A genuine revision (raised value) is NOT a duplicate and must
	// journal a new record.
	raised := core.OnlineBid{User: 4, Start: 2, End: 2, Values: []econ.Money{econ.FromDollars(5)}}
	if err := rec.SubmitAdditiveBid(1, raised); err != nil {
		t.Fatal(err)
	}
	if m.Len() == before {
		t.Fatal("revision was swallowed as a duplicate")
	}
}

// TestRecoverRejectsWrongJournalType ensures service and shard-host
// recovery refuse each other's journals.
func TestRecoverRejectsWrongJournalType(t *testing.T) {
	catalog := []sharedopt.Optimization{{ID: 1, Cost: econ.FromDollars(10)}}
	var svcLog, shardLog MemLog
	if _, err := NewJournaledService(sharedopt.Additive, catalog, 2, &svcLog); err != nil {
		t.Fatal(err)
	}
	if _, err := NewShardHost(sharedopt.Additive, catalog, 2, 0, 1, &shardLog); err != nil {
		t.Fatal(err)
	}
	svcRecs, _, _ := ReadJournal(svcLog.Bytes())
	shardRecs, _, _ := ReadJournal(shardLog.Bytes())
	if _, err := RecoverService(shardRecs, io.Discard); err == nil {
		t.Fatal("RecoverService accepted a shard journal")
	}
	if _, err := RecoverShardHost(svcRecs, io.Discard); err == nil {
		t.Fatal("RecoverShardHost accepted a service journal")
	}
	if _, err := RecoverService(nil, io.Discard); !errors.Is(err, ErrEmptyJournal) {
		t.Fatal("empty journal not rejected")
	}
}
