package resilience

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"sharedopt"
	"sharedopt/internal/core"
	"sharedopt/internal/econ"
)

// JournaledService wraps a sharedopt.Service behind a write-ahead-style
// bid journal: every accepted mutation (bid, slot advance, close) is
// appended as a checksummed record after it is applied, so a recovered
// replica replays the exact accepted sequence and reproduces invoices,
// revenue, cost and implemented state byte for byte.
//
// The mutation contract is fail-stop: a mutation returns nil only if it
// was both applied and journaled. If the journal write fails, the error
// is returned, the in-memory state may be one mutation ahead of the log,
// and every later mutation fails with ErrJournalBroken — the service
// must be discarded and rebuilt with RecoverService, which restores
// exactly the journaled prefix.
//
// Submissions are idempotent: resubmitting a bid identical to one
// already accepted returns nil without journaling or applying anything,
// which is what makes blind client retries (see Retry) safe.
type JournaledService struct {
	mu  sync.Mutex
	svc *sharedopt.Service
	j   *Journal
	// seen maps the fingerprint of each accepted submission to the
	// sequence number its journal record got, so a duplicate delivery —
	// local or over the network — can be acknowledged with the original
	// record's identity.
	seen map[string]uint64
}

// gameName maps a kind to its journaled name.
func gameName(kind sharedopt.GameKind) string { return kind.String() }

// gameKind parses a journaled game name.
func gameKind(name string) (sharedopt.GameKind, error) {
	switch name {
	case sharedopt.Additive.String():
		return sharedopt.Additive, nil
	case sharedopt.Substitutive.String():
		return sharedopt.Substitutive, nil
	default:
		return 0, fmt.Errorf("resilience: unknown game kind %q", name)
	}
}

// optCosts converts a catalog to its journaled form.
func optCosts(opts []sharedopt.Optimization) []OptCost {
	out := make([]OptCost, len(opts))
	for i, o := range opts {
		out[i] = OptCost{ID: o.ID, Cost: o.Cost}
	}
	return out
}

// catalogOf converts journaled costs back to a catalog.
func catalogOf(opts []OptCost) []sharedopt.Optimization {
	out := make([]sharedopt.Optimization, len(opts))
	for i, o := range opts {
		out[i] = sharedopt.Optimization{ID: o.ID, Cost: o.Cost}
	}
	return out
}

// newService constructs the underlying service for a kind.
func newService(kind sharedopt.GameKind, opts []sharedopt.Optimization, horizon sharedopt.Slot) (*sharedopt.Service, error) {
	if kind == sharedopt.Additive {
		return sharedopt.NewAdditiveService(opts, horizon)
	}
	return sharedopt.NewSubstitutiveService(opts, horizon)
}

// NewJournaledService opens a fresh journaled pricing period on w,
// writing the service-config record before returning. w is the durable
// log target — a *MemLog, a *FileLog, or any io.Writer whose Write is
// atomic per call.
func NewJournaledService(kind sharedopt.GameKind, opts []sharedopt.Optimization, horizon sharedopt.Slot, w io.Writer) (*JournaledService, error) {
	if kind != sharedopt.Additive && kind != sharedopt.Substitutive {
		return nil, fmt.Errorf("resilience: unknown game kind %v", kind)
	}
	svc, err := newService(kind, opts, horizon)
	if err != nil {
		return nil, err
	}
	j := NewJournal(w)
	if err := j.Append(Record{
		Kind:    KindServiceConfig,
		Game:    gameName(kind),
		Horizon: horizon,
		Opts:    optCosts(opts),
	}); err != nil {
		return nil, err
	}
	return newJournaledOn(svc, j), nil
}

// newJournaledOn wraps an existing service over an existing journal —
// the shared path for recovery and for period-manager periods.
func newJournaledOn(svc *sharedopt.Service, j *Journal) *JournaledService {
	return &JournaledService{svc: svc, j: j, seen: make(map[string]uint64)}
}

// additiveBidRecord builds the journal record of an additive submission.
func additiveBidRecord(opt core.OptID, bid core.OnlineBid) Record {
	return Record{
		Kind: KindAdditiveBid, User: bid.User, Opt: opt,
		Start: bid.Start, End: bid.End,
		Values: append([]econ.Money(nil), bid.Values...),
	}
}

// substBidRecord builds the journal record of a substitutive submission.
func substBidRecord(bid core.OnlineSubstBid) Record {
	return Record{
		Kind: KindSubstBid, User: bid.User,
		Set:   append([]core.OptID(nil), bid.Opts...),
		Start: bid.Start, End: bid.End,
		Values: append([]econ.Money(nil), bid.Values...),
	}
}

// SubmitAdditiveBid journals and applies one additive bid. A submission
// byte-identical to an already-accepted one is a no-op returning nil.
func (s *JournaledService) SubmitAdditiveBid(opt core.OptID, bid core.OnlineBid) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec := additiveBidRecord(opt, bid)
	_, _, err := s.submitLocked(rec, func() error { return s.svc.SubmitAdditiveBid(opt, bid) })
	return err
}

// SubmitSubstitutiveBid journals and applies one substitutive bid, with
// the same idempotency contract as SubmitAdditiveBid.
func (s *JournaledService) SubmitSubstitutiveBid(bid core.OnlineSubstBid) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec := substBidRecord(bid)
	_, _, err := s.submitLocked(rec, func() error { return s.svc.SubmitSubstitutiveBid(bid) })
	return err
}

// SubmitRecord applies one bid record arriving from the transport layer,
// dispatching on rec.Kind. The returned seq is the journal sequence the
// submission holds — the original one when the delivery is a duplicate
// (fresh == false), so a retried or duplicated network delivery is
// acknowledged with the identity of the record it deduplicated against.
func (s *JournaledService) SubmitRecord(rec Record) (seq uint64, fresh bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch rec.Kind {
	case KindAdditiveBid:
		bid := core.OnlineBid{User: rec.User, Start: rec.Start, End: rec.End, Values: rec.Values}
		// Rebuild the canonical record so the fingerprint is identical to
		// the one a local submission of the same bid would compute.
		return s.submitLocked(additiveBidRecord(rec.Opt, bid), func() error {
			return s.svc.SubmitAdditiveBid(rec.Opt, bid)
		})
	case KindSubstBid:
		bid := core.OnlineSubstBid{User: rec.User, Opts: rec.Set, Start: rec.Start, End: rec.End, Values: rec.Values}
		return s.submitLocked(substBidRecord(bid), func() error {
			return s.svc.SubmitSubstitutiveBid(bid)
		})
	default:
		return 0, false, fmt.Errorf("resilience: submit of non-bid record kind %s", rec.Kind)
	}
}

// submitLocked runs the accept-then-journal protocol for one submission:
// duplicates short-circuit to success with the original record's seq,
// rejected bids are never journaled, and a journal failure is returned
// (wedging all later mutations) so an unjournaled accept can never be
// acknowledged.
func (s *JournaledService) submitLocked(rec Record, apply func() error) (seq uint64, fresh bool, err error) {
	if err := s.j.Err(); err != nil {
		return 0, false, fmt.Errorf("%w: %w", ErrJournalBroken, err)
	}
	// The fingerprint's bytes are also the journal payload, so the
	// record is marshalled once.
	fp := rec.zeroSeqPayload()
	if prev, ok := s.seen[string(fp)]; ok {
		return prev, false, nil
	}
	if err := apply(); err != nil {
		return 0, false, err
	}
	if err := s.j.appendPayload(fp); err != nil {
		return 0, false, err
	}
	// The journal assigned the record its next sequence number; read it
	// back so the acknowledgment names the durable position.
	seq = s.j.Seq()
	s.seen[string(fp)] = seq
	return seq, true, nil
}

// AdvanceSlot journals and processes the next billing slot.
func (s *JournaledService) AdvanceSlot() (core.SlotReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.j.Err(); err != nil {
		return core.SlotReport{}, fmt.Errorf("%w: %w", ErrJournalBroken, err)
	}
	report, err := s.svc.AdvanceSlot()
	if err != nil {
		return core.SlotReport{}, err
	}
	if err := s.j.Append(Record{Kind: KindAdvanceSlot}); err != nil {
		return core.SlotReport{}, err
	}
	return report, nil
}

// ClosePeriod journals and settles the period early. Like the underlying
// service it is idempotent; repeat closes are not journaled again.
func (s *JournaledService) ClosePeriod() (map[core.UserID]econ.Money, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.j.Err(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrJournalBroken, err)
	}
	if s.svc.Closed() {
		return s.svc.ClosePeriod() // no state change, nothing to journal
	}
	settled, err := s.svc.ClosePeriod()
	if err != nil {
		return nil, err
	}
	if err := s.j.Append(Record{Kind: KindClosePeriod}); err != nil {
		return nil, err
	}
	return settled, nil
}

// Service returns the wrapped service for read-only inspection. Mutating
// it directly bypasses the journal and voids the recovery guarantee.
func (s *JournaledService) Service() *sharedopt.Service { return s.svc }

// Kind returns the service's valuation model.
func (s *JournaledService) Kind() sharedopt.GameKind { return s.svc.Kind() }

// Horizon returns the period length in slots.
func (s *JournaledService) Horizon() sharedopt.Slot { return s.svc.Horizon() }

// Now returns the last processed slot.
func (s *JournaledService) Now() sharedopt.Slot { return s.svc.Now() }

// Closed reports whether the period has ended.
func (s *JournaledService) Closed() bool { return s.svc.Closed() }

// Invoice returns a user's settled payments, as Service.Invoice.
func (s *JournaledService) Invoice(u core.UserID) (econ.Money, bool) { return s.svc.Invoice(u) }

// Invoices returns a copy of all settled invoices.
func (s *JournaledService) Invoices() map[core.UserID]econ.Money { return s.svc.Invoices() }

// Revenue returns total payments charged so far.
func (s *JournaledService) Revenue() econ.Money { return s.svc.Revenue() }

// CostIncurred returns the summed cost of implemented optimizations.
func (s *JournaledService) CostIncurred() econ.Money { return s.svc.CostIncurred() }

// Surplus returns Revenue − CostIncurred under one lock.
func (s *JournaledService) Surplus() econ.Money { return s.svc.Surplus() }

// ImplementedOpts returns the implemented optimizations in ID order.
func (s *JournaledService) ImplementedOpts() []core.OptID { return s.svc.ImplementedOpts() }

// Broken returns the journal failure wedging this service, or nil.
func (s *JournaledService) Broken() error { return s.j.Err() }

// errCorrupt wraps a replay failure: the journal holds only accepted
// mutations, so a record the deterministic replay rejects means the log
// (not the mechanism) is damaged.
func errCorrupt(rec Record, err error) error {
	return fmt.Errorf("resilience: corrupt journal: record %d (%s) failed replay: %w", rec.Seq, rec.Kind, err)
}

// applyRecord replays one mutation record into the service, updating the
// idempotency fingerprints exactly as the original accept did.
func (s *JournaledService) applyRecord(rec Record) error {
	switch rec.Kind {
	case KindAdditiveBid:
		bid := core.OnlineBid{User: rec.User, Start: rec.Start, End: rec.End, Values: rec.Values}
		if err := s.svc.SubmitAdditiveBid(rec.Opt, bid); err != nil {
			return errCorrupt(rec, err)
		}
	case KindSubstBid:
		bid := core.OnlineSubstBid{User: rec.User, Opts: rec.Set, Start: rec.Start, End: rec.End, Values: rec.Values}
		if err := s.svc.SubmitSubstitutiveBid(bid); err != nil {
			return errCorrupt(rec, err)
		}
	case KindAdvanceSlot:
		if _, err := s.svc.AdvanceSlot(); err != nil {
			return errCorrupt(rec, err)
		}
		return nil
	case KindClosePeriod:
		if _, err := s.svc.ClosePeriod(); err != nil {
			return errCorrupt(rec, err)
		}
		return nil
	default:
		return fmt.Errorf("resilience: corrupt journal: unexpected %s record %d", rec.Kind, rec.Seq)
	}
	s.seen[rec.fingerprint()] = rec.Seq
	return nil
}

// ErrEmptyJournal is returned by Recover* when the journal holds no
// config record to rebuild from.
var ErrEmptyJournal = errors.New("resilience: empty journal")

// RecoverService rebuilds a journaled service by replaying recs — the
// valid record prefix from ReadJournal or OpenFileLog — and resumes
// appending to w at the next sequence number. Because the journal holds
// exactly the accepted mutations in accepted order and every mechanism
// is deterministic, the recovered invoices, revenue, cost and
// implemented state are byte-identical to the pre-crash service's.
//
// w must be positioned after the last valid record: the truncated
// original log (OpenFileLog does this; MemLog.Truncate for tests), or
// any fresh writer if the journal content is being migrated.
func RecoverService(recs []Record, w io.Writer) (*JournaledService, error) {
	if len(recs) == 0 {
		return nil, ErrEmptyJournal
	}
	cfg := recs[0]
	if cfg.Kind != KindServiceConfig {
		return nil, fmt.Errorf("resilience: journal opens with %s record, want %s", cfg.Kind, KindServiceConfig)
	}
	kind, err := gameKind(cfg.Game)
	if err != nil {
		return nil, err
	}
	svc, err := newService(kind, catalogOf(cfg.Opts), cfg.Horizon)
	if err != nil {
		return nil, fmt.Errorf("resilience: corrupt journal: config rejected: %w", err)
	}
	js := newJournaledOn(svc, NewJournalAt(w, recs[len(recs)-1].Seq))
	for _, rec := range recs[1:] {
		if err := js.applyRecord(rec); err != nil {
			return nil, err
		}
	}
	return js, nil
}
