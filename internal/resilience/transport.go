package resilience

// The shard transport boundary. ShardedService routing talks to its
// per-shard intake through ShardTransport, an interface small enough to
// put a network under: submit one bid, make one settlement marker
// durable, close the period, report state. ShardHost is the server side
// — the durability authority that owns the shard's journal and replica —
// and doubles as the in-process loopback transport, which is how the
// single-address-space tier keeps its exact pre-transport behavior. The
// TCP client/server pair lives in internal/resilience/transport.
//
// The error contract callers rely on:
//
//   - ErrShardUnavailable (wrapped): the call did not reach a decision —
//     deadline, connection loss, breaker open. The operation's fate is
//     unknown, exactly as after a crash; submits are safe to retry
//     blindly (fingerprint dedup makes them idempotent) and markers are
//     safe to retry blindly (Advance is window-idempotent).
//   - ErrJournalBroken (wrapped): the shard decided, fail-stop. The
//     router wedges the shard (ErrShardWedged).
//   - anything else: a definitive mechanism rejection; the bid was not
//     journaled and retrying the same bytes is pointless.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"sharedopt"
	"sharedopt/internal/core"
)

// ErrShardUnavailable marks a shard transport call that reached no
// decision: the shard may or may not have journaled the operation.
// Unlike ErrShardWedged — a fail-stop verdict that makes the shard
// read-only — unavailability is transient: callers retry with backoff,
// and the circuit breaker (internal/resilience/transport) probes the
// shard until it answers again. Errors wrapping it satisfy
// errors.Is(err, ErrShardUnavailable).
var ErrShardUnavailable = errors.New("resilience: shard unavailable")

// SubmitResult acknowledges one durable submission.
type SubmitResult struct {
	// Seq is the journal sequence the submission holds on its shard. A
	// duplicate delivery is acknowledged with the original record's Seq,
	// so retried and duplicated deliveries are indistinguishable from
	// their first copy.
	Seq uint64 `json:"seq"`
	// Fresh is true when this delivery journaled the record, false when
	// fingerprint dedup matched an earlier accept.
	Fresh bool `json:"fresh,omitempty"`
}

// ShardInfo is one shard's self-description, served by Stats. The
// router's constructor handshakes on it (shard identity and tier config
// must match), and chaos harnesses reconcile Bids against client-side
// accounting.
type ShardInfo struct {
	Shard   int       `json:"shard"`
	Shards  int       `json:"shards"`
	Game    string    `json:"game"`
	Horizon core.Slot `json:"horizon"`
	Opts    []OptCost `json:"opts,omitempty"`
	// Seq is the shard journal's last assigned sequence number.
	Seq uint64 `json:"seq"`
	// Now is the shard's last durable settlement window.
	Now    core.Slot `json:"now"`
	Closed bool      `json:"closed,omitempty"`
	// Bids counts fresh (non-duplicate) bid records journaled.
	Bids uint64 `json:"bids"`
	// Broken carries the journal failure wedging the shard, or "".
	Broken string `json:"broken,omitempty"`
}

// ShardTransport is the boundary between ShardedService routing and one
// shard's durable intake. Every call takes a context whose deadline
// propagates to the far side; a call that cannot reach a decision
// returns an error wrapping ErrShardUnavailable (see the contract at the
// top of this file).
type ShardTransport interface {
	// Submit journals and applies one bid record (KindAdditiveBid or
	// KindSubstBid). Duplicates of accepted bids succeed with the
	// original Seq and Fresh == false.
	Submit(ctx context.Context, rec Record) (SubmitResult, error)
	// Advance makes settlement window's adv marker durable. It is
	// idempotent per window: a shard already at or past window returns
	// nil, so duplicated marker deliveries are safe.
	Advance(ctx context.Context, window int) error
	// ClosePeriod makes the close marker durable; idempotent.
	ClosePeriod(ctx context.Context) error
	// Stats reports the shard's identity and durable state.
	Stats(ctx context.Context) (ShardInfo, error)
}

// ShardHost is one shard's durability authority: the journaled replica
// that validates, journals, and deduplicates this shard's operations.
// It implements ShardTransport directly — that is the in-process
// loopback transport — and transport.ShardServer serves the same host
// over TCP. Methods are safe for concurrent use.
type ShardHost struct {
	mu     sync.Mutex // serializes markers and the bid counter
	js     *JournaledService
	shard  int
	shards int
	opts   []OptCost
	bids   uint64
}

// NewShardHost opens a fresh shard: a replica service plus a journal on
// w opening with the shard's config record.
func NewShardHost(kind sharedopt.GameKind, opts []sharedopt.Optimization, horizon core.Slot, shard, shards int, w io.Writer) (*ShardHost, error) {
	if kind != sharedopt.Additive && kind != sharedopt.Substitutive {
		return nil, fmt.Errorf("resilience: unknown game kind %v", kind)
	}
	if shards < 1 || shard < 0 || shard >= shards {
		return nil, fmt.Errorf("resilience: shard index %d out of range for %d shards", shard, shards)
	}
	replica, err := newService(kind, opts, horizon)
	if err != nil {
		return nil, err
	}
	j := NewJournal(w)
	if err := j.Append(shardConfigRecord(kind, opts, horizon, shard, shards)); err != nil {
		return nil, fmt.Errorf("resilience: shard %d: %w", shard, err)
	}
	return &ShardHost{js: newJournaledOn(replica, j), shard: shard, shards: shards, opts: optCosts(opts)}, nil
}

// RecoverShardHost rebuilds one shard host from its journal prefix and
// resumes appending to w — the restart path for a single killed shard
// process, and the per-shard replay RecoverShardedService runs before
// reconciling a whole tier. The replayed fingerprints restore dedup, so
// submissions accepted before the crash remain idempotent after it.
func RecoverShardHost(recs []Record, w io.Writer) (*ShardHost, error) {
	if len(recs) == 0 {
		return nil, ErrEmptyJournal
	}
	cfg := recs[0]
	if cfg.Kind != KindShardConfig {
		return nil, fmt.Errorf("resilience: shard journal opens with %s record, want %s", cfg.Kind, KindShardConfig)
	}
	kind, err := gameKind(cfg.Game)
	if err != nil {
		return nil, err
	}
	replica, err := newService(kind, catalogOf(cfg.Opts), cfg.Horizon)
	if err != nil {
		return nil, fmt.Errorf("resilience: corrupt journal: config rejected: %w", err)
	}
	h := &ShardHost{
		js:     newJournaledOn(replica, NewJournalAt(w, recs[len(recs)-1].Seq)),
		shard:  cfg.Shard,
		shards: cfg.Shards,
		opts:   cfg.Opts,
	}
	for _, rec := range recs[1:] {
		if rec.Kind == KindAdditiveBid || rec.Kind == KindSubstBid {
			h.bids++
		}
		if err := h.js.applyRecord(rec); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// brokenErr classifies a shard mutation failure for the wire: the first
// journal append failure arrives unwrapped, so if the journal is now
// broken the error gains ErrJournalBroken (fail-stop, wedge); a
// mechanism rejection passes through untouched (definitive, no retry).
func (h *ShardHost) brokenErr(err error) error {
	if err == nil || errors.Is(err, ErrJournalBroken) {
		return err
	}
	if h.js.Broken() != nil {
		return fmt.Errorf("%w: %w", ErrJournalBroken, err)
	}
	return err
}

// unavailableErr wraps a context failure as transport-level
// unavailability: the caller's deadline expired before a decision.
func unavailableErr(err error) error {
	return fmt.Errorf("%w: %w", ErrShardUnavailable, err)
}

// Submit implements ShardTransport: validate routing, then run the
// journal's accept-then-journal protocol with fingerprint dedup.
func (h *ShardHost) Submit(ctx context.Context, rec Record) (SubmitResult, error) {
	if err := ctx.Err(); err != nil {
		return SubmitResult{}, unavailableErr(err)
	}
	if rec.Kind != KindAdditiveBid && rec.Kind != KindSubstBid {
		return SubmitResult{}, fmt.Errorf("resilience: shard %d: submit of non-bid %s record", h.shard, rec.Kind)
	}
	if got := ShardFor(rec.User, h.shards); got != h.shard {
		return SubmitResult{}, fmt.Errorf("resilience: user %d routes to shard %d, delivered to shard %d", rec.User, got, h.shard)
	}
	seq, fresh, err := h.js.SubmitRecord(rec)
	if err != nil {
		return SubmitResult{}, h.brokenErr(err)
	}
	if fresh {
		h.mu.Lock()
		h.bids++
		h.mu.Unlock()
	}
	return SubmitResult{Seq: seq, Fresh: fresh}, nil
}

// Advance implements ShardTransport. Windows count 1, 2, 3, …; the
// shard's durable window is its adv-marker count. A shard already at or
// past window acknowledges without journaling (the marker this delivery
// asks for is durable), which is what makes duplicated or retried
// marker deliveries safe. A gap of more than one window means the
// caller and shard disagree on history — a protocol error, not a
// transient.
func (h *ShardHost) Advance(ctx context.Context, window int) error {
	if err := ctx.Err(); err != nil {
		return unavailableErr(err)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	now := int(h.js.Now())
	switch {
	case now >= window:
		return nil
	case now == window-1:
		_, err := h.js.AdvanceSlot()
		return h.brokenErr(err)
	default:
		return fmt.Errorf("resilience: shard %d at window %d asked to advance to %d", h.shard, now, window)
	}
}

// ClosePeriod implements ShardTransport; idempotent like the journaled
// service underneath.
func (h *ShardHost) ClosePeriod(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return unavailableErr(err)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	_, err := h.js.ClosePeriod()
	return h.brokenErr(err)
}

// Stats implements ShardTransport.
func (h *ShardHost) Stats(ctx context.Context) (ShardInfo, error) {
	if err := ctx.Err(); err != nil {
		return ShardInfo{}, unavailableErr(err)
	}
	h.mu.Lock()
	bids := h.bids
	h.mu.Unlock()
	info := ShardInfo{
		Shard:   h.shard,
		Shards:  h.shards,
		Game:    gameName(h.js.Kind()),
		Horizon: h.js.Horizon(),
		Opts:    append([]OptCost(nil), h.opts...),
		Seq:     h.js.j.Seq(),
		Now:     h.js.Now(),
		Closed:  h.js.Closed(),
		Bids:    bids,
	}
	if err := h.js.Broken(); err != nil {
		info.Broken = err.Error()
	}
	return info, nil
}

// Broken returns the journal failure wedging this host, or nil.
func (h *ShardHost) Broken() error { return h.js.Broken() }
