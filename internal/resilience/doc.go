// Package resilience is the fault-tolerant front end around the pricing
// tier: a checksummed bid journal, deterministic crash recovery, a
// sharded durable tier with per-shard journals, admission control and
// partial-failure degradation, and seeded fault injection for testing
// all of it. The sharded tier is the one durable intake path; at one
// shard it is the single-journal service.
//
// The paper's guarantees — truthfulness and exact cost recovery — are
// economic statements about the set of accepted bids. A provider that
// loses accepted bids in a crash, or sheds them silently under load,
// breaks the mechanism even if it stays up. This package makes the
// accepted-bid set durable and the overload behavior explicit.
//
// # Journal format
//
// A journal is a line-oriented append-only log. Each record is one line:
//
//	<crc32-ieee-hex8> <payload-json>\n
//
// The checksum covers the payload bytes. The payload is a Record: a
// sequence number (strictly 1, 2, 3, …), a kind, and the mutation's
// arguments with all money in exact integer micro-dollars. A service
// journal opens with one "svc" config record (kind, horizon, catalog)
// followed by mutation records ("abid", "sbid", "adv", "close"); a shard
// journal opens with a "shard" config record that also names the shard's
// index and the tier's shard count. Each record is issued as a single
// Write to the log target (MemLog in memory, FileLog with per-record
// fsync on disk), so a crash tears at most the final record; ReadJournal
// verifies newline framing, checksum, and sequence continuity, and
// cleanly discards everything from the first damaged record on.
//
// # Recovery invariants
//
// Mutations follow accept-then-journal with fail-stop semantics: a call
// returns nil only if the mutation was applied AND journaled; the first
// journal write failure wedges the shard (ErrJournalBroken underneath
// ErrShardWedged) so an unjournaled accept can never be followed by
// further acknowledged work on it. Because every mechanism in
// internal/core is deterministic, replaying each shard journal's
// accepted prefix through RecoverShardHost — and reconciling the N
// prefixes through RecoverShardedService — reproduces invoices,
// revenue, cost, and the implemented set byte-identically,
// property-tested by crashing at every record boundary (and with torn
// tails and cross-shard process kills) of randomized workloads. A
// journaled bid the settlement game refuses on replay wedges its shard
// with ErrPolicyDiverged rather than silently settling different
// prices. RecoverService replays a standalone JournaledService journal
// the same way.
//
// # Retry and idempotency contract
//
// Each shard admits at most ShardedConfig.MaxBatch bids between slots
// and rejects overflow fast with the typed ErrOverloaded — never a
// silent drop; ShardCounters carries the exact accounting.
// ErrOverloaded (and only it) is Retryable; Retry wraps an operation in
// capped exponential backoff. Blind retries are safe because
// submissions are idempotent: a resubmission byte-identical to an
// accepted one returns success without journaling or applying anything,
// so a client that lost the first acknowledgment cannot double-bid.
// ShardedConfig.CallTimeout bounds every call the router makes to a
// shard; a call that runs out of it fails with ErrShardUnavailable,
// meaning no decision was reached — the router resubmits in-doubt bids
// at the next settlement, and an unfinished AdvanceSlot or ClosePeriod
// parks durably and is completed by calling it again.
//
// # Sharded tier
//
// ShardedService partitions durable intake across N shards, each
// wrapping its own JournaledService with its own journal and sequence
// numbers. ShardFor routes each user to one shard by a fixed hash, so
// a user's bids — and any conflicting revisions — always meet the same
// journal. Shards validate, journal, and batch bids independently
// (submitters serialize only per shard); slot settlement then folds
// every shard's batch into a single derived settlement service in
// shard-index order, bids within a shard in journal order. Because the
// mechanisms price the per-window accepted-bid SET, invoices, revenue,
// surplus, and the implemented set are byte-identical to a one-shard
// tier at any N — property-tested at N ∈ {1, 2, 4, 8}.
//
// Failure degrades per shard: the first journal failure (or a bid that
// settles inconsistently, ErrPolicyDiverged) wedges only that shard,
// whose users get the typed ErrShardWedged (read-only) while every
// other shard keeps accepting; ShardCounters carries the exact
// accounting. Only when every shard is wedged does the tier refuse to
// advance, with ErrJournalBroken. RecoverShardedService rebuilds the
// tier from the N surviving journals (any subset torn or truncated):
// each shard's accepted prefix replays independently, then the slot
// frontiers reconcile — the maximum durable frontier wins, shards
// behind it roll forward deterministically by re-journaling the
// missing markers, and their stranded tail bids settle in exactly the
// window the live tier would have folded them into. Double recovery of
// the same journals is byte-identical, wedged set included.
//
// # Network transport
//
// The router/shard seam is the ShardTransport interface: Submit,
// Advance, ClosePeriod, and Stats with context deadlines. ShardHost
// adapts a shard's JournaledService to it in-process (the loopback the
// plain constructors use); the transport subpackage carries the same
// calls over a length-prefixed TCP protocol (ShardServer/ShardClient),
// and NewShardedServiceOver builds a tier on any mix of links after a
// Stats handshake verifies each link reaches the shard the router will
// treat it as. The seam's error contract is three-valued: an error
// wrapping ErrShardUnavailable means NO DECISION was reached (timeout,
// connection loss, breaker open) and the caller may retry blindly —
// submission idempotency via journal fingerprint dedup makes a
// duplicated delivery journal exactly once, and the re-acknowledgment
// carries the original sequence number; an error wrapping
// ErrJournalBroken means the shard fail-stopped and the router wedges
// it; anything else is a definitive mechanism rejection. The client
// layers bounded seeded-jitter retries (RetryIf), a per-shard circuit
// breaker that converts a failing shard's timeout storms into fast
// typed failures with single-probe half-open recovery, and an optional
// seeded network-fault injector (drops, duplicates, reorders, resets)
// for chaos drills — cmd/pricer's -chaos-net mode asserts faulted TCP
// rounds settle byte-identical to fault-free loopback references. See
// the transport package documentation for the wire format.
//
// # Observability
//
// Instrumentation is opt-in and inert: pass an *obs.Registry in
// ShardedConfig.Obs and the tier maintains exact outcome counters
// (mirroring ShardCounters), batch high-water marks, and latency
// histograms for journal writes and slot advances — lock-free and
// allocation-free on the hot path. A nil registry costs one predicted
// nil check per hook. Metrics are bookkeeping only: an instrumented run
// produces byte-identical journals, invoices, and counters to a bare
// one (property-tested in obs_test.go). The metric name contract lives
// in obs.go and docs/metrics.md; cmd/pricer's -load mode drives the
// instrumented sharded tier to saturation and reports the knee.
//
// # Fault injection
//
// FaultWriter executes a FaultPlan — a clean write error, a short write
// with a lying nil error, or a mid-record crash that tears the tail and
// kills all later writes — against any journal target, and RandomPlan
// draws seeded schedules for sweeps. For the sharded tier,
// RandomShardPlans draws one independent plan per shard, and CrashGroup
// links the per-shard writers into one simulated process: any member
// crash (or a global write budget, KillAtWrite) stops every journal at
// the same instant, tearing at most one record on one shard — the
// cross-shard interleaving crash recovery must reconcile. cmd/pricer's
// chaos mode drives randomized workloads through the sharded tier at
// 1, 2, 4 or 8 shards — admission, journal, recovery — under these
// plans and asserts the invariants above on every schedule.
package resilience
