package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"slices"
	"sync/atomic"
	"time"

	"sharedopt/internal/core"
	"sharedopt/internal/econ"
)

// period is one measured period: set-up, then the timed phase (submit,
// settle), then the read-out of its results and their checks.
type period struct {
	setup  time.Duration // tier construction or universe generation
	wall   time.Duration // the timed phase
	settle time.Duration // Σ AdvanceSlot and ClosePeriod
	derive time.Duration // astro-derive's savings and bid derivation
	alloc  uint64        // bytes allocated in the timed phase
	gcs    uint32        // GC cycles in the timed phase
	live   uint64        // heap retained by the period's state
	// accepted is the bids_per_s numerator: accepted bids for a tier,
	// derived and priced bids for astro-derive.
	accepted int
	// sub50 and sub99 are the p50 and p99 client-observed submit
	// latency in µs; see submitLatency.
	sub50, sub99 float64
	advances     []time.Duration
	attempted    int
	failed       int
	checks       []string
	seams        seamCounts
}

// submitLatency records the period's submit latency percentiles. Only
// they are kept: a run that kept every sample would grow its heap period
// by period, and the program under test slows as the heap grows (the
// period time over the calibration kernel's rose by a third over 300 s
// of intake-subst periods that kept them, and stayed flat without).
func (p *period) submitLatency(ds []time.Duration) {
	us := durationsIn(ds, time.Microsecond)
	p.sub50, p.sub99 = quantile(us, 0.50), quantile(us, 0.99)
}

// check records a failed correctness check.
func (p *period) check(format string, args ...any) {
	p.checks = append(p.checks, fmt.Sprintf(format, args...))
}

// checkOutcome records a failed check unless the period settled to
// the reference outcome.
func (p *period) checkOutcome(got, want outcome) {
	if got != want {
		p.check("settlement differs from the reference: got %s, want %s", got, want)
	}
}

// seamCounts are the exact counts the traced seams kept in one period.
type seamCounts struct {
	journalBytes, submits, fresh, dials, writes, wireBytes int64
}

// finishHeap tears the period's state down and records how much heap it
// held: the live heap with it, less the live heap without it.
func (p *period) finishHeap(with uint64, teardown func()) {
	teardown()
	without := memAfterGC().HeapAlloc
	if with > without {
		p.live = with - without
	}
}

// outcome is a digest of a settled period: every invoice in user order,
// revenue, cost incurred and the implemented set.
type outcome [32]byte

func (o outcome) String() string { return hex.EncodeToString(o[:8]) }

func outcomeOf(inv map[core.UserID]econ.Money, revenue, cost econ.Money, impl []core.OptID) outcome {
	users := make([]core.UserID, 0, len(inv))
	for u := range inv {
		users = append(users, u)
	}
	slices.Sort(users)
	buf := make([]byte, 0, 16*len(users)+64)
	for _, u := range users {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(u))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(inv[u]))
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(revenue))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(cost))
	for _, o := range impl {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(o))
	}
	return sha256.Sum256(buf)
}

// failures counts failed operations across the run; the first few are
// described on standard error.
var failures atomic.Int64

func reportFailure(op string, err error) {
	if failures.Add(1) <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: %s failed: %v\n", op, err)
	}
}
