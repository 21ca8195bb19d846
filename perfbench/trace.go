package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"sharedopt/internal/core"
	"sharedopt/internal/resilience"
)

// spanName names the layer boundary a span was recorded at.
type spanName uint8

const (
	tierSubmit   spanName = iota // the client's ShardedService.Submit*Bid call
	tierAdvance                  // ShardedService.AdvanceSlot
	tierClose                    // ShardedService.ClosePeriod
	linkSubmit                   // the router's ShardTransport.Submit (loopback host or TCP client)
	linkAdvance                  // the router's ShardTransport.Advance
	linkClose                    // the router's ShardTransport.ClosePeriod
	hostSubmit                   // ShardHost.Submit (behind the ShardServer on TCP)
	hostAdvance                  // ShardHost.Advance
	hostClose                    // ShardHost.ClosePeriod
	journalWrite                 // one Write on a shard's journal sink
	coreSubmit                   // sharedopt.Service.Submit*Bid in the replay
	coreAdvance                  // sharedopt.Service.AdvanceSlot in the replay
	haloFind                     // astro.HaloFinder.Find
	viewBuild                    // astro.Tracker.MaterializeView
	workloadRun                  // astro.Tracker.RunWorkload
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"tier.submit", "tier.advance", "tier.close",
	"link.submit", "link.advance", "link.close",
	"host.submit", "host.advance", "host.close",
	"journal.write", "core.submit", "core.advance",
	"astro.halo_find", "astro.view_build", "astro.workload",
}

func (n spanName) String() string { return spanNames[n] }

// span is one timed call at a layer boundary. key is the per-bid id
// (the submission's index in the stream) for submit spans, and the
// settlement window for advance and close spans. aux carries what a
// child needs to find its parent: shard<<40|seq for a fresh host submit
// and for a journal write, the shard for per-shard settlement spans.
type span struct {
	name       spanName
	parent     int32 // index of the parent span, -1 for a root
	key        int64
	aux        int64
	start, end int64 // nanoseconds since the tracer's epoch
}

func (s span) dur() int64 { return s.end - s.start }

// tracer keeps spans in memory; spans are linked to their parents after
// the traced period ends, so recording costs one clock read, one lock
// and one append.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// record appends a span that started at start and ends now. A nil
// tracer records nothing, so untraced code paths share the call sites.
func (t *tracer) record(name spanName, key, aux, start int64) {
	if t == nil {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, parent: -1, key: key, aux: aux, start: start, end: end})
	t.mu.Unlock()
}

// start reads the clock, or returns 0 on a nil tracer.
func (t *tracer) start() int64 {
	if t == nil {
		return 0
	}
	return t.now()
}

func shardSeq(shard int, seq uint64) int64 { return int64(shard)<<40 | int64(seq) }

// link sets every span's parent from the layer hierarchy: a submit's
// link span belongs to its tier span and its host span to its link
// span (matched by per-bid id), a journal write to the fresh host submit
// that got its sequence number or else to the settlement host span of
// its shard it falls inside, and settlement spans to the span one layer
// up with the same window (and shard).
func link(spans []span) {
	type wk struct {
		name     spanName
		key, aux int64
	}
	idx := make(map[wk]int32, len(spans))
	for i, s := range spans {
		switch s.name {
		case tierSubmit, tierAdvance, tierClose, linkSubmit:
			idx[wk{s.name, s.key, 0}] = int32(i)
		case linkAdvance, linkClose:
			idx[wk{s.name, s.key, s.aux}] = int32(i)
		case hostSubmit:
			idx[wk{s.name, s.key, 0}] = int32(i)
			if s.aux >= 0 {
				idx[wk{journalWrite, 0, s.aux}] = int32(i)
			}
		}
	}
	// Settlement host spans per shard, for journal writes of markers.
	settling := make(map[int64][]int32)
	for i, s := range spans {
		if s.name == hostAdvance || s.name == hostClose {
			settling[s.aux] = append(settling[s.aux], int32(i))
		}
	}
	find := func(k wk) int32 {
		if p, ok := idx[k]; ok {
			return p
		}
		return -1
	}
	for i := range spans {
		s := &spans[i]
		s.parent = -1
		switch s.name {
		case linkSubmit:
			s.parent = find(wk{tierSubmit, s.key, 0})
		case hostSubmit:
			s.parent = find(wk{linkSubmit, s.key, 0})
		case linkAdvance:
			s.parent = find(wk{tierAdvance, s.key, 0})
		case linkClose:
			s.parent = find(wk{tierClose, s.key, 0})
		case hostAdvance:
			s.parent = find(wk{linkAdvance, s.key, s.aux})
		case hostClose:
			s.parent = find(wk{linkClose, s.key, s.aux})
		case journalWrite:
			if p := find(wk{journalWrite, 0, s.aux}); p >= 0 {
				s.parent = p
				s.key = spans[p].key
				continue
			}
			for _, p := range settling[s.aux>>40] {
				if spans[p].start <= s.start && s.end <= spans[p].end {
					s.parent = p
					s.key = spans[p].key
					break
				}
			}
		}
	}
}

// selfTimes returns every span's duration minus the part of its
// interval that its children cover (overlapping children count once).
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(s, spans, children[int32(i)])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, spans []span, kids []int32) int64 {
	if len(kids) == 0 {
		return 0
	}
	ivs := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(spans[k].start, parent.start), min(spans[k].end, parent.end)
		if hi > lo {
			ivs = append(ivs, [2]int64{lo, hi})
		}
	}
	slices.SortFunc(ivs, func(a, b [2]int64) int { return int(a[0] - b[0]) })
	var total, curLo, curHi int64
	for i, iv := range ivs {
		if i == 0 || iv[0] > curHi {
			total += curHi - curLo
			curLo, curHi = iv[0], iv[1]
		} else if iv[1] > curHi {
			curHi = iv[1]
		}
	}
	return total + curHi - curLo
}

// writeSpans writes spans as CSV: index, parent, name, key, aux, start
// and end in nanoseconds since the tracer's epoch.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,name,key,aux,start_ns,end_ns")
	for i, s := range spans {
		fmt.Fprintf(w, "%d,%d,%s,%d,%d,%d,%d\n", i, s.parent, s.name, s.key, s.aux, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// bidKeys recovers the per-bid id of a submission seen at a layer that
// only has the record: a user's submissions reach every layer in
// stream order (one submitter owns each user), so the n-th record of
// user u at any layer is the n-th stream submission of u.
type bidKeys struct {
	byUser map[core.UserID][]int64
}

func newBidKeys(st *stream) *bidKeys {
	k := &bidKeys{byUser: make(map[core.UserID][]int64)}
	id := int64(0)
	for _, win := range st.windows {
		for _, s := range win {
			k.byUser[s.user()] = append(k.byUser[s.user()], id)
			id++
		}
	}
	return k
}

// keyCounter is one layer's position in every user's submissions.
type keyCounter struct {
	keys *bidKeys
	mu   sync.Mutex
	seen map[core.UserID]int
}

func (k *bidKeys) counter() *keyCounter {
	return &keyCounter{keys: k, seen: make(map[core.UserID]int)}
}

func (c *keyCounter) next(u core.UserID) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.seen[u]
	c.seen[u] = n + 1
	if ids := c.keys.byUser[u]; n < len(ids) {
		return ids[n]
	}
	return -1
}

// linkCounts are the exact counts the router-side link decorator keeps.
type linkCounts struct {
	submits, fresh atomic.Int64
}

// tracedLink decorates a ShardTransport with one span per call. The
// router-side instance (names link.*) also counts submits and fresh
// acknowledgments; the host-side one (names host.*) records the
// shard/sequence pair journal writes are matched by.
type tracedLink struct {
	next   resilience.ShardTransport
	tr     *tracer
	shard  int
	host   bool
	keys   *keyCounter
	counts *linkCounts
}

func (l *tracedLink) names() (submit, adv, cls spanName) {
	if l.host {
		return hostSubmit, hostAdvance, hostClose
	}
	return linkSubmit, linkAdvance, linkClose
}

// Submit implements resilience.ShardTransport.
func (l *tracedLink) Submit(ctx context.Context, rec resilience.Record) (resilience.SubmitResult, error) {
	key := l.keys.next(rec.User)
	start := l.tr.now()
	res, err := l.next.Submit(ctx, rec)
	name, _, _ := l.names()
	aux := int64(-1)
	if err == nil && res.Fresh {
		aux = shardSeq(l.shard, res.Seq)
	}
	l.tr.record(name, key, aux, start)
	if l.counts != nil {
		l.counts.submits.Add(1)
		if err == nil && res.Fresh {
			l.counts.fresh.Add(1)
		}
	}
	return res, err
}

// Advance implements resilience.ShardTransport.
func (l *tracedLink) Advance(ctx context.Context, window int) error {
	start := l.tr.now()
	err := l.next.Advance(ctx, window)
	_, name, _ := l.names()
	l.tr.record(name, int64(window), int64(l.shard), start)
	return err
}

// ClosePeriod implements resilience.ShardTransport.
func (l *tracedLink) ClosePeriod(ctx context.Context) error {
	start := l.tr.now()
	err := l.next.ClosePeriod(ctx)
	_, _, name := l.names()
	l.tr.record(name, closeKey, int64(l.shard), start)
	return err
}

// Stats implements resilience.ShardTransport.
func (l *tracedLink) Stats(ctx context.Context) (resilience.ShardInfo, error) {
	return l.next.Stats(ctx)
}

// closeKey is the key of every close span (a period closes once).
const closeKey = -1

// tracedJournal decorates a shard's journal sink: one span per Write
// (the journal issues exactly one Write per record), plus byte counts.
type tracedJournal struct {
	w     io.Writer
	tr    *tracer
	shard int
	bytes *atomic.Int64
}

func (j *tracedJournal) Write(p []byte) (int, error) {
	start := j.tr.now()
	n, err := j.w.Write(p)
	j.tr.record(journalWrite, -1, shardSeq(j.shard, frameSeq(p)), start)
	j.bytes.Add(int64(n))
	return n, err
}

// frameSeq reads the sequence number from a journal frame,
// "<crc32-hex8> {"seq":N,...". It returns 0 if the frame does not
// start that way.
func frameSeq(p []byte) uint64 {
	const prefix = `{"seq":`
	if len(p) < 9+len(prefix) || string(p[9:9+len(prefix)]) != prefix {
		return 0
	}
	var seq uint64
	for _, c := range p[9+len(prefix):] {
		if c < '0' || c > '9' {
			break
		}
		seq = seq*10 + uint64(c-'0')
	}
	return seq
}

// connCounts are exact wire counts over every client connection.
type connCounts struct {
	dials, writes, bytes atomic.Int64
}

// countingConn is the net.Conn a traced ClientConfig.Dial returns.
type countingConn struct {
	net.Conn
	c *connCounts
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.c.writes.Add(1)
	c.c.bytes.Add(int64(n))
	return n, err
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.c.bytes.Add(int64(n))
	return n, err
}
