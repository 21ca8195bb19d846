package main

import (
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sharedopt"
	"sharedopt/internal/core"
	"sharedopt/internal/resilience"
	"sharedopt/internal/resilience/transport"
)

// shards is the tier's shard count in every tier workload.
const shards = 2

// tcpCallTimeout bounds each TCP shard call. It is far above any
// healthy round trip on loopback TCP; reaching it is a failure.
const tcpCallTimeout = 30 * time.Second

// bidder is the submit surface the tier and a plain Service share.
type bidder interface {
	SubmitAdditiveBid(core.OptID, core.OnlineBid) error
	SubmitSubstitutiveBid(core.OnlineSubstBid) error
}

func submitTo(b bidder, s sub) error {
	if s.sb.Opts != nil {
		return b.SubmitSubstitutiveBid(s.sb)
	}
	return b.SubmitAdditiveBid(s.opt, s.add)
}

// tierBench runs one tier workload: a stream driven through a sharded
// tier over loopback or TCP shards by closed-loop submitters, each
// owning the users whose id is its index modulo the submitter count, so
// a user's submissions reach the tier in stream order.
type tierBench struct {
	st         *stream
	tcp        bool
	submitters int
	// parts[w][p] are window w's submissions owned by submitter p, and
	// ids[w][p] their indices in the stream (the per-bid ids).
	parts      [][][]sub
	ids        [][][]int64
	freshShard [shards]uint64 // accepted (non-duplicate) bids per shard
	accepted   int
	keys       *bidKeys
	lay        tierLayers
	core       coreAgg
	// wire, set on the traced run of a loopback workload, is the same
	// stream over TCP shards: each traced loopback period is followed
	// by a traced TCP period, which gives the transport.* figures and
	// must settle byte for byte like the loopback tier.
	wire *tierBench
	// want is the outcome every period must settle to: the digest of
	// a plain-Service replay of the accepted bids (loopback), or of a
	// checked loopback tier period (TCP).
	want outcome
}

func newTierBench(st *stream, tcp bool, submitters int) *tierBench {
	b := &tierBench{st: st, tcp: tcp, submitters: submitters, keys: newBidKeys(st)}
	id := int64(0)
	for _, win := range st.windows {
		parts := make([][]sub, submitters)
		ids := make([][]int64, submitters)
		for _, s := range win {
			p := int(s.user()) % submitters
			parts[p] = append(parts[p], s)
			ids[p] = append(ids[p], id)
			id++
			if s.kind != duplicate {
				b.freshShard[resilience.ShardFor(s.user(), shards)]++
				b.accepted++
			}
		}
		b.parts = append(b.parts, parts)
		b.ids = append(b.ids, ids)
	}
	return b
}

// rig is one constructed tier and what must be torn down with it, plus
// the traced seams' exact counts.
type rig struct {
	svc     *resilience.ShardedService
	servers []*transport.ShardServer
	clients []*transport.ShardClient
	journal atomic.Int64 // journal bytes written
	links   linkCounts
	conns   connCounts
}

func (r *rig) close() {
	for _, c := range r.clients {
		c.Close()
	}
	for _, s := range r.servers {
		s.Close()
	}
}

// build constructs the tier. Untraced loopback tiers come from
// NewShardedService; traced or TCP tiers assemble NewShardHost hosts by
// hand, so the seams can be decorated, and hand the links to
// NewShardedServiceOver. On TCP each host sits behind a ShardServer on
// 127.0.0.1 and the router reaches it through a ShardClient.
func (b *tierBench) build(tr *tracer) (*rig, error) {
	st := b.st
	r := &rig{}
	if !b.tcp && tr == nil {
		writers := make([]io.Writer, shards)
		for i := range writers {
			writers[i] = &resilience.MemLog{}
		}
		svc, err := resilience.NewShardedService(st.game, st.opts, st.horizon, writers, resilience.ShardedConfig{})
		if err != nil {
			return nil, err
		}
		r.svc = svc
		return r, nil
	}
	links := make([]resilience.ShardTransport, shards)
	for i := range links {
		var w io.Writer = &resilience.MemLog{}
		if tr != nil {
			w = &tracedJournal{w: w, tr: tr, shard: i, bytes: &r.journal}
		}
		h, err := resilience.NewShardHost(st.game, st.opts, st.horizon, i, shards, w)
		if err != nil {
			r.close()
			return nil, err
		}
		var link resilience.ShardTransport = h
		if tr != nil {
			link = &tracedLink{next: h, tr: tr, shard: i, host: true, keys: b.keys.counter()}
		}
		if b.tcp {
			srv := transport.NewShardServer(link)
			r.servers = append(r.servers, srv)
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				r.close()
				return nil, err
			}
			dial := func() (net.Conn, error) {
				r.conns.dials.Add(1)
				c, err := net.Dial("tcp", addr)
				if err != nil {
					return nil, err
				}
				return countingConn{Conn: c, c: &r.conns}, nil
			}
			client, err := transport.NewShardClient(transport.ClientConfig{Dial: dial, CallTimeout: tcpCallTimeout, Shard: i})
			if err != nil {
				r.close()
				return nil, err
			}
			r.clients = append(r.clients, client)
			link = client
		}
		if tr != nil {
			link = &tracedLink{next: link, tr: tr, shard: i, keys: b.keys.counter(), counts: &r.links}
		}
		links[i] = link
	}
	svc, err := resilience.NewShardedServiceOver(st.game, st.opts, st.horizon, links, resilience.ShardedConfig{})
	if err != nil {
		r.close()
		return nil, err
	}
	r.svc = svc
	return r, nil
}

// period builds a tier, runs the stream through it once, reads out the
// invoices and checks them, and returns the period's figures. With a
// tracer the calls into the tier are recorded as spans.
func (b *tierBench) period(tr *tracer) (*period, error) {
	p := &period{accepted: b.accepted}
	t0 := time.Now()
	r, err := b.build(tr)
	if err != nil {
		return nil, fmt.Errorf("building tier: %w", err)
	}
	p.setup = time.Since(t0)

	// Latency buffers are sized up front so the timed phase allocates
	// only what the tier allocates.
	lat := make([][]time.Duration, b.submitters)
	for i := range lat {
		n := 0
		for w := range b.parts {
			n += len(b.parts[w][i])
		}
		lat[i] = make([]time.Duration, 0, n)
	}
	p.advances = make([]time.Duration, 0, len(b.parts))
	fails := make([]int, b.submitters)
	drive := func(i, w int) {
		ids := b.ids[w][i]
		for k, s := range b.parts[w][i] {
			ts := tr.start()
			t := time.Now()
			err := submitTo(r.svc, s)
			lat[i] = append(lat[i], time.Since(t))
			tr.record(tierSubmit, ids[k], 0, ts)
			if err != nil {
				fails[i]++
				reportFailure("submit", err)
			}
		}
	}
	settle := func(name spanName, key int64, op func() error) {
		ts := tr.start()
		t := time.Now()
		err := op()
		d := time.Since(t)
		tr.record(name, key, 0, ts)
		p.settle += d
		p.attempted++
		if name == tierAdvance {
			p.advances = append(p.advances, d)
		}
		if err != nil {
			p.failed++
			reportFailure(name.String(), err)
		}
	}

	m0 := memAfterGC()
	start := time.Now()
	for w := range b.parts {
		if b.submitters == 1 {
			drive(0, w)
		} else {
			var wg sync.WaitGroup
			wg.Add(b.submitters)
			for i := 0; i < b.submitters; i++ {
				go func() {
					defer wg.Done()
					drive(i, w)
				}()
			}
			wg.Wait()
		}
		settle(tierAdvance, int64(w+1), func() error { _, err := r.svc.AdvanceSlot(); return err })
	}
	settle(tierClose, closeKey, func() error { _, err := r.svc.ClosePeriod(); return err })
	p.wall = time.Since(start)
	m1 := readMem()
	p.alloc = m1.TotalAlloc - m0.TotalAlloc
	p.gcs = m1.NumGC - m0.NumGC
	var all []time.Duration
	for i := range lat {
		all = append(all, lat[i]...)
		p.attempted += len(lat[i])
		p.failed += fails[i]
	}
	p.submitLatency(all)

	inv := r.svc.Invoices()
	rev, cost, sur := r.svc.Revenue(), r.svc.CostIncurred(), r.svc.Surplus()
	impl := r.svc.ImplementedOpts()
	counters := r.svc.ShardStats()
	p.checkOutcome(outcomeOf(inv, rev, cost, impl), b.want)
	if sur < 0 {
		p.check("tier surplus %v < 0", sur)
	}
	p.checkCounters(counters, b.freshShard, r.svc.WedgedShards())
	p.seams = seamCounts{
		journalBytes: r.journal.Load(),
		submits:      r.links.submits.Load(),
		fresh:        r.links.fresh.Load(),
		dials:        r.conns.dials.Load(),
		writes:       r.conns.writes.Load(),
		wireBytes:    r.conns.bytes.Load(),
	}
	p.finishHeap(memAfterGC().HeapAlloc, func() { r.close(); r = nil })
	return p, nil
}

// checkCounters reconciles ShardStats exactly: every fresh bid was
// accepted on its shard and settled, nothing is pending, and nothing was
// refused.
func (p *period) checkCounters(cs []resilience.ShardCounters, fresh [shards]uint64, wedged []int) {
	for i, c := range cs {
		if c.Accepted != fresh[i] || c.Settled != c.Accepted || c.Pending != 0 {
			p.check("shard %d counters accepted=%d settled=%d pending=%d, want accepted=settled=%d pending=0",
				i, c.Accepted, c.Settled, c.Pending, fresh[i])
		}
		if c.Rejected+c.Overloaded+c.ReadOnly+c.Unavailable != 0 {
			p.check("shard %d refused work: %+v", i, c)
		}
	}
	if len(wedged) > 0 {
		p.check("wedged shards %v", wedged)
	}
}

// replay submits the stream's accepted bids into a plain Service in the
// tier's fold order — window by window, shard index order outside,
// stream order within a shard — and returns the settled outcome. With a
// tracer its calls are also recorded as core spans and timed into c.
func (b *tierBench) replay(tr *tracer, c *coreAgg) (outcome, error) {
	st := b.st
	svc, err := newService(st.game, st.opts, st.horizon)
	if err != nil {
		return outcome{}, err
	}
	base := int64(0)
	for w, win := range st.windows {
		for shard := 0; shard < shards; shard++ {
			for k, s := range win {
				if s.kind == duplicate || resilience.ShardFor(s.user(), shards) != shard {
					continue
				}
				ts := tr.start()
				t := time.Now()
				err := submitTo(svc, s)
				if tr != nil {
					c.submits = append(c.submits, float64(time.Since(t))/1e3)
					tr.record(coreSubmit, base+int64(k), 0, ts)
				}
				if err != nil {
					return outcome{}, fmt.Errorf("replaying bid of user %d: %w", s.user(), err)
				}
			}
		}
		base += int64(len(win))
		ts := tr.start()
		t := time.Now()
		rep, err := svc.AdvanceSlot()
		if tr != nil {
			c.addAdvance(w+1, time.Since(t))
			tr.record(coreAdvance, int64(w+1), 0, ts)
		}
		if err != nil {
			return outcome{}, fmt.Errorf("replaying slot %d: %w", w+1, err)
		}
		if w == 0 {
			c.grants, c.activeGrants = 0, 0
		}
		c.grants += len(rep.NewGrants)
		c.activeGrants += len(rep.Active)
	}
	if _, err := svc.ClosePeriod(); err != nil {
		return outcome{}, err
	}
	if s := svc.Surplus(); s < 0 {
		return outcome{}, fmt.Errorf("replay surplus %v < 0", s)
	}
	return outcomeOf(svc.Invoices(), svc.Revenue(), svc.CostIncurred(), svc.ImplementedOpts()), nil
}

// prepare computes the reference outcome every period must settle to:
// the plain-Service replay of the stream's accepted bids.
func (b *tierBench) prepare() error {
	want, err := b.replay(nil, &b.core)
	if err != nil {
		return err
	}
	b.want = want
	if b.wire != nil {
		b.wire.want = want
	}
	pr := b.st.measure()
	b.core.usersEver, b.core.liveP50 = pr.UsersEver, pr.LiveUsersP50
	return nil
}

// setup times one tier construction and tears it down.
func (b *tierBench) setup() (time.Duration, error) {
	t := time.Now()
	r, err := b.build(nil)
	d := time.Since(t)
	if err != nil {
		return 0, err
	}
	r.close()
	return d, nil
}

// tierLayers accumulates the traced tier figures.
type tierLayers struct {
	submitSelf, hostSelf, journalW, client, wire []float64 // µs per call
	hostAdvance, advanceSelf                     []float64 // ms per period
	seams                                        seamCounts
	accepted, periods                            int64
}

// add folds one traced period's spans and seam counts.
func (l *tierLayers) add(spans []span, p *period) {
	link(spans)
	self := selfTimes(spans)
	var hostAdv, advSelf int64
	for i, s := range spans {
		switch s.name {
		case tierSubmit:
			l.submitSelf = append(l.submitSelf, float64(self[i])/1e3)
		case hostSubmit:
			l.hostSelf = append(l.hostSelf, float64(self[i])/1e3)
		case journalWrite:
			if s.parent >= 0 && spans[s.parent].name == hostSubmit {
				l.journalW = append(l.journalW, float64(s.dur())/1e3)
			}
		case linkSubmit:
			l.client = append(l.client, float64(s.dur())/1e3)
			l.wire = append(l.wire, float64(self[i])/1e3)
		case linkAdvance, linkClose:
			hostAdv += s.dur()
		case tierAdvance, tierClose:
			advSelf += self[i]
		}
	}
	l.hostAdvance = append(l.hostAdvance, float64(hostAdv)/1e6)
	l.advanceSelf = append(l.advanceSelf, float64(advSelf)/1e6)
	l.seams.journalBytes += p.seams.journalBytes
	l.seams.submits += p.seams.submits
	l.seams.fresh += p.seams.fresh
	l.seams.dials += p.seams.dials
	l.seams.writes += p.seams.writes
	l.seams.wireBytes += p.seams.wireBytes
	l.accepted += int64(p.accepted)
	l.periods++
}

// observe folds a traced period's spans into the layer figures, then
// replays the period's accepted bids into a standalone Service for the
// mechanism layer and checks the replay settles like the tier. With a
// TCP twin it also runs one traced TCP period.
func (b *tierBench) observe(tr *tracer, p *period) {
	b.lay.add(tr.spans, p)
	got, err := b.replay(tr, &b.core)
	if err != nil {
		p.check("core replay: %v", err)
	} else if got != b.want {
		p.check("core replay settled to %s, want %s", got, b.want)
	}
	if b.wire == nil {
		return
	}
	wt := newTracer()
	wp, err := b.wire.period(wt)
	if err != nil {
		p.check("TCP period: %v", err)
		return
	}
	p.checks = append(p.checks, wp.checks...)
	p.attempted += wp.attempted
	p.failed += wp.failed
	b.wire.lay.add(wt.spans, wp)
}

// layers writes the tier's per-layer metrics.
func (b *tierBench) layers(v map[string]float64) {
	l := &b.lay
	v["resilience.submit_self_us"] = median(l.submitSelf)
	v["resilience.host_submit_us"] = median(l.hostSelf)
	v["resilience.journal_write_us"] = median(l.journalW)
	v["resilience.journal_bytes_per_bid"] = float64(l.seams.journalBytes) / float64(l.accepted)
	v["resilience.fresh_ratio"] = float64(l.seams.fresh) / float64(l.seams.submits)
	v["resilience.host_advance_ms"] = median(l.hostAdvance)
	v["resilience.advance_self_ms"] = median(l.advanceSelf)
	if b.wire != nil {
		l = &b.wire.lay
	}
	v["transport.client_submit_us"] = median(l.client)
	v["transport.wire_us"] = median(l.wire)
	v["transport.bytes_per_bid"] = float64(l.seams.wireBytes) / float64(l.seams.submits)
	v["transport.writes_per_bid"] = float64(l.seams.writes) / float64(l.seams.submits)
	v["transport.dials"] = float64(l.seams.dials) / float64(l.periods)
	b.core.fill(v)
}

func newService(kind sharedopt.GameKind, opts []sharedopt.Optimization, horizon core.Slot) (*sharedopt.Service, error) {
	if kind == sharedopt.Additive {
		return sharedopt.NewAdditiveService(opts, horizon)
	}
	return sharedopt.NewSubstitutiveService(opts, horizon)
}

// memAfterGC forces a collection and reads the memory statistics.
func memAfterGC() runtime.MemStats {
	runtime.GC()
	return readMem()
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}
