package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/nlstencil/amop"
	"github.com/nlstencil/amop/internal/obs"
)

// The serve workloads: an amop.Server over the seeded book, with amop-serve's
// default options, driven by the seeded tick/quote script.
//
//   - Closed loop: GOMAXPROCS callers run the script back to back, ticks
//     included. The end-to-end run does only this, on one CPU, and reports
//     the CPU time it took per quote and per VAN repricing round.
//   - Open loop (wall-clock runs only, before the closed loop): a feed
//     goroutine applies each tick at its due time and queues each quote at
//     its due time; nproc caller goroutines take quotes off the queue. A
//     quote's latency runs from its due time, so time spent queued behind a
//     slow flight counts. The feed's own lateness is the generator slip.
//
// Every quote is classified from outside: stale and degraded by the returned
// flags, fresh when the price was solved at or after the call started, and
// cached otherwise. The classes must agree with the server's counters. The
// open loop's fresh latencies use the due time instead: a quote whose price
// was solved at or after it fell due waited on a flight, whether it joined
// the flight or sat in the queue while the callers did.

// serveOpts are amop-serve's default options.
func serveOpts(tier amop.TierMode) amop.ServerOptions {
	return amop.ServerOptions{SpotBucket: 0.25, VolBucket: 0.01, RateBucket: 0.0005, MaxPending: 1024, Tier: tier}
}

// openShare is the share of the measured time spent in the open loop; the
// closed loop takes the rest.
const openShare = 0.75

// The closed loop's wall-clock throughput is the median over closedWindows
// windows, so a burst of interference (a stolen time slice on a shared
// machine, a GC cycle) moves one window, not the figure.
const closedWindows = 5

// maxLateP99 voids an open-loop run whose generator fell this far behind its
// schedule at p99: the offered load was no longer the scripted one.
const maxLateP99 = 100 * time.Millisecond

// raceWindow bounds the outside classification's blind spot. A flight
// stamps its prices (At) just before it takes the server lock to publish
// them, and a quote reads its start time just before it takes the lock.
//
//   - A quote that starts just before the stamp and takes the lock just after
//     the publish is a cache serve to the server but looks fresh from
//     outside. It waited on no flight, so it returns within raceWindow.
//   - A quote that starts just after the stamp and takes the lock just before
//     the publish finds its contract dirty and waits for the flight, so the
//     server does not count it as a cache serve, but it is served a price
//     stamped before it started and looks cached. That price is less than
//     raceWindow older than the quote.
//
// Either race needs the quote to be between its clock read and the lock
// when the flight publishes. A caller has one quote in progress at a time
// and the flight's leader is not racing its own flight, so each caller races
// each flight (each At) at most once. The count check allows each
// disagreement only up to the quotes of its own kind, one per caller and At.
// The window is wide against the microseconds these races take, so a caller
// descheduled between its clock read and the lock stays inside it.
const raceWindow = 2 * time.Millisecond

// quoteClass is the outside classification of one quote.
type quoteClass uint8

const (
	qCached quoteClass = iota
	qFresh
	qStale
	qDegraded
	qFailed
	numClasses
)

// sample is one served quote kept for the output checks.
type sample struct {
	id    int
	mkt   amop.Market
	price float64
	class quoteClass
}

// quoteLog is one caller's record of its quotes. Callers keep their own and
// the logs merge when the phase ends, so the hot loop takes no lock.
type quoteLog struct {
	counts [numClasses]int64
	// fastFresh counts fresh-looking quotes that returned within raceWindow,
	// nearCached cached-looking quotes served a price stamped less than
	// raceWindow before they started; raced holds the At stamps already
	// counted, so each counts once.
	fastFresh, nearCached int64
	raced                 map[int64]bool
	// fresh holds the open loop's fresh latencies from the due time.
	fresh   []float64
	samples []sample
	nCached int64
	errs    []string
	rec     *recorder
	lateMs  []float64
	ticks   int64
}

// Each caller keeps at most maxSamples quotes for the output checks: every
// quote that was not a cache serve, and every cachedEvery-th cache serve.
const (
	maxSamples  = 3000
	cachedEvery = 61
)

// observe classifies one quote. due is its open-loop due time; the closed
// loop passes a zero due.
func (l *quoteLog) observe(id int, due time.Time, t0, t1 time.Time, q amop.ServedQuote, err error) {
	c := qCached
	switch {
	case err != nil:
		c = qFailed
		if len(l.errs) < 4 {
			l.errs = append(l.errs, fmt.Sprintf("quote %d: %v", id, err))
		}
	case q.Degraded:
		c = qDegraded
	case q.Stale:
		c = qStale
	case !q.At.Before(t0):
		c = qFresh
	}
	l.counts[c]++
	if err != nil {
		return
	}
	if at := q.At.UnixNano(); !l.raced[at] {
		switch {
		case c == qFresh && t1.Sub(t0) < raceWindow:
			l.fastFresh++
			l.raced[at] = true
		case c == qCached && t0.Sub(q.At) < raceWindow:
			l.nearCached++
			l.raced[at] = true
		}
	}
	if !due.IsZero() && c != qStale && c != qDegraded && !q.At.Before(due) {
		l.fresh = append(l.fresh, ms(t1.Sub(due)))
	}
	keep := c != qCached
	if c == qCached {
		l.nCached++
		keep = l.nCached%cachedEvery == 0
	}
	if keep && len(l.samples) < maxSamples {
		l.samples = append(l.samples, sample{id: id, mkt: q.Market, price: q.Price, class: c})
	}
}

func (l *quoteLog) merge(o *quoteLog) {
	for i := range l.counts {
		l.counts[i] += o.counts[i]
	}
	l.fastFresh += o.fastFresh
	l.nearCached += o.nearCached
	l.fresh = append(l.fresh, o.fresh...)
	l.samples = append(l.samples, o.samples...)
	l.errs = append(l.errs, o.errs...)
	l.lateMs = append(l.lateMs, o.lateMs...)
	l.ticks += o.ticks
}

// serveRun is one serve workload process.
type serveRun struct {
	b    *book
	tier amop.TierMode
	srv  *amop.Server
	seed int64
	tr   *tracer
	chk  *checker
}

func newServeRun(seed int64, tier amop.TierMode) (*serveRun, error) {
	b := newBook(seed)
	srv, err := amop.NewServer(b.entries(), serveOpts(tier))
	if err != nil {
		return nil, fmt.Errorf("NewServer: %w", err)
	}
	return &serveRun{b: b, tier: tier, srv: srv, seed: seed, chk: &checker{}}, nil
}

func (r *serveRun) tick(l *quoteLog, o op, req int64) {
	t0 := time.Now()
	_, err := r.srv.Tick(symNames[o.sym], o.mkt)
	t1 := time.Now()
	l.rec.record(spTick, 0, req, symNames[o.sym], t0, t1)
	l.ticks++
	if err != nil {
		l.counts[qFailed]++
		l.errs = append(l.errs, fmt.Sprintf("tick %s: %v", symNames[o.sym], err))
		return
	}
	r.tr.drainFlights()
}

func (r *serveRun) quote(l *quoteLog, id int, due time.Time, req int64) {
	t0 := time.Now()
	q, err := r.srv.Quote(id)
	t1 := time.Now()
	l.rec.record(spQuote, 0, req, "", t0, t1)
	l.observe(id, due, t0, t1, q, err)
}

// openLoop runs the script on its schedule for d.
func (r *serveRun) openLoop(d time.Duration) *quoteLog {
	sc := newScript(r.b, r.seed)
	type queued struct {
		id  int
		due time.Time
		req int64
	}
	// The queue holds every quote due while both callers are blocked on a
	// flight: a second of quotes covers the slowest flight many times over.
	q := make(chan queued, int(time.Second/quoteEvery))
	callers := runtime.GOMAXPROCS(0)
	logs := make([]*quoteLog, callers)
	var wg sync.WaitGroup
	for c := range logs {
		logs[c] = &quoteLog{rec: r.tr.recorder(), raced: make(map[int64]bool)}
		wg.Add(1)
		go func(l *quoteLog) {
			defer wg.Done()
			for x := range q {
				r.quote(l, x.id, x.due, x.req)
			}
		}(logs[c])
	}
	feed := &quoteLog{rec: r.tr.recorder()}
	start := time.Now()
	for seq := int64(1); ; seq++ {
		o := sc.next()
		if o.due >= d {
			break
		}
		due := start.Add(o.due)
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		feed.lateMs = append(feed.lateMs, ms(time.Since(due)))
		if o.kind == opTick {
			r.tick(feed, o, seq)
			continue
		}
		q <- queued{id: o.id, due: due, req: seq}
	}
	close(q)
	wg.Wait()
	for _, l := range logs {
		l.rec.flush()
		feed.merge(l)
	}
	feed.rec.flush()
	return feed
}

// closedStats is what the closed loop measured besides its quote log.
type closedStats struct {
	// windowQPS is the quote throughput of each window.
	windowQPS []float64
	// quotes and cpu are the quotes served and the process CPU time over
	// the whole loop, ticks included.
	quotes int64
	cpu    time.Duration
	// vanRounds holds the CPU milliseconds of every quote round that
	// followed a VAN tick: the VAN repricing flight its first VAN quote
	// led, and the round's cache serves.
	vanRounds []float64
}

// closedLoop replays the script back to back for d. Each tick is a
// barrier: the quotes scripted between two ticks (a round) run concurrently
// on GOMAXPROCS callers, then the next tick applies.
// So the work per tick is fixed by the script (the first quote that finds a
// contract dirty leads one flight for the whole dirty set), and the figure
// is the server's capacity on that work, not an artifact of how ticks and
// flights happened to interleave.
func (r *serveRun) closedLoop(sc *script, d time.Duration) (*quoteLog, closedStats) {
	logs := make([]*quoteLog, runtime.GOMAXPROCS(0))
	for c := range logs {
		logs[c] = &quoteLog{rec: r.tr.recorder(), raced: make(map[int64]bool)}
	}
	type quoted struct {
		id  int
		req int64
	}
	var seg []quoted
	seq := int64(0)
	var perWindow [closedWindows]int
	var cs closedStats
	lastSym := -1
	start, cpu0 := time.Now(), cpuNow()
	deadline := start.Add(d)
	for time.Now().Before(deadline) {
		seg = seg[:0]
		o := sc.next()
		for ; o.kind == opQuote; o = sc.next() {
			seq++
			seg = append(seg, quoted{o.id, seq})
		}
		c0 := cpuNow()
		var next atomic.Int64
		work := func(l *quoteLog) {
			for i := next.Add(1) - 1; i < int64(len(seg)); i = next.Add(1) - 1 {
				r.quote(l, seg[i].id, time.Time{}, seg[i].req)
			}
		}
		var wg sync.WaitGroup
		for _, l := range logs[1:] {
			wg.Add(1)
			go func(l *quoteLog) {
				defer wg.Done()
				work(l)
			}(l)
		}
		work(logs[0])
		wg.Wait()
		if lastSym == symVAN {
			cs.vanRounds = append(cs.vanRounds, ms(cpuNow()-c0))
		}
		cs.quotes += int64(len(seg))
		if w := int(time.Since(start) * closedWindows / d); w < closedWindows {
			perWindow[w] += len(seg)
		}
		seq++
		r.tick(logs[0], o, seq)
		lastSym = o.sym
	}
	cs.cpu = cpuNow() - cpu0
	out := &quoteLog{}
	for _, l := range logs {
		l.rec.flush()
		out.merge(l)
	}
	cs.windowQPS = make([]float64, closedWindows)
	for w, n := range perWindow {
		cs.windowQPS[w] = float64(n) / (d / closedWindows).Seconds()
	}
	return out, cs
}

// serveResult is what one serve process measured.
type serveResult struct {
	open, closed *quoteLog
	cs           closedStats
	before, end  amop.PerfCounters
}

// warmTicks is how many of the script's ticks an end-to-end process replays
// as part of its set-up, before timing: eight vol ticks of every symbol, so
// the closed loop starts with STF's and EUR's vol bands mostly cached. It
// also makes the set-up about a second of CPU on serve-lattice and half a
// second on serve-auto: a set-up of NewServer alone took 40 to 50 ms, and
// the noise of a fresh process and of the seed's spot walk over a few
// ticks moved it by a third from one process to the next.
const warmTicks = 192

// warmUp replays the script's first warmTicks ticks and the quotes between
// them on one goroutine, untimed and unchecked except for errors.
func (r *serveRun) warmUp(sc *script) {
	for ticks := 0; ticks < warmTicks; {
		o := sc.next()
		var err error
		if o.kind == opTick {
			_, err = r.srv.Tick(symNames[o.sym], o.mkt)
			ticks++
		} else {
			_, err = r.srv.Quote(o.id)
		}
		if err != nil {
			r.chk.add(1, 0)
			r.chk.fail("warm-up: %v", err)
		}
	}
}

// measure runs the closed loop on sc for seconds, after the open loop when
// open is set.
func (r *serveRun) measure(sc *script, seconds float64, open bool) serveResult {
	d := time.Duration(seconds * float64(time.Second))
	var res serveResult
	res.before = amop.ReadPerfCounters()
	res.open = &quoteLog{}
	if open {
		openD := time.Duration(openShare * float64(d))
		res.open = r.openLoop(openD)
		d -= openD
	}
	res.closed, res.cs = r.closedLoop(sc, d)
	res.end = amop.ReadPerfCounters()
	r.tr.drainFlights()
	return res
}

// check verifies the run's outputs outside the timed phases: every quote
// counted and classified, the classes against the server's counters, the
// sampled quotes against no-arbitrage bounds and against a re-pricing at
// the returned market through the same tier.
func (r *serveRun) check(res serveResult) {
	all := &quoteLog{}
	all.merge(res.open)
	all.merge(res.closed)
	quotes := int64(0)
	for _, n := range all.counts {
		quotes += n
	}
	r.chk.add(quotes+all.ticks, 0)
	for _, e := range all.errs {
		r.chk.fail("%s", e)
	}
	// Errors were logged per quote above only up to a cap; count the rest.
	if extra := all.counts[qFailed] - int64(len(all.errs)); extra > 0 {
		r.chk.add(0, extra)
	}
	for i := int64(0); i < all.counts[qDegraded]; i++ {
		r.chk.fail("degraded quote served from a healthy book")
	}

	dc := func(f func(amop.PerfCounters) int64) int64 { return f(res.end) - f(res.before) }
	cacheHits := dc(func(c amop.PerfCounters) int64 { return c.ServeCacheHits })
	stale := dc(func(c amop.PerfCounters) int64 { return c.StaleServes })
	degraded := dc(func(c amop.PerfCounters) int64 { return c.DegradedServes })
	coalesced := dc(func(c amop.PerfCounters) int64 { return c.CoalescedRequests })
	if stale != all.counts[qStale] {
		r.chk.fail("stale quotes: %d classified, server counted %d", all.counts[qStale], stale)
	}
	if degraded != all.counts[qDegraded] {
		r.chk.fail("degraded quotes: %d classified, server counted %d", all.counts[qDegraded], degraded)
	}
	// The server's cache serves are the cached-looking quotes, give or take
	// the races raceWindow describes, each in its own direction.
	lo, hi := all.counts[qCached]-all.nearCached, all.counts[qCached]+all.fastFresh
	logf("cache serves: server counted %d, outside classification allows [%d, %d]", cacheHits, lo, hi)
	if cacheHits < lo || cacheHits > hi {
		r.chk.fail("cache serves: server counted %d, outside [%d, %d] (%d cached-looking quotes, %d of them stamped within %v before their call, %d fresh-looking ones returned within it)",
			cacheHits, lo, hi, all.counts[qCached], all.nearCached, raceWindow, all.fastFresh)
	}
	// A coalesced request joined a flight, so it was not a cache serve.
	if waited := quotes - cacheHits; coalesced > waited {
		r.chk.fail("coalesced requests %d exceed the %d quotes that waited on a flight", coalesced, waited)
	}
	r.checkSamples(all.samples)
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// maxReprice bounds how many distinct (contract, market) points are
// re-priced per run; fresh quotes come first.
const maxReprice = 400

func (r *serveRun) checkSamples(samples []sample) {
	type key struct {
		id  int
		mkt amop.Market
	}
	seen := make(map[key]float64)
	var keys []key
	// Fresh and stale quotes first, then the cached sample.
	sort.SliceStable(samples, func(i, j int) bool { return samples[i].class > samples[j].class })
	for _, s := range samples {
		o := r.b.request(s.id, s.mkt).Option
		lo, hi := noArbBounds(o, r.b.contracts[s.id].european)
		if !withinBounds(s.price, lo, hi) {
			r.chk.fail("quote %d at %+v: price %v outside no-arbitrage bounds [%v, %v]", s.id, s.mkt, s.price, lo, hi)
		}
		k := key{s.id, s.mkt}
		if p, ok := seen[k]; ok {
			if !closeTo(p, s.price) {
				r.chk.fail("quote %d at %+v served both %v and %v", s.id, s.mkt, p, s.price)
			}
			continue
		}
		seen[k] = s.price
		keys = append(keys, k)
	}
	if len(keys) > maxReprice {
		keys = keys[:maxReprice]
	}
	reqs := make([]amop.Request, len(keys))
	for i, k := range keys {
		reqs[i] = r.b.request(k.id, k.mkt)
	}
	t0 := time.Now()
	got := amop.PriceBatch(reqs, amop.BatchOptions{Tier: r.tier})
	rec := r.tr.recorder()
	rec.record(spPriceBatch, 0, 0, "check", t0, time.Now())
	rec.flush()
	for i, k := range keys {
		if got[i].Err != nil {
			r.chk.fail("re-pricing quote %d at %+v: %v", k.id, k.mkt, got[i].Err)
			continue
		}
		if !closeTo(got[i].Price, seen[k]) {
			r.chk.fail("quote %d at %+v served %v, re-priced %v", k.id, k.mkt, seen[k], got[i].Price)
		}
	}
}

// cpuMetrics returns the serve end-to-end metrics of one closed loop: CPU
// per quote over the whole loop, and the mean CPU of a VAN round.
func (res serveResult) cpuMetrics() map[string]float64 {
	logf("closed loop: %d quotes, %.4g s CPU; %d VAN rounds, CPU ms %s",
		res.cs.quotes, res.cs.cpu.Seconds(), len(res.cs.vanRounds), spread(res.cs.vanRounds))
	return map[string]float64{
		"quote_or_chain_cpu_ms":  ms(res.cs.cpu) / float64(max(res.cs.quotes, 1)),
		"flight_or_sweep_cpu_ms": mean(res.cs.vanRounds),
	}
}

// wallMetrics returns the serve wall-clock metrics of one process: fresh
// p50 and p99 over the open loop, and the closed loop's median window
// throughput.
func (res serveResult) wallMetrics() map[string]float64 {
	logf("%d fresh quotes in the open loop; closed-loop windows %.4g quotes/s", len(res.open.fresh), res.cs.windowQPS)
	return map[string]float64{
		"wall.fresh_p50_or_chain_ms":          quantile(res.open.fresh, 0.50),
		"wall.fresh_p99_or_sweep_ms":          quantile(res.open.fresh, 0.99),
		"wall.replay_qps_or_desk_cells_per_s": median(res.cs.windowQPS),
	}
}

// layer returns the serve-path per-layer metrics of a traced process.
func (r *serveRun) layer(res serveResult) map[string]float64 {
	all := &quoteLog{}
	all.merge(res.open)
	all.merge(res.closed)
	dc := func(f func(amop.PerfCounters) int64) int64 { return f(res.end) - f(res.before) }
	m := map[string]float64{
		"serve.quotes_cached":    float64(all.counts[qCached]),
		"serve.quotes_fresh":     float64(all.counts[qFresh]),
		"serve.quotes_stale":     float64(all.counts[qStale]),
		"serve.quotes_degraded":  float64(all.counts[qDegraded]),
		"serve.quotes_coalesced": float64(dc(func(c amop.PerfCounters) int64 { return c.CoalescedRequests })),
		"serve.tick_skip_ratio": ratio(dc(func(c amop.PerfCounters) int64 { return c.TickSkips }),
			dc(func(c amop.PerfCounters) int64 { return c.TickReprices })),
		"serve.coalescer_wait_p50_ms": float64(obs.CoalescerWait.Snapshot().P50) / 1e6,
		"bench.late_p99_ms":           quantile(res.open.lateMs, 0.99),
		"bench.late_max_ms":           quantile(res.open.lateMs, 1),
		"bench.fresh_samples":         float64(len(res.open.fresh)),
		"bench.class_mismatch": float64(abs64(dc(func(c amop.PerfCounters) int64 { return c.ServeCacheHits }) -
			all.counts[qCached])),
	}
	r.tr.mu.Lock()
	m["serve.flight_p50_ms"] = quantile(r.tr.flightMs, 0.50)
	m["serve.flight_p99_ms"] = quantile(r.tr.flightMs, 0.99)
	m["serve.flight_count"] = float64(len(r.tr.flightMs))
	r.tr.mu.Unlock()
	return m
}

// checkLate voids an open loop whose generator could not keep its schedule.
func (r *serveRun) checkLate(res serveResult) {
	if late := quantile(res.open.lateMs, 0.99); late > ms(maxLateP99) {
		r.chk.fail("open-loop generator p99 slip %.2f ms exceeds %v: the run is void", late, maxLateP99)
	}
}
