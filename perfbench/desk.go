package main

import (
	"context"
	"math"
	"math/rand"
	"time"

	"github.com/nlstencil/amop"
)

// The desk workload: bulk analytics with no server. Each repetition draws a
// fresh market from the seeded sequence and runs, back to back,
//
//   - one Greeks+IV chain under TierAuto (deskStrikes x deskExpiries puts):
//     cold analytic boundary solves (every IV iteration and vega/rho bump is
//     a new (r, q, sigma, T) key) and repricing-memo traffic;
//   - one scenario sweep of the mixed book over a 5x5 spot/vol grid, on the
//     lattice (SweepOptions has no tier): cold kernel spectra, symbol reuse
//     across the base and scenario resolutions, and the bulk spawn budget.
//
// The first repetition is the set-up; the rest are timed. An end-to-end run
// times deskEpisodeReps repetitions per process, in as many fresh processes
// (episodes) as its time allows, so every episode starts from empty caches:
// in one long process the spectrum cache fills after about eight
// repetitions and from then on evicts at random, and the heap keeps growing.

const (
	deskStrikes     = 25
	deskExpiries    = 6
	deskEpisodeReps = 4
)

var deskExpiryGrid = [deskExpiries]float64{0.25, 0.5, 0.75, 1.0, 1.5, 2.0}

// deskGrid is the sweep's 5x5 spot/vol grid. The vol bumps keep the stiff
// symbol's vol (at least 0.04 - 0.005 after the market shift) positive.
func deskGrid() []amop.Scenario {
	return amop.ScenarioGrid{
		SpotBumps: []float64{-0.10, -0.05, 0, 0.05, 0.10},
		VolBumps:  []float64{-0.01, -0.005, 0, 0.005, 0.01},
	}.Scenarios()
}

// ivTol is how closely the chain's implied vol must recover the vol mark.
const ivTol = 1e-4

type deskRun struct {
	b   *book
	rng *rand.Rand
	tr  *tracer
	rec *recorder
	chk *checker
}

// newDeskRun prices the seed's book; each episode draws its own markets.
func newDeskRun(seed int64, episode int) *deskRun {
	src := rand.NewSource(seed ^ 0xde5c ^ int64(episode)<<32)
	return &deskRun{b: newBook(seed), rng: rand.New(src), chk: &checker{}}
}

// market draws the next repetition's market: every symbol's spot, vol and
// rate move, so spectra and boundaries are cold.
func (d *deskRun) market() [numSyms]amop.Market {
	var out [numSyms]amop.Market
	for i, sp := range d.b.syms {
		m := sp.m0
		m.Spot *= 0.96 + 0.08*d.rng.Float64()
		m.Vol += 0.005 * (2*d.rng.Float64() - 1)
		m.Rate += 0.001 * (2*d.rng.Float64() - 1)
		out[i] = m
	}
	return out
}

// repTimes are one repetition's wall and CPU times.
type repTimes struct{ chain, sweep, chainCPU, sweepCPU time.Duration }

// rep runs one repetition and returns its chain and sweep times.
func (d *deskRun) rep() (rt repTimes) {
	mkt := d.market()
	van := mkt[symVAN]
	und := amop.Option{Type: amop.Put, S: van.Spot, R: van.Rate, V: van.Vol, Y: d.b.syms[symVAN].yield}
	strikes := make([]float64, deskStrikes)
	for i := range strikes {
		strikes[i] = round2(van.Spot * (0.85 + 0.3*float64(i)/(deskStrikes-1)))
	}
	var quotes []amop.Quote
	t0, c0 := time.Now(), cpuNow()
	d.tr.call(d.rec, spChain, "chain", func(ctx context.Context) {
		quotes = amop.ChainCtx(ctx, und, strikes, deskExpiryGrid[:], amop.ChainOptions{Tier: amop.TierAuto})
	})
	rt.chain, rt.chainCPU = time.Since(t0), cpuNow()-c0

	reqs := make([]amop.Request, len(d.b.contracts))
	for i, c := range d.b.contracts {
		reqs[i] = d.b.request(i, mkt[c.sym])
	}
	grid := deskGrid()
	var sw *amop.Sweep
	t0, c0 = time.Now(), cpuNow()
	d.tr.call(d.rec, spSweep, "sweep", func(ctx context.Context) {
		sw = amop.ScenarioSweepCtx(ctx, reqs, grid, amop.SweepOptions{})
	})
	rt.sweep, rt.sweepCPU = time.Since(t0), cpuNow()-c0

	d.checkChain(und, quotes)
	d.checkSweep(reqs, grid, sw)
	return rt
}

func (d *deskRun) checkChain(und amop.Option, quotes []amop.Quote) {
	d.chk.add(int64(len(quotes)), 0)
	for _, q := range quotes {
		if q.Err != nil {
			d.chk.fail("chain cell K=%v E=%v: %v", q.Strike, q.Expiry, q.Err)
			continue
		}
		o := und
		o.K, o.E = q.Strike, q.Expiry
		if lo, hi := noArbBounds(o, false); !withinBounds(q.Price, lo, hi) {
			d.chk.fail("chain cell K=%v E=%v: price %v outside [%v, %v]", q.Strike, q.Expiry, q.Price, lo, hi)
		}
		if math.Abs(q.ImpliedVol-und.V) > ivTol {
			d.chk.fail("chain cell K=%v E=%v: implied vol %v does not recover the mark %v", q.Strike, q.Expiry, q.ImpliedVol, und.V)
		}
	}
}

func (d *deskRun) checkSweep(reqs []amop.Request, grid []amop.Scenario, sw *amop.Sweep) {
	d.chk.add(int64(len(sw.Results)), 0)
	base := -1
	for s, sc := range grid {
		if sc.IsBase() {
			base = s
		}
	}
	for c := range reqs {
		if sw.Base[c].Err != nil {
			d.chk.fail("sweep contract %d base: %v", c, sw.Base[c].Err)
		}
		for s := range grid {
			r := sw.At(c, s)
			if r.Err != nil {
				d.chk.fail("sweep cell (%d, %s): %v", c, grid[s].Label(), r.Err)
				continue
			}
			if s == base && r.PnL != 0 {
				d.chk.fail("sweep contract %d: base-scenario PnL %v, want 0", c, r.PnL)
			}
		}
	}
}

// cells is the number of priced cells in one repetition.
func (d *deskRun) cells() int {
	return deskStrikes*deskExpiries + len(d.b.contracts)*len(deskGrid())
}
