package main

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/nlstencil/amop"
	"github.com/nlstencil/amop/internal/fft"
	"github.com/nlstencil/amop/internal/linstencil"
	"github.com/nlstencil/amop/internal/scratch"
)

// The per-layer ladder times each layer's public entry points in isolation,
// by batched repetition: a batch of calls is timed as one interval, and the
// metric is the median per-call time over several batches. It runs in the
// traced process after the workload, on the production defaults.

// ladderSizes are the transform sizes of the fft and linstencil rungs.
var ladderSizes = []int{1 << 12, 1 << 13, 1 << 14, 1 << 15, 1 << 16, 1 << 17}

// batchBudget is the target wall time of one timed batch; ladderBatches
// batches are timed per rung.
const (
	batchBudget   = 20 * time.Millisecond
	ladderBatches = 5
)

type ladder struct {
	rec    *recorder
	parent int64
	out    map[string]float64
	chk    *checker
}

// timeCalls returns the median per-call time of fn in microseconds. One
// untimed call warms caches; the batch size is calibrated so that one batch
// takes about batchBudget. Each rung counts as one checked operation: a
// rung whose call fails is a failure and reports 0.
func (l *ladder) timeCalls(name string, fn func() error) float64 {
	l.chk.add(1, 0)
	t0 := time.Now()
	if err := fn(); err != nil {
		l.chk.fail("ladder %s: %v", name, err)
		return 0
	}
	warm := time.Since(t0)
	n := int(batchBudget / max(warm, time.Microsecond))
	n = min(max(n, 1), 1<<16)
	per := make([]float64, ladderBatches)
	start := time.Now()
	for b := range per {
		t := time.Now()
		for i := 0; i < n; i++ {
			if err := fn(); err != nil {
				l.chk.fail("ladder %s: %v", name, err)
				return 0
			}
		}
		per[b] = float64(time.Since(t)) / 1e3 / float64(n)
	}
	l.rec.record(spLadder, l.parent, int64(n), name, start, time.Now())
	return median(per)
}

func (l *ladder) run() {
	start := time.Now()
	l.parent = l.rec.record(spLadder, 0, 0, "ladder", start, start)
	rng := rand.New(rand.NewSource(1))

	// fft: one forward real transform on the kernel the stencil path uses.
	for _, n := range ladderSizes {
		rp := fft.RPlanFor(n)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.Float64()
		}
		sr, si := make([]float64, n/2+1), make([]float64, n/2+1)
		spec := make([]complex128, n/2+1)
		l.out[fmt.Sprintf("fft.forward_us.n%d", n)] = l.timeCalls(fmt.Sprintf("fft.forward.n%d", n), func() error {
			if fft.SoA() {
				rp.ForwardSoA(x, sr, si)
			} else {
				rp.Forward(x, spec)
			}
			return nil
		})
	}

	// linstencil: one cone evolution by n/4 steps of a three-point stencil
	// (a trinomial row), with its kernel spectrum cached after the warm-up.
	st := linstencil.Stencil{MinOff: -1, W: []float64{0.2495, 0.4995, 0.2495}}
	for _, n := range ladderSizes {
		cur := make([]float64, n)
		for i := range cur {
			cur[i] = rng.Float64()
		}
		l.out[fmt.Sprintf("linstencil.evolve_cone_us.n%d", n)] = l.timeCalls(fmt.Sprintf("linstencil.EvolveCone.n%d", n), func() error {
			vals, _ := linstencil.EvolveCone(cur, st, n/4)
			scratch.PutFloats(vals)
			return nil
		})
	}

	// fbstencil: one fast solve per model (BOPM call, TOPM call, BSM-FD put).
	call := amop.Option{Type: amop.Call, S: 127.62, K: 130, R: 0.02, V: 0.21, Y: 0.0163, E: 1}
	put := call
	put.Type = amop.Put
	for _, steps := range []int{2048, 16384} {
		for _, c := range []struct {
			name  string
			o     amop.Option
			model amop.Model
		}{{"bopm", call, amop.Binomial}, {"topm", call, amop.Trinomial}, {"bsm", put, amop.BlackScholesFD}} {
			key := fmt.Sprintf("fbstencil.solve_ms.%s.T%d", c.name, steps)
			l.out[key] = l.timeCalls(key, func() error {
				_, err := amop.Price(c.o, c.model, amop.Config{Steps: steps})
				return err
			}) / 1e3
		}
	}

	// analytic: cold solves perturb sigma on every call so every boundary is
	// new; warm solves repeat one contract.
	sigma := 0.2
	l.out["analytic.cold_us"] = l.timeCalls("analytic.cold", func() error {
		o := put
		sigma += 1e-6
		o.V = sigma
		_, err := amop.Price(o, amop.Binomial, amop.Config{Algorithm: amop.Analytic})
		return err
	})
	l.out["analytic.warm_us"] = l.timeCalls("analytic.warm", func() error {
		_, err := amop.Price(put, amop.Binomial, amop.Config{Algorithm: amop.Analytic})
		return err
	})

	// batch: the engine's cost per request on a batch of warm analytic
	// requests (distinct strikes, one boundary).
	reqs := make([]amop.Request, 256)
	for i := range reqs {
		o := put
		o.K = 100 + 0.25*float64(i)
		reqs[i] = amop.Request{Option: o, Config: amop.Config{Steps: 1}}
	}
	l.out["batch.overhead_us_per_req"] = l.timeCalls("PriceBatch.analytic", func() error {
		for _, r := range amop.PriceBatch(reqs, amop.BatchOptions{Tier: amop.TierAnalytic}) {
			if r.Err != nil {
				return r.Err
			}
		}
		return nil
	}) / float64(len(reqs))

	// serve: cached quotes on a clean surface, then ticks that move every
	// contract of the symbol to a new cell (ticks never solve).
	entries := make([]amop.BookEntry, 8)
	for i := range entries {
		o := put
		o.K = 120 + 2*float64(i)
		entries[i] = amop.BookEntry{Symbol: "L", Option: o, Model: amop.AutoModel, Config: amop.Config{Steps: 256}}
	}
	srv, err := amop.NewServer(entries, serveOpts(amop.TierAuto))
	if err != nil {
		l.chk.add(1, 0)
		l.chk.fail("ladder NewServer: %v", err)
		return
	}
	id := 0
	l.out["serve.cached_quote_ns"] = 1e3 * l.timeCalls("Server.Quote.cached", func() error {
		_, err := srv.Quote(id)
		id = (id + 1) % len(entries)
		return err
	})
	spot := put.S
	l.out["serve.tick_us"] = l.timeCalls("Server.Tick", func() error {
		spot += 0.5
		if spot > put.S+50 {
			spot = put.S
		}
		_, err := srv.Tick("L", amop.Market{Spot: spot, Vol: put.V, Rate: put.R})
		return err
	})
}
