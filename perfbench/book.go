package main

import (
	"math"
	"math/rand"
	"time"

	"github.com/nlstencil/amop"
)

// The serve workloads and the desk share one seeded multi-symbol book. Its
// three symbols load different layers:
//
//   - VAN, in-envelope vanilla Americans (calls and puts over strikes and
//     expiries): lattice solves under TierLattice, analytic solves under
//     TierAuto, cold after every VAN vol tick (see script);
//   - STF, outside the analytic envelope (stiffness 2*max(r,q)/sigma^2 > 50):
//     lattice under every tier, so TierAuto counts fallbacks;
//   - EUR, Europeans (one FFT evolution each, on every tier) plus one
//     trinomial American call.
//
// Step counts span two FFT sizes, so the spectrum cache sees both sizes and
// its cross-resolution path.
const (
	symVAN = iota
	symSTF
	symEUR
	numSyms
)

var symNames = [numSyms]string{"VAN", "STF", "EUR"}

// Lattice resolutions of the book: short-dated and European contracts at
// stepsLo, the rest at stepsHi (a larger FFT size).
const (
	stepsLo = 500
	stepsHi = 1000
)

// symbolSpec is one symbol's seeded market and the bands its tick walk stays
// in, so every contract stays inside (or, for STF, outside) the analytic
// envelope for the whole script. VAN's vol and rate follow their own cycle
// and have no vol band.
type symbolSpec struct {
	m0             amop.Market
	yield          float64
	spotLo, spotHi float64
	volLo, volHi   float64
}

// contract is one book entry plus the terms the output checks need.
type contract struct {
	sym      int
	entry    amop.BookEntry
	european bool
}

type book struct {
	syms      [numSyms]symbolSpec
	contracts []contract
}

func round2(x float64) float64 { return math.Round(x*2) / 2 }

// cellCenter returns the center of x's quantization cell of the given width.
func cellCenter(x, width float64) float64 { return (math.Floor(x/width) + 0.5) * width }

// newBook draws the book from the seed. The ranges are narrow: the seed
// changes the inputs, not how much work they are.
func newBook(seed int64) *book {
	rng := rand.New(rand.NewSource(seed))
	u := func(lo, hi float64) float64 { return lo + (hi-lo)*rng.Float64() }
	b := &book{}

	// VAN's vol and rate step through a long cycle (see script.next); the
	// other symbols' vol walks stay in narrow bands, so their vol-keyed
	// cache entries fill early in a run and reach the same size on every
	// seed.
	s0 := u(95, 105)
	b.syms[symVAN] = symbolSpec{
		m0:    amop.Market{Spot: s0, Vol: cellCenter(u(0.24, 0.26), 0.01), Rate: cellCenter(u(0.03, 0.035), 0.0005)},
		yield: u(0.01, 0.015), spotLo: 0.9 * s0, spotHi: 1.1 * s0,
	}
	s0 = u(45, 55)
	b.syms[symSTF] = symbolSpec{
		// Rate 0.09 with vol at most 0.055 keeps the stiffness above
		// 2*0.09/0.055^2 = 59.5, outside the envelope's cap of 50.
		m0:    amop.Market{Spot: s0, Vol: u(0.04, 0.042), Rate: 0.09},
		yield: 0.02, spotLo: 0.9 * s0, spotHi: 1.1 * s0, volLo: 0.035, volHi: 0.055,
	}
	s0, v0 := u(95, 105), u(0.28, 0.32)
	b.syms[symEUR] = symbolSpec{
		m0:    amop.Market{Spot: s0, Vol: v0, Rate: u(0.02, 0.025)},
		yield: u(0, 0.005), spotLo: 0.9 * s0, spotHi: 1.1 * s0, volLo: v0 - 0.03, volHi: v0 + 0.03,
	}

	add := func(sym int, typ amop.OptionType, k, e float64, model amop.Model, cfg amop.Config) {
		sp := b.syms[sym]
		o := amop.Option{Type: typ, S: sp.m0.Spot, K: k, R: sp.m0.Rate, V: sp.m0.Vol, Y: sp.yield, E: e}
		b.contracts = append(b.contracts, contract{
			sym:      sym,
			entry:    amop.BookEntry{Symbol: symNames[sym], Option: o, Model: model, Config: cfg},
			european: cfg.European,
		})
	}
	// VAN lists twelve monthly expiries, each with an out-of-the-money put
	// and two calls. Calls and puts at each expiry need their own analytic
	// boundary, so a cold VAN flight solves 24 boundaries: on serve-auto it
	// takes about as long as on serve-lattice.
	van := b.syms[symVAN].m0.Spot
	for month := 1; month <= 12; month++ {
		e := float64(month) / 12
		steps := stepsHi
		if e < 0.5 {
			steps = stepsLo
		}
		add(symVAN, amop.Put, round2(0.95*van), e, amop.AutoModel, amop.Config{Steps: steps})
		add(symVAN, amop.Call, round2(van), e, amop.AutoModel, amop.Config{Steps: steps})
		add(symVAN, amop.Call, round2(1.05*van), e, amop.AutoModel, amop.Config{Steps: steps})
	}
	stf := b.syms[symSTF].m0.Spot
	add(symSTF, amop.Call, round2(stf), 0.5, amop.AutoModel, amop.Config{Steps: stepsLo})
	add(symSTF, amop.Put, round2(stf), 0.5, amop.AutoModel, amop.Config{Steps: stepsLo})
	eur := b.syms[symEUR].m0.Spot
	add(symEUR, amop.Call, round2(eur), 0.5, amop.AutoModel, amop.Config{Steps: stepsLo, European: true})
	add(symEUR, amop.Put, round2(0.95*eur), 1.0, amop.AutoModel, amop.Config{Steps: stepsLo, European: true})
	add(symEUR, amop.Call, round2(eur), 0.5, amop.Trinomial, amop.Config{Steps: stepsLo})
	return b
}

// entries returns the book as the server registers it.
func (b *book) entries() []amop.BookEntry {
	out := make([]amop.BookEntry, len(b.contracts))
	for i, c := range b.contracts {
		out[i] = c.entry
	}
	return out
}

// request returns contract i priced at market m, exactly as a repricing
// flight submits it.
func (b *book) request(i int, m amop.Market) amop.Request {
	c := b.contracts[i]
	o := c.entry.Option
	o.S, o.V, o.R = m.Spot, m.Vol, m.Rate
	return amop.Request{Option: o, Model: c.entry.Model, Config: c.entry.Config, Tag: c.entry.Symbol}
}

// opKind distinguishes the two script operations.
type opKind uint8

const (
	opQuote opKind = iota
	opTick
)

// op is one script operation: a quote for a contract id, or a tick moving
// one symbol's market. due is its open-loop offset from the phase start.
type op struct {
	kind opKind
	due  time.Duration
	id   int
	sym  int
	mkt  amop.Market
}

// The script's traffic follows the serve-load profile of the repository's
// harness (internal/harness/serve.go): one tick per quotesPerTick quotes, with
// uniform quote ids. Ticks go to the symbols in turn, so every symbol ticks
// at the same cadence, and the spot walk and vol moves decide how many of
// them move a cell. quoteEvery sets the open-loop rate: a tick every 48 ms,
// so each symbol ticks every 144 ms, about three times the longest flight
// (a cold VAN re-solve, lattice or analytic), which keeps both serve
// workloads well below saturation.
const (
	quoteEvery    = 750 * time.Microsecond
	quotesPerTick = 64
	// volEvery is how many of a symbol's ticks pass between moves of its
	// vol (and for VAN, its rate): every volEvery-th tick of a symbol is a
	// vol tick.
	volEvery = 8
)

// script is the seeded tick/quote stream: a per-symbol spot walk whose steps
// cross the 0.25 spot bucket on about half the ticks, vol (and for VAN,
// rate) moves on vol ticks, and uniform quotes. Operations come out in due-time order;
// the closed loop replays the same order back to back.
type script struct {
	b      *book
	rng    *rand.Rand
	quotes int // quotes issued so far
	ticks  [numSyms]int
	mkt    [numSyms]amop.Market
	// vanVol and vanRate are the starting positions of VAN's vol and rate
	// cycles.
	vanVol, vanRate int
}

// On each vol tick, VAN's vol steps through vanVolCells vol cells and its
// rate through vanRateCells rate cells, vanVolStride and vanRateStride cells
// at a time. The cell counts are coprime, so a (vol, rate) pair recurs only
// after vanVolCells*vanRateCells = 221 vol ticks. By then the analytic
// boundary cache (512 boundaries, cleared when full) has been cleared about
// ten times and the spectrum cache (64 MiB, evicting at random) has replaced
// nearly all of its entries, so the flight after every VAN vol tick solves
// VAN's boundaries or spectra cold, on both tiers. The VAN ticks between
// move only the spot, and their flights find them warm, unless the boundary
// cache was cleared since.
const (
	vanVolCells   = 13
	vanRateCells  = 17
	vanVolStride  = 5
	vanRateStride = 7
)

func newScript(b *book, seed int64) *script {
	s := &script{b: b, rng: rand.New(rand.NewSource(seed ^ 0x5eed5c1))}
	s.vanVol, s.vanRate = s.rng.Intn(vanVolCells), s.rng.Intn(vanRateCells)
	for i := range s.mkt {
		s.mkt[i] = b.syms[i].m0
	}
	return s
}

// reflect keeps x inside [lo, hi] by mirroring at the edges.
func reflect(x, lo, hi float64) float64 {
	if x < lo {
		return 2*lo - x
	}
	if x > hi {
		return 2*hi - x
	}
	return x
}

func (s *script) next() op {
	due := time.Duration(s.quotes) * quoteEvery
	nTicks := 0
	for _, n := range s.ticks {
		nTicks += n
	}
	if s.quotes < (nTicks+1)*quotesPerTick {
		o := op{kind: opQuote, due: due, id: s.rng.Intn(len(s.b.contracts))}
		s.quotes++
		return o
	}
	sym := nTicks % numSyms
	sp := s.b.syms[sym]
	m := s.mkt[sym]
	m.Spot = reflect(m.Spot+0.3*(2*s.rng.Float64()-1), sp.spotLo, sp.spotHi)
	s.ticks[sym]++
	switch {
	case s.ticks[sym]%volEvery != 0:
		// A spot-only tick.
	case sym == symVAN:
		k := s.ticks[sym] / volEvery
		iv := (s.vanVol + k*vanVolStride) % vanVolCells
		ir := (s.vanRate + k*vanRateStride) % vanRateCells
		m.Vol = sp.m0.Vol + 0.01*float64(iv-vanVolCells/2)
		m.Rate = sp.m0.Rate + 0.0005*float64(ir-vanRateCells/2)
	default:
		// A nudge of one to two buckets moves the vol cell, unless the
		// band edge reflects it back.
		dv := 0.01 * (1 + s.rng.Float64())
		if s.rng.Intn(2) == 0 {
			dv = -dv
		}
		m.Vol = reflect(m.Vol+dv, sp.volLo, sp.volHi)
	}
	s.mkt[sym] = m
	return op{kind: opTick, due: due, sym: sym, mkt: m}
}
