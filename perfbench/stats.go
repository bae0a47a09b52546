package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"github.com/nlstencil/amop"
)

// quantile returns the q-quantile of xs by nearest rank (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// ratio is a/(a+b), or 0 when both are zero.
func ratio(a, b int64) float64 {
	if a+b == 0 {
		return 0
	}
	return float64(a) / float64(a+b)
}

// checker tallies attempted and failed operations and keeps the first few
// failure messages. It is safe for concurrent use.
type checker struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	errs      []string
}

func (c *checker) add(attempted, failed int64) {
	c.mu.Lock()
	c.attempted += attempted
	c.failed += failed
	c.mu.Unlock()
}

// fail counts one failed operation (already counted as attempted).
func (c *checker) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failed++
	if len(c.errs) < 8 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

// closeTo is the tolerance used where the benchmark re-prices a result the
// program returned: the same request through the same tier must agree to
// rounding.
func closeTo(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Max(math.Abs(a), math.Abs(b)))
}

// noArbBounds returns the model-free price bounds of a contract at a market:
// intrinsic value (discounted for Europeans) below, spot for calls and the
// strike for puts above.
func noArbBounds(o amop.Option, european bool) (lo, hi float64) {
	s, k := o.S, o.K
	if european {
		s *= math.Exp(-o.Y * o.E)
		k *= math.Exp(-o.R * o.E)
	}
	if o.Type == amop.Call {
		return math.Max(s-k, 0), s
	}
	return math.Max(k-s, 0), k
}

// withinBounds reports whether p lies in [lo, hi] up to rounding.
func withinBounds(p, lo, hi float64) bool {
	tol := 1e-9 * (1 + hi)
	return p >= lo-tol && p <= hi+tol
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// spread formats the quartiles and extremes of xs for the log.
func spread(xs []float64) string {
	return fmt.Sprintf("min %.4g p25 %.4g p50 %.4g p75 %.4g max %.4g",
		quantile(xs, 0), quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75), quantile(xs, 1))
}
