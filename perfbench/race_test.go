//go:build race

package main

// The race detector slows the pricers several times over, enough to
// overload the serve workloads' open loop, so the smoke test then checks
// only that every phase runs and reports every metric.
func init() { raceEnabled = true }
