package cli

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"github.com/daskv/daskv/internal/dist"
)

// ParseRate parses an event rate in events per second: a plain number
// ("1200", "0.5") or one with a decimal scale suffix ("12k" = 12000,
// "1.5M" = 1500000). It is the one rate parser shared by dasbench,
// dassim, and dasload so every command agrees on what "-rate 20k"
// means.
func ParseRate(s string) (float64, error) {
	orig := s
	mult := 1.0
	switch {
	case strings.HasSuffix(s, "k"), strings.HasSuffix(s, "K"):
		mult, s = 1e3, s[:len(s)-1]
	case strings.HasSuffix(s, "M"):
		mult, s = 1e6, s[:len(s)-1]
	}
	r, ok := parsePositive(s)
	if !ok || math.IsInf(r*mult, 0) {
		return 0, fmt.Errorf("cli: bad rate %q (want a positive number, optionally with a k or M suffix)", orig)
	}
	return r * mult, nil
}

// parsePositive parses a finite, strictly positive float. strconv
// accepts "NaN" and "Inf", and NaN slips past a plain <= 0 test.
func parsePositive(s string) (float64, bool) {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil || !(f > 0) || math.IsInf(f, 0) {
		return 0, false
	}
	return f, true
}

// ParseRates parses a comma-separated ascending list of rates
// ("2k,5k,10k").
func ParseRates(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		r, err := ParseRate(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// ArrivalFactory builds an arrival process for a given mean rate — the
// shape is fixed by the spec, the rate is supplied per sweep point.
type ArrivalFactory func(rate float64) (dist.Arrival, error)

// ParseArrival parses an open-loop arrival-process spec:
//
//	poisson             memoryless arrivals (the default)
//	fixed               perfectly periodic arrivals
//	onoff:ON:OFF        bursty MMPP: exponential on-periods with mean ON
//	                    carrying all arrivals, silent off-periods with
//	                    mean OFF; the on-state rate is scaled so the
//	                    long-run mean hits the requested rate
//
// It returns a factory because sweep drivers rebuild the process at
// each offered-rate step.
func ParseArrival(spec string) (ArrivalFactory, error) {
	parts := strings.Split(spec, ":")
	switch parts[0] {
	case "", "poisson":
		if len(parts) != 1 && spec != "" {
			return nil, fmt.Errorf("cli: bad arrival spec %q", spec)
		}
		return func(rate float64) (dist.Arrival, error) { return dist.NewPoisson(rate, nil) }, nil
	case "fixed":
		if len(parts) != 1 {
			return nil, fmt.Errorf("cli: bad arrival spec %q", spec)
		}
		return func(rate float64) (dist.Arrival, error) { return dist.NewFixedRate(rate) }, nil
	case "onoff":
		if len(parts) != 3 {
			return nil, fmt.Errorf("cli: bad arrival spec %q (want onoff:ON:OFF)", spec)
		}
		on, err1 := time.ParseDuration(parts[1])
		off, err2 := time.ParseDuration(parts[2])
		if err1 != nil || err2 != nil || on <= 0 || off < 0 {
			return nil, fmt.Errorf("cli: bad arrival spec %q (want onoff:ON:OFF with positive durations)", spec)
		}
		return func(rate float64) (dist.Arrival, error) { return dist.NewOnOff(rate, on, off) }, nil
	}
	return nil, fmt.Errorf("cli: unknown arrival process %q (poisson | fixed | onoff:ON:OFF)", parts[0])
}
