package cli

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"github.com/daskv/daskv/internal/dist"
)

// ParseByteSize parses a value-size distribution spec:
//
//	const:N            every value is N bytes
//	pareto:LO:HI:A     bounded Pareto on [LO, HI] with shape A
//	lognorm:M:SIGMA    lognormal with mean M, shape SIGMA
//	lognorm:M:SIGMA:C  same, samples capped at C
//
// Byte quantities accept KiB/MiB/GiB suffixes (e.g. 64KiB, 4MiB) or
// plain byte counts.
func ParseByteSize(spec string) (dist.ByteSize, error) {
	parts := strings.Split(spec, ":")
	bad := func() (dist.ByteSize, error) {
		return nil, fmt.Errorf("cli: bad value-size spec %q", spec)
	}
	switch parts[0] {
	case "const":
		if len(parts) != 2 {
			return bad()
		}
		if n, ok := parseBytes(parts[1]); ok {
			return dist.ConstBytes{N: n}, nil
		}
	case "pareto":
		if len(parts) != 4 {
			return bad()
		}
		lo, ok1 := parseBytes(parts[1])
		hi, ok2 := parseBytes(parts[2])
		a, ok3 := parsePositive(parts[3])
		if ok1 && ok2 && ok3 && hi >= lo {
			return dist.ParetoBytes{Lo: lo, Hi: hi, Alpha: a}, nil
		}
	case "lognorm":
		if len(parts) != 3 && len(parts) != 4 {
			return bad()
		}
		m, ok1 := parseBytes(parts[1])
		sig, ok2 := parsePositive(parts[2])
		if !ok1 || !ok2 {
			return bad()
		}
		var c int64
		if len(parts) == 4 {
			cap, ok := parseBytes(parts[3])
			if !ok {
				return bad()
			}
			c = cap
		}
		return dist.LognormalBytes{M: float64(m), Sigma: sig, Cap: c}, nil
	}
	return bad()
}

// parseBytes parses a positive byte quantity with an optional binary
// suffix: "512", "64KiB", "4MiB", "1GiB".
func parseBytes(s string) (int64, bool) {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "KiB"):
		mult, s = 1<<10, strings.TrimSuffix(s, "KiB")
	case strings.HasSuffix(s, "MiB"):
		mult, s = 1<<20, strings.TrimSuffix(s, "MiB")
	case strings.HasSuffix(s, "GiB"):
		mult, s = 1<<30, strings.TrimSuffix(s, "GiB")
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil || n <= 0 || n > math.MaxInt64/mult {
		return 0, false
	}
	return n * mult, true
}
