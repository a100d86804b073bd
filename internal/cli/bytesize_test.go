package cli

import (
	"testing"

	"github.com/daskv/daskv/internal/dist"
)

func TestParseByteSize(t *testing.T) {
	cases := map[string]dist.ByteSize{
		"const:4096":             dist.ConstBytes{N: 4096},
		"const:64KiB":            dist.ConstBytes{N: 64 << 10},
		"const:8589934591GiB":    dist.ConstBytes{N: 8589934591 << 30}, // largest GiB count that fits int64
		"pareto:1KiB:4MiB:0.5":   dist.ParetoBytes{Lo: 1 << 10, Hi: 4 << 20, Alpha: 0.5},
		"pareto:512:1GiB:1.2":    dist.ParetoBytes{Lo: 512, Hi: 1 << 30, Alpha: 1.2},
		"lognorm:16KiB:1.5":      dist.LognormalBytes{M: 16 << 10, Sigma: 1.5},
		"lognorm:16KiB:1.5:4MiB": dist.LognormalBytes{M: 16 << 10, Sigma: 1.5, Cap: 4 << 20},
	}
	for spec, want := range cases {
		got, err := ParseByteSize(spec)
		if err != nil {
			t.Fatalf("ParseByteSize(%q): %v", spec, err)
		}
		if got != want {
			t.Fatalf("ParseByteSize(%q) = %#v, want %#v", spec, got, want)
		}
	}
}

func TestParseByteSizeErrors(t *testing.T) {
	for _, spec := range []string{
		"",
		"const",
		"const:0",
		"const:-5",
		"const:4KB",           // decimal suffixes are not accepted
		"const:9999999999GiB", // overflows int64 once scaled
		"const:9223372036854775807KiB",
		"pareto:1KiB:4MiB",
		"pareto:4MiB:1KiB:0.5", // inverted bounds
		"pareto:1KiB:4MiB:0",
		"pareto:1KiB:4MiB:NaN",
		"pareto:1KiB:4MiB:Inf",
		"lognorm:16KiB",
		"lognorm:16KiB:0",
		"lognorm:1KiB:Inf",
		"lognorm:1KiB:NaN",
		"lognorm:16KiB:1.5:bad",
		"lognorm:16KiB:1.5:9999999999GiB",
		"zipf:10:1",
	} {
		if _, err := ParseByteSize(spec); err == nil {
			t.Fatalf("ParseByteSize(%q) accepted", spec)
		}
	}
}
