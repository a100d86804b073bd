package cli

import (
	"testing"
	"time"

	"github.com/daskv/daskv/internal/dist"
)

func TestParseRate(t *testing.T) {
	cases := []struct {
		in   string
		want float64
	}{
		{"1200", 1200},
		{"0.5", 0.5},
		{"12k", 12000},
		{"12K", 12000},
		{"1.5M", 1.5e6},
		{"2M", 2e6},
	}
	for _, c := range cases {
		got, err := ParseRate(c.in)
		if err != nil {
			t.Fatalf("ParseRate(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Fatalf("ParseRate(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"", "0", "-5", "5q", "k", "1.2.3", "5 k", "NaN", "NaNk", "Inf", "+Inf", "infM", "1e308M"} {
		if _, err := ParseRate(bad); err == nil {
			t.Fatalf("ParseRate(%q) should error", bad)
		}
	}
}

func TestParseRates(t *testing.T) {
	got, err := ParseRates("2k, 5k,10000")
	if err != nil {
		t.Fatalf("ParseRates: %v", err)
	}
	want := []float64{2000, 5000, 10000}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if _, err := ParseRates("2k,,5k"); err == nil {
		t.Fatal("empty element should error")
	}
}

func TestParseArrival(t *testing.T) {
	for spec, want := range map[string]string{
		"":                 "*dist.Poisson",
		"poisson":          "*dist.Poisson",
		"fixed":            "*dist.FixedRate",
		"onoff:50ms:150ms": "*dist.OnOff",
	} {
		f, err := ParseArrival(spec)
		if err != nil {
			t.Fatalf("ParseArrival(%q): %v", spec, err)
		}
		p, err := f(1000)
		if err != nil {
			t.Fatalf("factory(%q): %v", spec, err)
		}
		switch want {
		case "*dist.Poisson":
			if _, ok := p.(*dist.Poisson); !ok {
				t.Fatalf("ParseArrival(%q) built %T", spec, p)
			}
		case "*dist.FixedRate":
			if _, ok := p.(*dist.FixedRate); !ok {
				t.Fatalf("ParseArrival(%q) built %T", spec, p)
			}
		case "*dist.OnOff":
			o, ok := p.(*dist.OnOff)
			if !ok {
				t.Fatalf("ParseArrival(%q) built %T", spec, p)
			}
			if o.OnMean != 50*time.Millisecond || o.OffMean != 150*time.Millisecond {
				t.Fatalf("onoff means %v/%v, want 50ms/150ms", o.OnMean, o.OffMean)
			}
		}
	}
	for _, bad := range []string{"onoff", "onoff:1s", "onoff:0s:1s", "onoff:1s:-1s", "weibull", "poisson:2"} {
		if _, err := ParseArrival(bad); err == nil {
			t.Fatalf("ParseArrival(%q) should error", bad)
		}
	}
}
