package main

import (
	"testing"
)

func TestSummarizeReportsHighestSupportedPercentile(t *testing.T) {
	for _, tc := range []struct {
		n     int
		wantP float64
	}{
		{10000, 99.9}, // 10 samples beyond p99.9
		{9999, 99},    // 9.999 beyond p99.9: not enough
		{1000, 99},
		{999, 95},
		{100, 90},
		{99, 50},
		{19, 0}, // 9.5 beyond the median: nothing supported
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(tc.n - i) // unsorted on purpose
		}
		d := summarize(xs)
		if d.N != tc.n || d.TailP != tc.wantP {
			t.Errorf("n=%d: got N=%d tail p%g, want p%g", tc.n, d.N, d.TailP, tc.wantP)
		}
		if tc.wantP > 0 {
			beyond := 0
			for _, x := range xs {
				if x > d.Tail {
					beyond++
				}
			}
			if beyond < minBeyond {
				t.Errorf("n=%d: only %d samples beyond p%g", tc.n, beyond, d.TailP)
			}
		}
	}
	if _, ok := pct(make([]float64, 999), 99); ok {
		t.Error("pct accepted p99 of 999 samples")
	}
	if v, ok := pct([]float64{3, 1, 2, 5, 4, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20}, 50); !ok || v != 10 {
		t.Errorf("median of 1..20 = %v, %v; want 10 (nearest rank)", v, ok)
	}
}

func TestSelfTimeSubtractsUnionNotSum(t *testing.T) {
	// Two workers' plug-in calls overlap in [5,10); summed they cover 30
	// ns of the parent, but only 25 ns of it is covered at all.
	children := []span{{0, 10}, {5, 15}, {20, 30}}
	if got := unionNanos(append([]span(nil), children...)); got != 25 {
		t.Fatalf("union = %d, want 25", got)
	}
	if got := selfNanos(span{0, 40}, children); got != 15 {
		t.Fatalf("self = %d, want 15 (40 - union 25, not 40 - sum 30)", got)
	}
	// Children are clipped to the parent, and nested or empty spans add
	// nothing.
	if got := selfNanos(span{10, 40}, []span{{0, 12}, {35, 50}, {36, 37}, {20, 20}}); got != 23 {
		t.Fatalf("clipped self = %d, want 23", got)
	}
}
