package obs

import (
	"sync"
	"testing"
)

func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		v    uint64
		want int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1 << 30, 31}, {1<<31 - 1, 31}, {1 << 31, 32}, {1 << 40, 32}, {^uint64(0), 32},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	// Every bucket's bound must be in the bucket (round-trip) and monotone.
	var prev uint64
	for i := 0; i < HistBuckets; i++ {
		b := BucketBound(i)
		if bucketOf(b) != i {
			t.Errorf("BucketBound(%d) = %d lands in bucket %d", i, b, bucketOf(b))
		}
		if i > 0 && b <= prev {
			t.Errorf("BucketBound(%d) = %d not greater than BucketBound(%d) = %d", i, b, i-1, prev)
		}
		prev = b
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram should estimate 0")
	}
	// 99 samples of 1, one sample of 1000: p50/p90 in the 1-bucket, p99 not.
	for i := 0; i < 99; i++ {
		h.Observe(1)
	}
	h.Observe(1000)
	if h.Count() != 100 {
		t.Fatalf("count = %d, want 100", h.Count())
	}
	if got := h.Quantile(0.50); got != 1 {
		t.Errorf("p50 = %d, want 1", got)
	}
	if got := h.Quantile(0.90); got != 1 {
		t.Errorf("p90 = %d, want 1", got)
	}
	// p99's rank is 99 which is still inside the 1-bucket; p100 must reach
	// the big sample, clamped to the observed max (not the bucket bound).
	if got := h.Quantile(1.0); got != 1000 {
		t.Errorf("p100 = %d, want 1000 (clamped to observed max)", got)
	}
	s := h.Summary("test")
	if s.Name != "test" || s.Count != 100 || s.Max != 1000 || s.Sum != 99+1000 {
		t.Errorf("summary = %+v", s)
	}
	var total uint64
	for _, b := range s.Buckets {
		total += b.Count
	}
	if total != 100 {
		t.Errorf("bucket counts sum to %d, want 100", total)
	}
}

func TestHistogramObserveDoesNotAllocate(t *testing.T) {
	var h Histogram
	n := testing.AllocsPerRun(1000, func() { h.Observe(42) })
	if n != 0 {
		t.Errorf("Observe allocates %v times per call, want 0", n)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	const workers, per = 8, 10_000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(uint64(w*per + i))
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Errorf("count = %d, want %d", h.Count(), workers*per)
	}
	if h.max.Load() != workers*per-1 {
		t.Errorf("max = %d, want %d", h.max.Load(), workers*per-1)
	}
}

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for i := range NumMetrics {
		n := i.String()
		if n == "" || n == "unknown" {
			t.Errorf("metric %d has no name", i)
		}
		if seen[n] {
			t.Errorf("duplicate metric name %q", n)
		}
		seen[n] = true
	}
	var hs Histograms
	hs.Observe(MetricIBLProbeLen, 3)
	sums := hs.Summaries()
	if len(sums) != int(NumMetrics) {
		t.Fatalf("got %d summaries, want %d", len(sums), NumMetrics)
	}
	if sums[MetricIBLProbeLen].Count != 1 || sums[MetricIBLProbeLen].Name != "ibl-probe-len" {
		t.Errorf("summaries[ibl-probe-len] = %+v", sums[MetricIBLProbeLen])
	}
}
