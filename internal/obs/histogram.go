package obs

import (
	"math/bits"
	"sync/atomic"
)

// Distribution metrics. End-of-run totals say where the cycles went;
// distributions say how the mechanisms behaved while they went there — a
// p99 IBL probe length of 12 against a p50 of 1 is a pathology no total can
// show. The histogram is fixed-bucket and allocation-free so the runtime can
// observe on hot paths (every dispatch, every hashtable insert) without
// perturbing either the simulated clock or the Go heap: Observe is a bit
// length, two atomic adds and an atomic max, and never allocates.

// HistBuckets is the number of power-of-two buckets. Bucket 0 counts the
// value 0; bucket i (1..31) counts values in [2^(i-1), 2^i); the last bucket
// absorbs everything at or above 2^31.
const HistBuckets = 33

// bucketOf maps a value to its power-of-two bucket.
func bucketOf(v uint64) int {
	b := bits.Len64(v)
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	return b
}

// BucketBound returns the inclusive upper bound of bucket i (the value a
// quantile estimate reports for a sample landing in it).
func BucketBound(i int) uint64 {
	if i <= 0 {
		return 0
	}
	if i >= HistBuckets-1 {
		return 1<<uint(HistBuckets-1) - 1
	}
	return 1<<uint(i) - 1
}

// Histogram is a fixed-bucket, allocation-free distribution recorder with
// power-of-two buckets and atomic counts. It is safe for concurrent Observe
// and read (the summaries are computed from an atomic snapshot of the
// buckets, so a concurrent reader sees a consistent-enough distribution —
// never a torn counter).
type Histogram struct {
	counts [HistBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64
	max    atomic.Uint64
}

// Observe records one sample. It never allocates and never blocks beyond
// the atomics themselves.
func (h *Histogram) Observe(v uint64) {
	h.counts[bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Count returns the number of samples observed.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Quantile estimates the q-quantile (0 < q <= 1) as the upper bound of the
// bucket where the cumulative count crosses q, clamped to the observed
// maximum. Zero samples estimate to 0.
func (h *Histogram) Quantile(q float64) uint64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum uint64
	for i := 0; i < HistBuckets; i++ {
		cum += h.counts[i].Load()
		if cum >= rank {
			bound := BucketBound(i)
			if mx := h.max.Load(); bound > mx {
				bound = mx
			}
			return bound
		}
	}
	return h.max.Load()
}

// HistogramSummary is the JSON-facing digest of one histogram: the sample
// count, sum and max, the standard quantile estimates, and the non-empty
// buckets (upper bound + count) for consumers that want the full shape.
type HistogramSummary struct {
	Name  string `json:"name"`
	Count uint64 `json:"count"`
	Sum   uint64 `json:"sum"`
	Max   uint64 `json:"max"`
	P50   uint64 `json:"p50"`
	P90   uint64 `json:"p90"`
	P99   uint64 `json:"p99"`

	Buckets []HistBucket `json:"buckets,omitempty"`
}

// HistBucket is one non-empty bucket of a summary.
type HistBucket struct {
	Bound uint64 `json:"le"` // inclusive upper bound of the bucket
	Count uint64 `json:"count"`
}

// Summary digests the histogram under the given name.
func (h *Histogram) Summary(name string) HistogramSummary {
	s := HistogramSummary{
		Name:  name,
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Max:   h.max.Load(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
	}
	for i := 0; i < HistBuckets; i++ {
		if n := h.counts[i].Load(); n > 0 {
			s.Buckets = append(s.Buckets, HistBucket{Bound: BucketBound(i), Count: n})
		}
	}
	return s
}

// Metric names one of the runtime's distribution metrics.
type Metric uint8

// The tracked distributions, in report order.
const (
	// MetricNativeWindowLen is the instructions a thread actually executed
	// per native cool-down window (degradation ladder), observed at the
	// dispatch entry that ends the window.
	MetricNativeWindowLen Metric = iota
	// MetricBlockBuildTicks is the simulated ticks charged to construct one
	// basic-block fragment (decode + per-instruction build cost).
	MetricBlockBuildTicks
	// MetricTraceBlocks is the basic blocks absorbed per built trace.
	MetricTraceBlocks
	// MetricIBLProbeLen is the probe distance of one IBL hashtable insert
	// (0 = home slot).
	MetricIBLProbeLen
	// MetricEvictScrubBytes is the bytes scrubbed per eviction victim.
	MetricEvictScrubBytes
	// MetricFragLifetimeEpochs is the eviction epochs (32 evictions of
	// the owning cache each) an evicted fragment survived between build and
	// eviction.
	MetricFragLifetimeEpochs
	NumMetrics
)

var metricNames = [NumMetrics]string{
	"native-window-len",
	"block-build-ticks",
	"trace-blocks",
	"ibl-probe-len",
	"evict-scrub-bytes",
	"frag-lifetime-epochs",
}

func (m Metric) String() string {
	if m < NumMetrics {
		return metricNames[m]
	}
	return "unknown"
}

// Histograms is the runtime's full set of distribution metrics, indexable
// by Metric. The zero value is ready to use.
type Histograms [NumMetrics]Histogram

// Observe records one sample of metric m.
func (h *Histograms) Observe(m Metric, v uint64) { h[m].Observe(v) }

// Summaries digests every metric, in index order.
func (h *Histograms) Summaries() []HistogramSummary {
	out := make([]HistogramSummary, NumMetrics)
	for i := range h {
		out[i] = h[i].Summary(Metric(i).String())
	}
	return out
}
