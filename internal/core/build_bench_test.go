package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/oracle"
	"repro/internal/workload"
)

// BenchmarkFragmentBuild measures the fragment build path: one op is a
// whole run of perlbmk under the 16-byte budget of the cache sweep's
// single-fragment column, so nearly every block entry evicts the cache's
// resident and builds afresh. It reports builds/op next to the allocation
// counts, so time and allocations per build can be read off.
//
//	go test -run '^$' -bench BenchmarkFragmentBuild -benchtime 1x ./internal/core
func BenchmarkFragmentBuild(b *testing.B) {
	opts := core.Default()
	opts.BBCacheSize, opts.TraceCacheSize = 16, 16
	benches, err := workload.Select("perlbmk")
	if err != nil {
		b.Fatal(err)
	}
	img := benches[0].Image()
	b.ReportAllocs()
	var builds uint64
	for i := 0; i < b.N; i++ {
		m := machine.New(machine.PentiumIV())
		r := core.New(m, img, opts, nil)
		if err := r.Run(oracle.RunLimit); err != nil {
			b.Fatal(err)
		}
		s := r.StatsSnapshot()
		builds += s.BlocksBuilt + s.TracesBuilt
	}
	b.ReportMetric(float64(builds)/float64(b.N), "builds/op")
}
