package core

import "sync/atomic"

// Stats concurrency protocol. The runtime itself is single-goroutine (the
// machine steps all simulated threads round-robin), but harnesses read
// statistics from other goroutines — progress displays mid-run, the
// parallel sweep collecting results. Every write to a Stats counter
// therefore goes through statInc/statAdd (atomic adds), and concurrent
// readers use StatsSnapshot, which atomically loads each counter and
// aggregates the live-byte gauges across all cache regions. Reading
// r.Stats fields directly remains fine once the run has finished.

// statInc atomically increments one Stats counter.
func statInc(p *uint64) { atomic.AddUint64(p, 1) }

// statAdd atomically adds n to one Stats counter.
func statAdd(p *uint64, n uint64) { atomic.AddUint64(p, n) }

// statMax atomically raises one Stats counter to v if v is larger (used for
// high-water marks like the IBL probe length).
func statMax(p *uint64, v uint64) {
	for {
		cur := atomic.LoadUint64(p)
		if v <= cur || atomic.CompareAndSwapUint64(p, cur, v) {
			return
		}
	}
}

// StatsSnapshot returns a consistent copy of the runtime's counters, safe
// to call concurrently with running threads. The live-byte gauges are
// aggregated across every distinct cache region at snapshot time — the
// per-region gauges are authoritative, so multi-thread runs report true
// totals instead of the last writer's value.
func (r *RIO) StatsSnapshot() Stats {
	s := Stats{
		ContextSwitches:       atomic.LoadUint64(&r.Stats.ContextSwitches),
		BlocksBuilt:           atomic.LoadUint64(&r.Stats.BlocksBuilt),
		TracesBuilt:           atomic.LoadUint64(&r.Stats.TracesBuilt),
		Links:                 atomic.LoadUint64(&r.Stats.Links),
		Unlinks:               atomic.LoadUint64(&r.Stats.Unlinks),
		IBLMisses:             atomic.LoadUint64(&r.Stats.IBLMisses),
		CleanCalls:            atomic.LoadUint64(&r.Stats.CleanCalls),
		Replacements:          atomic.LoadUint64(&r.Stats.Replacements),
		FragmentsDeleted:      atomic.LoadUint64(&r.Stats.FragmentsDeleted),
		FragmentsDeletedBB:    atomic.LoadUint64(&r.Stats.FragmentsDeletedBB),
		FragmentsDeletedTrace: atomic.LoadUint64(&r.Stats.FragmentsDeletedTrace),
		StaleFragments:        atomic.LoadUint64(&r.Stats.StaleFragments),
		TraceHeadBumps:        atomic.LoadUint64(&r.Stats.TraceHeadBumps),
		EmulatedInstrs:        atomic.LoadUint64(&r.Stats.EmulatedInstrs),
		Evictions:             atomic.LoadUint64(&r.Stats.Evictions),
		Regenerations:         atomic.LoadUint64(&r.Stats.Regenerations),
		CacheResizes:          atomic.LoadUint64(&r.Stats.CacheResizes),
		IBLCollisions:         atomic.LoadUint64(&r.Stats.IBLCollisions),
		IBLMaxProbe:           atomic.LoadUint64(&r.Stats.IBLMaxProbe),
		IBLReplaced:           atomic.LoadUint64(&r.Stats.IBLReplaced),
		IBLResizes:            atomic.LoadUint64(&r.Stats.IBLResizes),
		FlagsElisions:         atomic.LoadUint64(&r.Stats.FlagsElisions),
		InlineChecksElided:    atomic.LoadUint64(&r.Stats.InlineChecksElided),
		FaultsTranslated:      atomic.LoadUint64(&r.Stats.FaultsTranslated),
		Detaches:              atomic.LoadUint64(&r.Stats.Detaches),
		Recoveries:            atomic.LoadUint64(&r.Stats.Recoveries),
		RecoveryAuditFailures: atomic.LoadUint64(&r.Stats.RecoveryAuditFailures),
		Quarantined:           atomic.LoadUint64(&r.Stats.Quarantined),
		NativeWindows:         atomic.LoadUint64(&r.Stats.NativeWindows),
		Reattaches:            atomic.LoadUint64(&r.Stats.Reattaches),
		DegradeLevel:          atomic.LoadUint64(&r.Stats.DegradeLevel),
		Anomalies:             atomic.LoadUint64(&r.Stats.Anomalies),
	}
	r.ctxMu.RLock()
	for _, ctx := range r.contexts {
		s.BBCacheLiveBytes += uint64(ctx.bb.gauge.Load())
		s.TraceCacheLiveBytes += uint64(ctx.trace.gauge.Load())
		if r.Opts.SharedCache {
			break // every context points at the one shared region pair
		}
	}
	r.ctxMu.RUnlock()
	return s
}

// LiveFragmentCounts counts the live (non-dead) fragments registered across
// all thread contexts, by kind. With a shared cache the fragment map is one
// instance; it is counted once. Together with the per-kind deletion
// counters this backs the conservation invariant the observability tests
// check: every built fragment is either still live or was delivered dead.
func (r *RIO) LiveFragmentCounts() (bb, trace uint64) {
	r.ctxMu.RLock()
	defer r.ctxMu.RUnlock()
	seen := map[*Fragment]struct{}{}
	for _, ctx := range r.contexts {
		for _, f := range ctx.frags {
			for cur := f; cur != nil; cur = cur.shadowedBy {
				if cur.dead {
					continue
				}
				if _, dup := seen[cur]; dup {
					continue
				}
				seen[cur] = struct{}{}
				if cur.Kind == KindTrace {
					trace++
				} else {
					bb++
				}
			}
		}
	}
	return bb, trace
}
