package driver

import (
	"runtime"

	"ariadne/internal/obs"
	"ariadne/internal/pql/eval"
)

// evalConfig carries the per-run evaluation tuning shared by the three
// drivers: shard-parallel worker count and projection pushdown.
type evalConfig struct {
	workers      int // 0: auto (min(8, GOMAXPROCS))
	noProjection bool
	materialised bool
	metrics      *obs.Metrics
}

// EvalOpt tunes query evaluation (layered, naive, and online drivers).
type EvalOpt func(*evalConfig)

// EvalWorkers sets the shard-parallel evaluation worker count. n <= 0
// selects the default (min(8, GOMAXPROCS)); 1 never fans a round out.
func EvalWorkers(n int) EvalOpt {
	return func(c *evalConfig) { c.workers = n }
}

// NoProjection disables the layered driver's column projection pushdown:
// every layer is materialized full-width regardless of what the query
// reads. This is the reference leg for differential tests and the
// projected-replay benchmark.
func NoProjection() EvalOpt {
	return func(c *evalConfig) { c.noProjection = true }
}

// materialised is the in-package test hook that keeps a query on the
// materialised (bottom-up Datalog) evaluator even when it compiles to a
// vertex program — the path shard-parallel rounds apply to.
func materialised() EvalOpt {
	return func(c *evalConfig) { c.materialised = true }
}

// WithEvalObs attaches a metrics registry for eval-phase counters (parallel
// rounds, exchange tuples, shard skew).
func WithEvalObs(m *obs.Metrics) EvalOpt {
	return func(c *evalConfig) { c.metrics = m }
}

// resolveEvalConfig folds the options into a concrete configuration.
func resolveEvalConfig(opts []EvalOpt) evalConfig {
	var c evalConfig
	for _, o := range opts {
		o(&c)
	}
	if c.workers <= 0 {
		c.workers = runtime.GOMAXPROCS(0)
		if c.workers > 8 {
			c.workers = 8
		}
	}
	return c
}

// mirrorEvalStats publishes the evaluator's parallel-round counters to the
// shared registry after a run.
func mirrorEvalStats(m *obs.Metrics, name string, s eval.Stats) {
	if m == nil {
		return
	}
	m.Counter(obs.L("eval_parallel_rounds_total", "query", name)).Add(int64(s.ParallelRounds))
	m.Counter(obs.L("eval_exchange_tuples_total", "query", name)).Add(s.ExchangeTuples)
	m.Gauge(obs.L("eval_max_shard_delta", "query", name)).Set(int64(s.MaxShardDelta))
}
