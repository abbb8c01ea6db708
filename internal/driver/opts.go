package driver

// evalConfig carries the per-run evaluation settings shared by the three
// drivers. Both are reference legs that only tests set.
type evalConfig struct {
	noProjection bool
	materialised bool
}

// EvalOpt tunes query evaluation (layered, naive, and online drivers).
type EvalOpt func(*evalConfig)

// NoProjection disables the layered driver's column projection pushdown:
// every layer is materialized full-width regardless of what the query
// reads. This is the reference leg for differential tests and the
// projected-replay benchmark.
func NoProjection() EvalOpt {
	return func(c *evalConfig) { c.noProjection = true }
}

// materialised is the in-package test hook that keeps a query on the
// materialised (bottom-up Datalog) evaluator even when it compiles to a
// vertex program.
func materialised() EvalOpt {
	return func(c *evalConfig) { c.materialised = true }
}

// resolveEvalConfig folds the options into a concrete configuration.
func resolveEvalConfig(opts []EvalOpt) evalConfig {
	var c evalConfig
	for _, o := range opts {
		o(&c)
	}
	return c
}
