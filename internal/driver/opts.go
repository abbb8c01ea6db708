package driver

import "ariadne/internal/provenance"

// evalConfig carries the per-run evaluation settings of the layered and
// online drivers. Only tests set them: two reference legs and a hook.
type evalConfig struct {
	noProjection bool
	materialised bool
	onViews      func(*provenance.LayerViews) // Layered's views after the last layer
}

// EvalOpt tunes query evaluation (layered and online drivers).
type EvalOpt func(*evalConfig)

// NoProjection disables the layered driver's column projection pushdown:
// every layer is materialized full-width regardless of what the query
// reads. This is the reference leg for differential tests and the
// projected-replay benchmark.
func NoProjection() EvalOpt {
	return func(c *evalConfig) { c.noProjection = true }
}

// materialised is the in-package test hook that compiles every rule
// materialised, as Naive does: the relation-sourced reference leg for the
// record-sourced plans.
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
