package ariadne

// SequentialBarrier builds every partition's inbox on the engine goroutine
// instead of one goroutine each. Both barriers run the same code over the
// same messages; this is the reference leg of TestParallelBarrierDifferential.
func SequentialBarrier() Option {
	return func(c *runConfig) error {
		c.engineCfg.SequentialBarrier = true
		return nil
	}
}
