package provenance

import (
	"time"

	"ariadne/internal/fault"
	"ariadne/internal/obs"
)

// layerMagic opens every layer file, followed by its format version byte.
// The columnar format of columnar.go is the only one: version 4 is
// written, versions 2 to 4 are read, and any other version, such as the
// row files of earlier builds (version 1), is rejected with an error naming
// it.
var layerMagic = [4]byte{'A', 'P', 'R', 'V'}

const (
	// spillAttempts/spillBackoff bound the retry loop for transient write
	// errors (capped exponential backoff via fault.Retry).
	spillAttempts = 4
	spillBackoff  = time.Millisecond
	// maxDecodeLen caps length-prefixed allocations while decoding so a
	// corrupt layer file errors out instead of attempting a huge make().
	maxDecodeLen = 1 << 26
)

// writeLayerFile persists the finished image of superstep ss's layer
// atomically: the bytes go to a temp file, are fsynced, and only then
// renamed to the final path, so a crash or I/O error mid-write never leaves
// a partial layer visible where a reader would trip over it. Transient
// errors (injectable via inj for testing) are retried with capped
// exponential backoff; each fallback to retry is recorded as a warning
// trace event and a retry counter bump — never silently — so
// fault-injection runs are auditable from the trace buffer alone.
func writeLayerFile(path string, img []byte, ss int, inj *fault.Injector, m *obs.Metrics) error {
	attempt := func() error {
		if err := inj.Hit(fault.SiteSpillWrite, ss, -1, -1); err != nil {
			return err
		}
		return fault.WriteFileAtomic(path, img)
	}
	notify := func(n int, err error) {
		m.AddRetry("spill")
		m.Tracef(obs.Warn, "spill", ss, "layer write attempt %d/%d failed, retrying: %v",
			n, spillAttempts, err)
	}
	if err := fault.RetryNotify(spillAttempts, spillBackoff, attempt, notify); err != nil {
		m.Tracef(obs.Error, "spill", ss, "layer write giving up after %d attempts: %v", spillAttempts, err)
		return err
	}
	return nil
}
