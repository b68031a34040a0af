package stressor_test

import (
	"testing"

	"repro/internal/stressor"
	"repro/internal/stressor/stressortest"
)

// TestRootEqualsBuild runs the root check on the toy prototypes of this
// package's tests (stressortest.CheckRoot).
func TestRootEqualsBuild(t *testing.T) {
	for _, c := range stressor.RootCases(t) {
		t.Run(c.Name, func(t *testing.T) { stressortest.CheckRoot(t, c.Rebuild, c.Reuse, c.Universe, c.Horizon) })
	}
}
