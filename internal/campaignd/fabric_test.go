package campaignd

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestFabricSpecRejects: the single-process knobs the fabric cannot
// honour are refused at both of its entry points — the coordinator's
// MaterializeSpec and the worker's FabricResolver — before any runner
// is built. An accepted "adaptive" spec would silently run the fixed
// universe and ignore its novelty budget and seed.
func TestFabricSpecRejects(t *testing.T) {
	cases := []struct{ name, spec, want string }{
		{"shard", `{"universe":{},"shard":"0/2"}`, "shard"},
		{"trace", `{"universe":{},"trace":true}`, "trace"},
		{"adaptive", `{"universe":{},"adaptive":true,"novelty_budget":8,"novelty_seed":3}`, "adaptive"},
	}
	resolve := FabricResolver(nil)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := MaterializeSpec([]byte(tc.spec)); err == nil {
				t.Error("MaterializeSpec accepted the spec")
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("MaterializeSpec error %q does not mention %q", err, tc.want)
			}
			if _, err := resolve(json.RawMessage(tc.spec)); err == nil {
				t.Error("FabricResolver accepted the spec")
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("FabricResolver error %q does not mention %q", err, tc.want)
			}
		})
	}
}
