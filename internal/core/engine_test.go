package core_test

import (
	"strings"
	"testing"

	"overcast/internal/core"
)

// ciEngineSpecs is the -engine list the CI determinism step runs detdump
// over (.github/workflows/ci.yml); keep the two in sync.
var ciEngineSpecs = []string{
	"workers=1", "workers=2", "workers=8",
	"workers=1,plane=off", "workers=2,plane=off", "workers=8,plane=off",
	"workers=1,plane=round", "workers=8,plane=round",
	"workers=1,shards=1", "workers=1,shards=2", "workers=1,shards=4",
	"workers=8,shards=2", "workers=2,shards=4", "workers=8,shards=4",
	"workers=8,shards=4,plane=off",
	"workers=8,shards=2,plane=round", "workers=1,shards=4,plane=round",
	"workers=1,plane=refill", "workers=8,plane=refill",
	"workers=8,shards=4,plane=refill", "workers=1,shards=4,plane=refill",
}

func TestParseEngineRoundTrip(t *testing.T) {
	for _, spec := range append([]string{""}, ciEngineSpecs...) {
		e, err := core.ParseEngine(spec)
		if err != nil {
			t.Fatalf("ParseEngine(%q): %v", spec, err)
		}
		if got := e.String(); got != spec {
			t.Fatalf("ParseEngine(%q).String() = %q", spec, got)
		}
	}
	e, err := core.ParseEngine("plane=refill,shards=3,workers=5")
	if err != nil {
		t.Fatal(err)
	}
	if want := (core.Engine{Workers: 5, Plane: core.PlaneRefill, Shards: 3}); e != want {
		t.Fatalf("got %+v, want %+v", e, want)
	}
	if e, err := core.ParseEngine("plane=subtree,workers=0"); err != nil || e != (core.Engine{}) {
		t.Fatalf("explicit defaults: got %+v, %v; want the zero Engine", e, err)
	}
}

func TestParseEngineRejects(t *testing.T) {
	for _, tc := range []struct {
		spec, token string
	}{
		{"cores=4", "cores"},                // unknown key
		{"plane=fast", "plane=fast"},        // unknown plane value
		{"workers=2,workers=4", "workers"},  // duplicate key
		{"workers=-1", "workers=-1"},        // negative workers
		{"shards=-2", "shards=-2"},          // negative shards
		{"workers=two", "workers=two"},      // non-integer count
		{"shards=1.5", "shards=1.5"},        // non-integer count
		{"workers", "workers"},              // missing value
		{"workers=1,,shards=2", `""`},       // empty setting
		{"plane=off,plane=round", "plane="}, // duplicate key
	} {
		_, err := core.ParseEngine(tc.spec)
		if err == nil {
			t.Fatalf("ParseEngine(%q) accepted malformed input", tc.spec)
		}
		if !strings.Contains(err.Error(), tc.token) {
			t.Fatalf("ParseEngine(%q) error %q does not name %q", tc.spec, err, tc.token)
		}
	}
}
