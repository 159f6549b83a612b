package core

import (
	"reflect"
	"strings"
	"testing"

	"owan/internal/topology"
)

func TestDefaultConfigValidatesAndMatchesWithDefaults(t *testing.T) {
	net := topology.Internet2(4)
	cfg := DefaultConfig(net)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("DefaultConfig invalid: %v", err)
	}
	// DefaultConfig must agree field for field with the zero-value
	// resolution path, except Seed and StarveSlots (whose zero disables
	// promotion), so the explicit and implicit default routes cannot drift.
	explicit := cfg.withDefaults()
	implicit := Config{Net: net, Seed: 1, StarveSlots: DefaultStarveSlots}.withDefaults()
	if !reflect.DeepEqual(explicit, implicit) {
		t.Errorf("DefaultConfig drifted from withDefaults:\n explicit %+v\n implicit %+v", explicit, implicit)
	}
}

func TestValidateRejectsNonsense(t *testing.T) {
	net := topology.Internet2(4)
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"nil net", func(c *Config) { c.Net = nil }, "Net"},
		{"alpha=1", func(c *Config) { c.Alpha = 1 }, "Alpha"},
		{"alpha negative", func(c *Config) { c.Alpha = -0.5 }, "Alpha"},
		{"alpha above 1", func(c *Config) { c.Alpha = 1.5 }, "Alpha"},
		{"negative starve", func(c *Config) { c.StarveSlots = -1 }, "StarveSlots"},
		{"negative iterations", func(c *Config) { c.MaxIterations = -1 }, "MaxIterations"},
		{"negative moves", func(c *Config) { c.NeighborMoves = -1 }, "NeighborMoves"},
		{"negative workers", func(c *Config) { c.Workers = -1 }, "Workers"},
		{"negative batch", func(c *Config) { c.BatchSize = -1 }, "BatchSize"},
		{"negative replicas", func(c *Config) { c.Replicas = -1 }, "Replicas"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(net)
			tc.mut(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatalf("nonsense config accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not name knob %q", err, tc.want)
			}
		})
	}
}

func TestValidateAllowsZeroDefaultsAndNegativeChurn(t *testing.T) {
	cfg := Config{Net: topology.Internet2(4)}
	if err := cfg.Validate(); err != nil {
		t.Errorf("zero-value config rejected: %v", err)
	}
	cfg.MaxChurn = -1 // contract: negative disables the churn bound
	if err := cfg.Validate(); err != nil {
		t.Errorf("negative MaxChurn rejected: %v", err)
	}
}
