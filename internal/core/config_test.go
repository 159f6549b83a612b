package core

import (
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
	// DefaultConfig must agree with the zero-value resolution path, so
	// the explicit and implicit default routes cannot drift.
	implicit := (Config{Net: net, Seed: 1}).withDefaults()
	if cfg.Alpha != implicit.Alpha || cfg.EpsilonFrac != implicit.EpsilonFrac ||
		cfg.MaxIterations != implicit.MaxIterations || cfg.InitTempFrac != implicit.InitTempFrac ||
		cfg.NeighborMoves != implicit.NeighborMoves || cfg.MaxChurn != implicit.MaxChurn ||
		cfg.Replicas != implicit.Replicas || cfg.ExchangeInterval != implicit.ExchangeInterval ||
		cfg.WarmTempFloor != implicit.WarmTempFloor || cfg.ConvergeWindows != implicit.ConvergeWindows {
		t.Errorf("DefaultConfig drifted from withDefaults:\n explicit %+v\n implicit %+v", cfg, implicit)
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
		{"epsilon=2", func(c *Config) { c.EpsilonFrac = 2 }, "EpsilonFrac"},
		{"negative init temp", func(c *Config) { c.InitTempFrac = -1 }, "InitTempFrac"},
		{"negative starve", func(c *Config) { c.StarveSlots = -1 }, "StarveSlots"},
		{"negative iterations", func(c *Config) { c.MaxIterations = -1 }, "MaxIterations"},
		{"negative moves", func(c *Config) { c.NeighborMoves = -1 }, "NeighborMoves"},
		{"negative workers", func(c *Config) { c.Workers = -1 }, "Workers"},
		{"negative batch", func(c *Config) { c.BatchSize = -1 }, "BatchSize"},
		{"negative replicas", func(c *Config) { c.Replicas = -1 }, "Replicas"},
		{"negative exchange interval", func(c *Config) { c.ExchangeInterval = -2 }, "ExchangeInterval"},
		{"warm floor negative", func(c *Config) { c.WarmTempFloor = -0.1 }, "WarmTempFloor"},
		{"warm floor above 1", func(c *Config) { c.WarmTempFloor = 1.5 }, "WarmTempFloor"},
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
	cfg.ConvergeWindows = -1 // contract: negative disables early exit
	if err := cfg.Validate(); err != nil {
		t.Errorf("negative ConvergeWindows rejected: %v", err)
	}
	cfg.WarmTempFloor = 1 // boundary: floor 1 makes warm start inert, still legal
	if err := cfg.Validate(); err != nil {
		t.Errorf("WarmTempFloor=1 rejected: %v", err)
	}
}
