package main

import (
	"fmt"
	"strings"
	"testing"

	"repro"
)

// TestSingleRuleOnlyFlagsDefined: every name -fleet rejects must be a
// flag the command defines, so deleting a flag cannot leave a stale entry
// that silently never matches.
func TestSingleRuleOnlyFlagsDefined(t *testing.T) {
	fs := newFlagSet(new(options))
	for _, name := range singleRuleOnly {
		if fs.Lookup(name) == nil {
			t.Errorf("singleRuleOnly lists -%s, which is not a defined flag", name)
		}
	}
}

func TestParseSize(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int64 // 0 = rejected
	}{
		{"512KB", 512 << 10},
		{"16MB", 16 << 20},
		{"1GB", 1 << 30},
		{" 2gb ", 2 << 30},
		{"100B", 100},
		{"4096", 4096},
		{"8589934591GB", 8589934591 << 30}, // the largest GB count that fits
		{"0", 0},
		{"0MB", 0},
		{"-1MB", 0},
		{"", 0},
		{"MB", 0},
		{"12XB", 0},
		{"1.5GB", 0},
		// n*mult would overflow int64 and wrap to a negative or zero size.
		{"8589934592GB", 0},
		{"9000000000GB", 0},
		{"17592186044416MB", 0},
	} {
		got, err := parseSize(tc.in)
		if tc.want == 0 {
			if err == nil {
				t.Errorf("parseSize(%q) = %d, want an error", tc.in, got)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("parseSize(%q) = %d, %v; want %d", tc.in, got, err, tc.want)
		}
	}
}

// TestAuditFleetCostExcludesAudit: the fleet summary's cost is the meter
// read before the convergence audit, whose LIST requests bill after it.
func TestAuditFleetCostExcludesAudit(t *testing.T) {
	sim := areplica.NewSim()
	rules, opts, err := areplica.LoadFleetTopology(strings.NewReader(`{"fanout": [{"src": "aws:us-east-1", "bucket": "in",
		"dsts": [{"region": "azure:eastus", "bucket": "out"}, {"region": "gcp:us-east1", "bucket": "out"}]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	fl, err := sim.DeployFleet(rules, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := sim.PutObject("aws:us-east-1", "in", fmt.Sprintf("k%d", i), 1<<20); err != nil {
			t.Fatal(err)
		}
	}
	sim.Wait()

	before := sim.CostTotal()
	cost, diverged, audited := auditFleet(sim, fl, 0)
	if audited != 8 || diverged != 0 {
		t.Errorf("audit: %d of %d keys diverged, want 0 of 8", diverged, audited)
	}
	if cost != before {
		t.Errorf("reported cost $%g, want the pre-audit meter $%g", cost, before)
	}
	if after := sim.CostTotal(); after <= before {
		t.Errorf("meter after the audit $%g, want above $%g (the audit bills LIST requests)", after, before)
	}
}
