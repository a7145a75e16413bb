package main

import "testing"

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
