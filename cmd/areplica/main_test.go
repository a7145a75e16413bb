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
