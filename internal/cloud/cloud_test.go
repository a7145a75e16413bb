package cloud

import (
	"testing"
	"testing/quick"
)

func TestRegistryHasThirteenRegions(t *testing.T) {
	if got := len(AllRegions()); got != 13 {
		t.Fatalf("registered %d regions, want 13", got)
	}
}

func TestLookupKnownAndUnknown(t *testing.T) {
	r, err := Lookup("aws:us-east-1")
	if err != nil {
		t.Fatalf("Lookup(aws:us-east-1): %v", err)
	}
	if r.Provider != AWS || r.Name != "us-east-1" || r.Continent != NorthAmerica {
		t.Fatalf("unexpected region: %+v", r)
	}
	if _, err := Lookup("aws:mars-north-1"); err == nil {
		t.Fatal("expected error for unknown region")
	}
}

func TestParseRegionID(t *testing.T) {
	if _, err := ParseRegionID("gcp:europe-west6"); err != nil {
		t.Errorf("valid id rejected: %v", err)
	}
	for _, bad := range []string{"", "us-east-1", "ibm:us-east", "aws:"} {
		if _, err := ParseRegionID(bad); err == nil {
			t.Errorf("ParseRegionID(%q) should fail", bad)
		}
	}
}

func TestRegionsOfProvider(t *testing.T) {
	n := map[Provider]int{}
	for _, r := range AllRegions() {
		n[r.Provider]++
	}
	if got := n[AWS]; got != 5 {
		t.Errorf("AWS regions = %d, want 5", got)
	}
	if got := n[Azure]; got != 4 {
		t.Errorf("Azure regions = %d, want 4", got)
	}
	if got := n[GCP]; got != 4 {
		t.Errorf("GCP regions = %d, want 4", got)
	}
}

func TestMustLookupPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustLookup("aws:nowhere")
}

func TestDistanceProperties(t *testing.T) {
	all := AllRegions()
	// Symmetry and non-negativity over all pairs.
	for _, a := range all {
		for _, b := range all {
			d1, d2 := DistanceKm(a, b), DistanceKm(b, a)
			if d1 != d2 {
				t.Fatalf("distance not symmetric: %v vs %v", d1, d2)
			}
			if d1 < 0 {
				t.Fatalf("negative distance %v", d1)
			}
		}
		if DistanceKm(a, a) != 0 {
			t.Fatalf("self-distance of %v nonzero", a)
		}
	}
}

func TestDistanceSanity(t *testing.T) {
	use1 := MustLookup("aws:us-east-1")
	tokyo := MustLookup("aws:ap-northeast-1")
	ireland := MustLookup("aws:eu-west-1")
	azEast := MustLookup("azure:eastus")

	if d := DistanceKm(use1, tokyo); d < 9000 || d > 13000 {
		t.Errorf("us-east-1 to Tokyo = %.0f km, expected ~11000", d)
	}
	if d := DistanceKm(use1, ireland); d < 4500 || d > 6500 {
		t.Errorf("us-east-1 to Ireland = %.0f km, expected ~5500", d)
	}
	// AWS us-east-1 and Azure eastus are both in Virginia: close together.
	if d := DistanceKm(use1, azEast); d > 400 {
		t.Errorf("us-east-1 to azure eastus = %.0f km, expected < 400", d)
	}
}

func TestRTTIncreasesWithDistance(t *testing.T) {
	use1 := MustLookup("aws:us-east-1")
	use2 := MustLookup("aws:us-east-2")
	tokyo := MustLookup("aws:ap-northeast-1")
	if RTT(use1, use2) >= RTT(use1, tokyo) {
		t.Error("RTT should grow with distance")
	}
	if rtt := RTT(use1, use1); rtt < 0.0009 || rtt > 0.0011 {
		t.Errorf("self RTT = %v, want ~1ms floor", rtt)
	}
	// Transpacific RTT should land in a plausible 100-300ms band.
	if rtt := RTT(use1, tokyo); rtt < 0.1 || rtt > 0.3 {
		t.Errorf("us-east-1 to Tokyo RTT = %v s", rtt)
	}
}

func TestRegionIDRoundTrip(t *testing.T) {
	f := func(idx uint8) bool {
		all := AllRegions()
		r := all[int(idx)%len(all)]
		parsed, err := ParseRegionID(string(r.ID()))
		return err == nil && parsed == r.ID()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
