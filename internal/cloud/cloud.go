// Package cloud defines the multi-cloud topology the simulator runs on:
// providers, regions with geographic coordinates, and distance helpers used
// to derive link characteristics. The region set matches the regions the
// paper evaluates on (Tables 1-3).
package cloud

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Provider identifies a cloud platform.
type Provider string

// The three providers the paper evaluates on.
const (
	AWS   Provider = "aws"
	Azure Provider = "azure"
	GCP   Provider = "gcp"
)

// Continent is a coarse geographic grouping used for egress pricing tiers.
type Continent string

// Continents relevant to the evaluated regions.
const (
	NorthAmerica Continent = "NA"
	Europe       Continent = "EU"
	Asia         Continent = "AS"
)

// RegionID uniquely names a region as "<provider>:<region-name>".
type RegionID string

// Region describes one cloud region.
type Region struct {
	Provider  Provider
	Name      string
	Continent Continent
	Lat, Lon  float64 // datacenter location, degrees

	id RegionID // set by the registry, so ID costs no concatenation per call
}

// ID returns the region's unique identifier.
func (r Region) ID() RegionID {
	if r.id != "" {
		return r.id
	}
	return RegionID(string(r.Provider) + ":" + r.Name)
}

// String implements fmt.Stringer.
func (r Region) String() string { return string(r.ID()) }

// regions is the registry of evaluated regions, keyed by ID.
var regions = func() map[RegionID]Region {
	list := []Region{
		// AWS
		{Provider: AWS, Name: "us-east-1", Continent: NorthAmerica, Lat: 38.9, Lon: -77.4},    // N. Virginia
		{Provider: AWS, Name: "us-east-2", Continent: NorthAmerica, Lat: 40.0, Lon: -83.0},    // Ohio
		{Provider: AWS, Name: "ca-central-1", Continent: NorthAmerica, Lat: 45.5, Lon: -73.6}, // Montreal
		{Provider: AWS, Name: "eu-west-1", Continent: Europe, Lat: 53.3, Lon: -6.3},           // Ireland
		{Provider: AWS, Name: "ap-northeast-1", Continent: Asia, Lat: 35.6, Lon: 139.7},       // Tokyo
		// Azure
		{Provider: Azure, Name: "eastus", Continent: NorthAmerica, Lat: 37.4, Lon: -79.8},   // Virginia
		{Provider: Azure, Name: "westus2", Continent: NorthAmerica, Lat: 47.2, Lon: -119.8}, // Washington
		{Provider: Azure, Name: "uksouth", Continent: Europe, Lat: 51.5, Lon: -0.1},         // London
		{Provider: Azure, Name: "southeastasia", Continent: Asia, Lat: 1.35, Lon: 103.8},    // Singapore
		// GCP
		{Provider: GCP, Name: "us-east1", Continent: NorthAmerica, Lat: 33.8, Lon: -81.0},  // South Carolina
		{Provider: GCP, Name: "us-west1", Continent: NorthAmerica, Lat: 45.6, Lon: -121.2}, // Oregon
		{Provider: GCP, Name: "europe-west6", Continent: Europe, Lat: 47.4, Lon: 8.5},      // Zurich
		{Provider: GCP, Name: "asia-northeast1", Continent: Asia, Lat: 35.7, Lon: 139.7},   // Tokyo
	}
	m := make(map[RegionID]Region, len(list))
	for _, r := range list {
		r.id = r.ID()
		m[r.id] = r
	}
	return m
}()

// Lookup returns the region for id.
func Lookup(id RegionID) (Region, error) {
	r, ok := regions[id]
	if !ok {
		return Region{}, fmt.Errorf("cloud: unknown region %q", id)
	}
	return r, nil
}

// MustLookup is Lookup but panics on unknown regions; for tests and tables.
func MustLookup(id RegionID) Region {
	r, err := Lookup(id)
	if err != nil {
		panic(err)
	}
	return r
}

// ParseRegionID validates and normalizes a "<provider>:<name>" string.
func ParseRegionID(s string) (RegionID, error) {
	parts := strings.SplitN(s, ":", 2)
	if len(parts) != 2 {
		return "", fmt.Errorf("cloud: region id %q must be <provider>:<name>", s)
	}
	id := RegionID(s)
	if _, ok := regions[id]; !ok {
		return "", fmt.Errorf("cloud: unknown region %q", s)
	}
	return id, nil
}

// AllRegions returns every registered region sorted by ID.
func AllRegions() []Region {
	out := make([]Region, 0, len(regions))
	for _, r := range regions {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID() < out[j].ID() })
	return out
}

const earthRadiusKm = 6371.0

// DistanceKm returns the great-circle distance between two regions.
func DistanceKm(a, b Region) float64 {
	if a.ID() == b.ID() {
		return 0
	}
	la1, lo1 := a.Lat*math.Pi/180, a.Lon*math.Pi/180
	la2, lo2 := b.Lat*math.Pi/180, b.Lon*math.Pi/180
	dla, dlo := la2-la1, lo2-lo1
	h := math.Sin(dla/2)*math.Sin(dla/2) +
		math.Cos(la1)*math.Cos(la2)*math.Sin(dlo/2)*math.Sin(dlo/2)
	return 2 * earthRadiusKm * math.Asin(math.Sqrt(h))
}

// RTT estimates the round-trip time in seconds between two regions from
// their distance: speed of light in fiber (~200,000 km/s) with a 2.0 path
// stretch factor, plus a 1 ms floor for local processing.
func RTT(a, b Region) float64 {
	const fiberKmPerSec = 200000.0
	return 0.001 + 2*2.0*DistanceKm(a, b)/fiberKmPerSec
}
