// Package pricing models the list prices of the three clouds and meters
// the cost of simulated activity. The prices are the published 2025 rates
// the paper's cost columns are computed from: per-GB egress tiers, per-GB-s
// function compute, per-request object storage and NoSQL fees, hourly VM
// rates with minimum billable durations, and the S3 Replication Time
// Control fee.
package pricing

import (
	"sort"
	"sync"
	"time"

	"repro/internal/cloud"
)

const gb = float64(1 << 30)

// Book is the price list of one provider. All prices are USD.
type Book struct {
	Provider cloud.Provider

	// Egress prices per GB, charged by the sending side.
	EgressIntraContinent float64 // between the provider's regions, same continent
	EgressInterContinent float64 // between the provider's regions, across continents
	EgressInternet       float64 // to another cloud (public internet)

	// Serverless functions.
	FnGBSecond   float64 // per GB-s of configured memory
	FnInvocation float64 // per invocation

	// Serverless NoSQL database.
	KVWrite float64 // per write
	KVRead  float64 // per read

	// Object storage requests.
	ObjPut   float64 // per PUT/COPY/POST
	ObjGet   float64 // per GET
	ObjList  float64 // per LIST page request (up to 1000 keys)
	ObjAbort float64 // per AbortMultipartUpload (free on S3, write-class elsewhere)

	// VMs (Skyplane baseline).
	VMHourly      float64
	VMMinBillable time.Duration

	// Serverless workflow service (Step Functions and peers).
	WorkflowTransition float64 // per state transition

	// Proprietary replication add-ons.
	RTCPerGB float64 // AWS S3 Replication Time Control fee

	// Storage, for versioning overhead estimates.
	StorageGBMonth float64
}

var books = map[cloud.Provider]Book{
	cloud.AWS: {
		Provider:             cloud.AWS,
		EgressIntraContinent: 0.02,
		EgressInterContinent: 0.02, // AWS charges a flat inter-region tier
		EgressInternet:       0.09,
		FnGBSecond:           16.67e-6, // Lambda
		FnInvocation:         0.20e-6,
		KVWrite:              0.625e-6, // DynamoDB on-demand
		KVRead:               0.125e-6,
		ObjPut:               5.0e-6, // S3
		ObjGet:               0.4e-6,
		ObjList:              5.0e-6, // S3 LIST bills at the PUT tier
		ObjAbort:             0,      // S3 AbortMultipartUpload is free
		VMHourly:             1.30,
		VMMinBillable:        60 * time.Second,
		WorkflowTransition:   25e-6, // Step Functions standard
		RTCPerGB:             0.015,
		StorageGBMonth:       0.023,
	},
	cloud.Azure: {
		Provider:             cloud.Azure,
		EgressIntraContinent: 0.02,
		EgressInterContinent: 0.05,
		EgressInternet:       0.0875,
		FnGBSecond:           16.0e-6, // Azure Functions
		FnInvocation:         0.20e-6,
		KVWrite:              1.25e-6, // Cosmos DB serverless
		KVRead:               0.30e-6,
		ObjPut:               6.5e-6, // Blob Storage
		ObjGet:               0.5e-6,
		ObjList:              6.5e-6, // List Blobs is a write-class operation
		ObjAbort:             6.5e-6, // block-list cleanup bills write-class
		VMHourly:             1.20,
		VMMinBillable:        60 * time.Second,
		WorkflowTransition:   15e-6, // Durable Functions orchestration
		StorageGBMonth:       0.0208,
	},
	cloud.GCP: {
		Provider:             cloud.GCP,
		EgressIntraContinent: 0.02,
		EgressInterContinent: 0.05,
		EgressInternet:       0.12,
		FnGBSecond:           24.0e-6, // Cloud Run Functions (CPU+memory)
		FnInvocation:         0.40e-6,
		KVWrite:              1.80e-6, // Firestore
		KVRead:               0.60e-6,
		ObjPut:               5.0e-6, // GCS class A
		ObjGet:               0.4e-6,
		ObjList:              5.0e-6, // GCS list is class A
		ObjAbort:             5.0e-6, // GCS abort is class A
		VMHourly:             1.40,
		VMMinBillable:        60 * time.Second,
		WorkflowTransition:   10e-6, // Google Workflows internal steps
		StorageGBMonth:       0.020,
	},
}

// BookFor returns the price book of a provider.
func BookFor(p cloud.Provider) Book { return books[p] }

// EgressPerGB returns the per-GB price of moving data out of region `from`
// toward region `to`, charged at `from`'s provider rates. Same-region
// transfers are free. GCP's US-Asia inter-continent tier is priced higher,
// matching its published rates.
func EgressPerGB(from, to cloud.Region) float64 {
	if from.ID() == to.ID() {
		return 0
	}
	b := books[from.Provider]
	if from.Provider != to.Provider {
		return b.EgressInternet
	}
	if from.Continent == to.Continent {
		return b.EgressIntraContinent
	}
	if from.Provider == cloud.GCP &&
		(from.Continent == cloud.Asia || to.Continent == cloud.Asia) {
		return 0.08
	}
	return b.EgressInterContinent
}

// EgressCost returns the dollar cost of sending bytes from one region
// toward another.
func EgressCost(from, to cloud.Region, bytes int64) float64 {
	return EgressPerGB(from, to) * float64(bytes) / gb
}

// FnComputeCost returns the compute cost of one function instance running
// for dur with memGB of configured memory on provider p.
func FnComputeCost(p cloud.Provider, memGB float64, dur time.Duration) float64 {
	return books[p].FnGBSecond * memGB * dur.Seconds()
}

// VMCost returns the billed cost of a VM that ran for uptime on provider p,
// applying the minimum billable duration.
func VMCost(p cloud.Provider, uptime time.Duration) float64 {
	b := books[p]
	if uptime < b.VMMinBillable {
		uptime = b.VMMinBillable
	}
	return b.VMHourly * uptime.Hours()
}

// Meter accumulates itemized dollar costs. It is safe for concurrent use.
type Meter struct {
	mu    sync.Mutex
	items map[string]float64
}

// NewMeter returns an empty meter.
func NewMeter() *Meter { return &Meter{items: make(map[string]float64)} }

// Add accrues usd dollars under the named item.
func (m *Meter) Add(item string, usd float64) {
	if usd == 0 {
		return
	}
	m.mu.Lock()
	m.items[item] += usd
	m.mu.Unlock()
}

// Total returns the sum over all items. Summation runs in sorted item
// order: float addition is not associative, and map iteration order would
// otherwise wobble the last ULP between identically-seeded runs.
func (m *Meter) Total() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.items))
	for k := range m.items {
		names = append(names, k)
	}
	sort.Strings(names)
	var t float64
	for _, k := range names {
		t += m.items[k]
	}
	return t
}

// Item returns the accumulated cost of one item.
func (m *Meter) Item(item string) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.items[item]
}

// Breakdown returns a copy of the itemized costs.
func (m *Meter) Breakdown() map[string]float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]float64, len(m.items))
	for k, v := range m.items {
		out[k] = v
	}
	return out
}

// Reset clears all accumulated costs.
func (m *Meter) Reset() {
	m.mu.Lock()
	m.items = make(map[string]float64)
	m.mu.Unlock()
}
